/**
 * @file
 * Core pipeline tests using hand-built instruction sources: issue-width
 * limits, dependency serialization, memory stalls, branch mispredict
 * penalties, ROB resizing, counter consistency, and the edge cases of
 * run()'s idle-cycle fast-forward (checked against cycle() ticking).
 */

#include <gtest/gtest.h>

#include "core_counters_diff.hpp"
#include "sim/core.hpp"

namespace mimoarch {
namespace {

/** Emits the same micro-op forever. */
class RepeatSource : public InstructionSource
{
  public:
    explicit RepeatSource(MicroOp op) : op_(op) {}

    MicroOp
    next() override
    {
        MicroOp op = op_;
        op.pc = 0x400000 + (pc_ += 4) % 4096;
        return op;
    }

  private:
    MicroOp op_;
    uint64_t pc_ = 0;
};

/** Cycles through a fixed vector of micro-ops. */
class LoopSource : public InstructionSource
{
  public:
    explicit LoopSource(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

    MicroOp
    next() override
    {
        MicroOp op = ops_[idx_ % ops_.size()];
        op.pc = 0x400000 + (idx_ * 4) % 4096;
        ++idx_;
        return op;
    }

  private:
    std::vector<MicroOp> ops_;
    size_t idx_ = 0;
};

MicroOp
alu(uint16_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.srcDist0 = dep;
    return op;
}

/** Serially dependent loads that each miss to memory. */
std::vector<MicroOp>
missingLoadChain()
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.srcDist0 = 1;
        ld.addr = static_cast<uint64_t>(i) * 1024 * 1024;
        ops.push_back(ld);
    }
    return ops;
}

TEST(Core, IndependentAluOpsReachIssueWidth)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0); // warm the I-cache
    core.resetCounters();
    core.run(3000, 1.0);
    // Ideal IPC for independent 1-cycle ALU ops is ~min(width, aluPorts)
    // = 2 with the default 2 ALU ports.
    EXPECT_GT(core.counters().ipc(), 1.8);
    EXPECT_LE(core.counters().ipc(), 2.05);
}

TEST(Core, SerialDependencyChainLimitsIpcToOne)
{
    RepeatSource src(alu(1)); // each op depends on the previous
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0);
    core.resetCounters();
    core.run(3000, 1.0);
    EXPECT_GT(core.counters().ipc(), 0.85);
    EXPECT_LE(core.counters().ipc(), 1.05);
}

TEST(Core, LongerDependencyDistanceRaisesIpc)
{
    const auto ipc_for = [](uint16_t dist) {
        RepeatSource src(alu(dist));
        MemoryHierarchy mem;
        Core core(CoreConfig{}, &src, &mem);
        core.run(20000, 1.0);
        core.resetCounters();
        core.run(3000, 1.0);
        return core.counters().ipc();
    };
    EXPECT_LT(ipc_for(1), ipc_for(2));
    EXPECT_LE(ipc_for(2), ipc_for(4) + 0.05);
}

TEST(Core, MulDivPortSerializesMultiplies)
{
    MicroOp mul;
    mul.cls = OpClass::IntMul;
    RepeatSource src(mul);
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0);
    core.resetCounters();
    core.run(3000, 1.0);
    // One mul/div port, pipelined 1/cycle issue -> IPC ~<= 1.
    EXPECT_LE(core.counters().ipc(), 1.05);
}

TEST(Core, CacheMissLoadsThrottleIpc)
{
    // Loads striding through a huge region: every line is a miss.
    LoopSource src(missingLoadChain());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 2.0);
    EXPECT_LT(core.counters().ipc(), 0.05);
    EXPECT_GT(core.counters().l1dMisses, 0u);
    EXPECT_GT(core.counters().memAccesses, 0u);
}

TEST(Core, L1HitLoadsKeepHighIpc)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 16; ++i) {
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.addr = static_cast<uint64_t>(i) * 64; // 1KB hot set
        ops.push_back(ld);
        ops.push_back(alu());
        ops.push_back(alu());
    }
    LoopSource src(ops);
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0);
    core.resetCounters();
    core.run(5000, 1.0);
    EXPECT_GT(core.counters().ipc(), 1.5);
}

TEST(Core, MispredictsReduceIpc)
{
    // Branches with a random outcome vs always-taken.
    const auto ipc_for = [](bool random) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 97; ++i) {
            MicroOp op;
            if (i % 5 == 0) {
                op.cls = OpClass::Branch;
                op.taken = random ? ((i * 2654435761u) >> 13) % 2 : true;
                op.pc = 0x400000 + static_cast<uint64_t>(i % 7) * 64;
            } else {
                op = MicroOp{};
            }
            ops.push_back(op);
        }
        LoopSource src(ops);
        MemoryHierarchy mem;
        Core core(CoreConfig{}, &src, &mem);
        core.run(20000, 1.0);
        core.resetCounters();
        core.run(10000, 1.0);
        return core.counters().ipc();
    };
    EXPECT_LT(ipc_for(true) * 1.2, ipc_for(false));
}

TEST(Core, SmallerRobLowersMemoryLevelParallelism)
{
    // Independent missing loads: a big ROB overlaps many misses.
    const auto ipc_for = [](unsigned rob) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 128; ++i) {
            MicroOp ld;
            ld.cls = OpClass::Load;
            ld.addr = static_cast<uint64_t>(i * 7919) * 4096;
            ops.push_back(ld);
            ops.push_back(alu());
        }
        LoopSource src(ops);
        MemoryHierarchy mem;
        Core core(CoreConfig{}, &src, &mem);
        core.setRobSize(rob);
        core.run(30000, 2.0);
        return core.counters().ipc();
    };
    EXPECT_GT(ipc_for(128), 1.3 * ipc_for(16));
}

TEST(Core, RobResizeValidation)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    EXPECT_EXIT(core.setRobSize(8), testing::ExitedWithCode(1), "ROB");
    EXPECT_EXIT(core.setRobSize(256), testing::ExitedWithCode(1), "ROB");
    core.setRobSize(64);
    EXPECT_EQ(core.robSize(), 64u);
}

TEST(Core, RobShrinkTakesEffect)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(100, 1.0);
    core.setRobSize(16);
    core.run(200, 1.0);
    EXPECT_LE(core.robOccupancy(), 16u);
}

TEST(Core, CountersAreConsistent)
{
    RepeatSource src(alu());
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(5000, 1.0);
    core.resetCounters();
    core.run(1000, 1.0);
    const CoreCounters &c = core.counters();
    EXPECT_EQ(c.cycles, 1000u);
    // Ops fetched before the counter reset may dispatch after it, so
    // allow slack of one fetch-queue depth.
    EXPECT_GE(c.fetched + 32, c.dispatched);
    EXPECT_GE(c.dispatched + 32, c.issued);
    EXPECT_GE(c.issued + 32, c.committed);
    uint64_t by_class = 0;
    for (uint64_t v : c.issuedByClass)
        by_class += v;
    EXPECT_EQ(by_class, c.issued);
}

TEST(Core, FlushPipelineEmptiesWindow)
{
    RepeatSource src(alu(1));
    MemoryHierarchy mem;
    Core core(CoreConfig{}, &src, &mem);
    core.run(20000, 1.0); // warm
    EXPECT_GT(core.robOccupancy(), 0u);
    core.flushPipeline();
    EXPECT_EQ(core.robOccupancy(), 0u);
    // And the core keeps running correctly afterwards.
    core.resetCounters();
    core.run(500, 1.0);
    EXPECT_GT(core.counters().ipc(), 0.5);
}

TEST(Core, NullSourceIsFatal)
{
    MemoryHierarchy mem;
    EXPECT_EXIT(Core core(CoreConfig{}, nullptr, &mem),
                testing::ExitedWithCode(1), "instruction source");
}

// --- Idle-cycle fast-forward: run() must equal cycle() ticking ---------

/**
 * Every op sits on its own 4 KB page of a @p pages-page code footprint,
 * so every fetch group misses the L1I (and the L2 too when the footprint
 * exceeds it); every third op is a branch with a scrambled outcome, so
 * mispredict redirects resolve inside I-miss stalls.
 */
class FarCodeSource : public InstructionSource
{
  public:
    explicit FarCodeSource(uint64_t pages) : pages_(pages) {}

    MicroOp
    next() override
    {
        MicroOp op;
        if (idx_ % 3 == 2) {
            op.cls = OpClass::Branch;
            op.taken = ((idx_ * 2654435761u) >> 7) & 1;
        }
        op.pc = 0x400000 + (idx_ % pages_) * 4096;
        ++idx_;
        return op;
    }

  private:
    uint64_t pages_;
    uint64_t idx_ = 0;
};

/** Tick @p n cycles one cycle() at a time: the per-cycle reference. */
void
tick(Core &core, uint64_t n, double freq)
{
    for (uint64_t i = 0; i < n; ++i)
        core.cycle(freq);
}

TEST(CoreFastForward, SplitInsideMemoryStallEqualsOneRun)
{
    const auto ops = missingLoadChain();
    LoopSource probe_src(ops), split_src(ops), whole_src(ops);
    MemoryHierarchy probe_mem, split_mem, whole_mem;
    Core probe(CoreConfig{}, &probe_src, &probe_mem);
    Core split(CoreConfig{}, &split_src, &split_mem);
    Core whole(CoreConfig{}, &whole_src, &whole_mem);

    // Find a cycle 10 cycles deep into a run of idle cycles.
    probe.run(1000, 2.0);
    unsigned idle_streak = 0;
    while (idle_streak < 10 && probe.counters().cycles < 20000) {
        const uint64_t skipped = probe.skippedCycles();
        probe.run(1, 2.0);
        idle_streak = probe.skippedCycles() > skipped ? idle_streak + 1 : 0;
    }
    ASSERT_EQ(idle_streak, 10u) << "no long memory stall found";
    const uint64_t at = probe.counters().cycles;
    // ...and the stall is still going on after the split point.
    const uint64_t skipped = probe.skippedCycles();
    probe.run(1, 2.0);
    ASSERT_GT(probe.skippedCycles(), skipped);

    split.run(at, 2.0);
    split.run(5000, 2.0);
    whole.run(at + 5000, 2.0);
    EXPECT_EQ(counterDiff(split.counters(), whole.counters()), "");
    EXPECT_EQ(split.skippedCycles(), whole.skippedCycles());
    EXPECT_EQ(split.robOccupancy(), whole.robOccupancy());
    EXPECT_GT(whole.skippedCycles(), whole.counters().cycles / 2);
}

TEST(CoreFastForward, RunZeroIsANoOp)
{
    const auto ops = missingLoadChain();
    LoopSource src(ops), twin_src(ops);
    MemoryHierarchy mem, twin_mem;
    Core core(CoreConfig{}, &src, &mem);
    Core twin(CoreConfig{}, &twin_src, &twin_mem);
    core.run(777, 2.0);
    twin.run(777, 2.0);

    const CoreCounters before = core.counters();
    const uint64_t skipped = core.skippedCycles();
    core.run(0, 2.0);
    EXPECT_EQ(counterDiff(core.counters(), before), "");
    EXPECT_EQ(core.skippedCycles(), skipped);
    EXPECT_EQ(core.robOccupancy(), twin.robOccupancy());

    core.run(3000, 2.0);
    twin.run(3000, 2.0);
    EXPECT_EQ(counterDiff(core.counters(), twin.counters()), "");
}

TEST(CoreFastForward, PendingRobShrinkCompletesOnTheTickedCycle)
{
    // An I-miss-bound core idles with a near-empty ROB, so a shrink
    // requested between runs can complete on a cycle that is otherwise
    // idle; run() must not skip past it.
    const uint64_t pages = uint64_t{1} << 20; // misses to memory
    FarCodeSource probe_src(pages), ticked_src(pages), fast_src(pages);
    MemoryHierarchy probe_mem, ticked_mem, fast_mem;
    Core probe(CoreConfig{}, &probe_src, &probe_mem);
    Core ticked(CoreConfig{}, &ticked_src, &ticked_mem);
    Core fast(CoreConfig{}, &fast_src, &fast_mem);
    // Find an idle cycle: one the probe skips.
    probe.run(5000, 1.3);
    uint64_t skipped = 0;
    do {
        skipped = probe.skippedCycles();
        probe.run(1, 1.3);
    } while (probe.skippedCycles() == skipped &&
             probe.counters().cycles < 20000);
    ASSERT_GT(probe.skippedCycles(), skipped) << "no idle cycle found";
    const uint64_t at = probe.counters().cycles - 1;
    tick(ticked, at, 1.3);
    fast.run(at, 1.3);
    ASSERT_LE(fast.robOccupancy(), 16u);

    ticked.setRobSize(16);
    fast.setRobSize(16);
    uint64_t ticks = 0;
    while (ticked.robSizeActive() != 16 && ticks < 10000) {
        ticked.cycle(1.3);
        ++ticks;
    }
    ASSERT_EQ(ticked.robSizeActive(), 16u);
    ASSERT_GE(ticks, 1u);
    fast.run(ticks - 1, 1.3);
    EXPECT_EQ(fast.robSizeActive(), 128u);
    fast.run(1, 1.3);
    EXPECT_EQ(fast.robSizeActive(), 16u);

    tick(ticked, 4000, 1.3);
    fast.run(4000, 1.3);
    EXPECT_EQ(counterDiff(fast.counters(), ticked.counters()), "");
}

TEST(CoreFastForward, MispredictRedirectOverlappingIMissMatchesTicked)
{
    FarCodeSource ticked_src(48), fast_src(48); // L2-resident code
    MemoryHierarchy ticked_mem, fast_mem;
    Core ticked(CoreConfig{}, &ticked_src, &ticked_mem);
    Core fast(CoreConfig{}, &fast_src, &fast_mem);
    const uint64_t chunks[] = {1, 3, 50, 7, 2000, 2, 333};
    for (int rep = 0; rep < 40; ++rep) {
        for (uint64_t k : chunks) {
            tick(ticked, k, 2.0);
            fast.run(k, 2.0);
            ASSERT_EQ(counterDiff(fast.counters(), ticked.counters()), "")
                << "after run(" << k << ")";
        }
    }
    EXPECT_GT(fast.counters().branchMispredicts, 100u);
    EXPECT_GT(fast.counters().l1iMisses, 100u);
    EXPECT_GT(fast.skippedCycles(), fast.counters().cycles / 2);
}

TEST(CoreFastForward, LsqFullStallAccruesWhileSkipping)
{
    // Independent missing loads behind a 2-entry load queue: the front
    // op is a ready load, the ROB has room, and the LSQ is full through
    // every memory wait.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        MicroOp ld;
        ld.cls = OpClass::Load;
        ld.addr = static_cast<uint64_t>(i) * 1024 * 1024;
        ops.push_back(ld);
        ops.push_back(alu());
    }
    CoreConfig cfg;
    cfg.loadQueueSize = 2;
    LoopSource ticked_src(ops), fast_src(ops);
    MemoryHierarchy ticked_mem, fast_mem;
    Core ticked(cfg, &ticked_src, &ticked_mem);
    Core fast(cfg, &fast_src, &fast_mem);
    tick(ticked, 20000, 2.0);
    fast.run(20000, 2.0);
    EXPECT_EQ(counterDiff(fast.counters(), ticked.counters()), "");
    EXPECT_EQ(fast.counters().robFullStallCycles, 0u);
    EXPECT_GT(fast.skippedCycles(), 10000u);
    // Nearly every skipped cycle is an LSQ-full stall cycle.
    EXPECT_GT(fast.counters().lsqFullStallCycles, fast.skippedCycles());
}

} // namespace
} // namespace mimoarch
