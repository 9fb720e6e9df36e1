/**
 * @file
 * Differential test for the idle-cycle fast-forward in Core::run(): a
 * test-only ReferenceCore, the pipeline as it was before fast-forward
 * (every cycle ticked through all four stages), replays the same seeded
 * fuzzed micro-op streams as the production Core. After every run(k)
 * call, with k drawn from {1, 2, 7, 50, 2000}, the full CoreCounters,
 * the ROB state and the cache statistics must agree. ROB resizes, cache
 * way gating, L2 partition masks, frequency changes and pipeline flushes
 * are interleaved between calls, as Processor does between epochs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>

#include "core_counters_diff.hpp"
#include "sim/core.hpp"

namespace mimoarch {
namespace {

/** Scan-every-cycle core: Core as it was before run() fast-forwarded. */
class ReferenceCore
{
  public:
    ReferenceCore(const CoreConfig &config, InstructionSource *source,
                  MemoryHierarchy *mem)
        : config_(config), source_(source), mem_(mem), bpred_(config.bpred),
          robSizeActive_(config.robSizeMax), robSizeTarget_(config.robSizeMax)
    {
        rob_.reset(config_.robSizeMax);
        fetchQueue_.reset(size_t{2} * config_.fetchWidth *
                              config_.frontendDepth +
                          config_.fetchWidth);
    }

    void
    run(uint64_t n, double freq_ghz)
    {
        for (uint64_t i = 0; i < n; ++i)
            cycle(freq_ghz);
    }

    void
    setRobSize(unsigned entries)
    {
        robSizeTarget_ = entries;
        if (robSizeTarget_ >= robSizeActive_)
            robSizeActive_ = robSizeTarget_;
    }

    void
    flushPipeline()
    {
        fetchQueue_.clear();
        robHeadSeq_ += rob_.size();
        rob_.clear();
        loadsInFlight_ = 0;
        storesInFlight_ = 0;
        pendingBranchSeq_ = 0;
        fetchBlockedUntil_ = now_;
    }

    unsigned robSizeActive() const { return robSizeActive_; }
    unsigned robOccupancy() const { return static_cast<unsigned>(rob_.size()); }
    const CoreCounters &counters() const { return counters_; }

  private:
    struct RobEntry
    {
        MicroOp op;
        uint64_t seq = 0;
        uint64_t readyCycle = UINT64_MAX;
        uint64_t producerSeq0 = 0;
        uint64_t producerSeq1 = 0;
        bool issued = false;
        bool mispredicted = false;
    };

    struct FetchedOp
    {
        MicroOp op;
        uint64_t seq;
        uint64_t readyAtCycle;
        bool mispredicted;
    };

    void
    cycle(double freq_ghz)
    {
        curFreqGhz_ = freq_ghz;
        commitStage();
        issueStage(freq_ghz);
        dispatchStage();
        fetchStage();
        counters_.robOccupancySum += rob_.size();
        ++counters_.cycles;
        ++now_;
    }

    unsigned
    execLatency(OpClass cls) const
    {
        switch (cls) {
          case OpClass::IntMul:
            return config_.intMulLatency;
          case OpClass::IntDiv:
            return config_.intDivLatency;
          case OpClass::FpAlu:
            return config_.fpAluLatency;
          case OpClass::FpMul:
            return config_.fpMulLatency;
          case OpClass::FpDiv:
            return config_.fpDivLatency;
          default:
            return 1;
        }
    }

    bool
    producerDone(uint64_t producer_seq) const
    {
        if (producer_seq == 0 || producer_seq < robHeadSeq_)
            return true;
        const size_t idx = producer_seq - robHeadSeq_;
        if (idx >= rob_.size())
            return true;
        const RobEntry &e = rob_[idx];
        return e.issued && e.readyCycle <= now_;
    }

    void
    countDataAccess(const MemAccessResult &r)
    {
        ++counters_.l1dAccesses;
        if (!r.l1Hit) {
            ++counters_.l1dMisses;
            ++counters_.l2Accesses;
            if (!r.l2Hit) {
                ++counters_.l2Misses;
                ++counters_.memAccesses;
            }
        }
    }

    void
    commitStage()
    {
        unsigned committed = 0;
        while (!rob_.empty() && committed < config_.commitWidth) {
            RobEntry &head = rob_.front();
            if (!head.issued || head.readyCycle > now_)
                break;
            if (head.op.cls == OpClass::Load && loadsInFlight_ > 0)
                --loadsInFlight_;
            else if (head.op.cls == OpClass::Store && storesInFlight_ > 0)
                --storesInFlight_;
            rob_.pop_front();
            ++robHeadSeq_;
            ++counters_.committed;
            ++committed;
        }
    }

    void
    issueStage(double freq_ghz)
    {
        unsigned issued = 0;
        unsigned alu = 0, muldiv = 0, fp = 0, ld = 0, st = 0;
        for (size_t idx = 0; idx < rob_.size(); ++idx) {
            RobEntry &e = rob_[idx];
            if (issued >= config_.issueWidth)
                break;
            if (e.issued)
                continue;
            bool port_free = false;
            switch (e.op.cls) {
              case OpClass::IntAlu:
              case OpClass::Branch:
                port_free = alu < config_.aluPorts;
                break;
              case OpClass::IntMul:
              case OpClass::IntDiv:
                port_free = muldiv < config_.mulDivPorts;
                break;
              case OpClass::FpAlu:
              case OpClass::FpMul:
              case OpClass::FpDiv:
                port_free = fp < config_.fpPorts;
                break;
              case OpClass::Load:
                port_free = ld < config_.loadPorts;
                break;
              case OpClass::Store:
                port_free = st < config_.storePorts;
                break;
            }
            if (!port_free)
                continue;
            if (!producerDone(e.producerSeq0) ||
                !producerDone(e.producerSeq1))
                continue;

            e.issued = true;
            ++issued;
            ++counters_.issued;
            ++counters_.issuedByClass[static_cast<size_t>(e.op.cls)];
            switch (e.op.cls) {
              case OpClass::IntAlu:
              case OpClass::Branch:
                ++alu;
                e.readyCycle = now_ + execLatency(e.op.cls);
                break;
              case OpClass::IntMul:
              case OpClass::IntDiv:
                ++muldiv;
                e.readyCycle = now_ + execLatency(e.op.cls);
                break;
              case OpClass::FpAlu:
              case OpClass::FpMul:
              case OpClass::FpDiv:
                ++fp;
                e.readyCycle = now_ + execLatency(e.op.cls);
                break;
              case OpClass::Load: {
                ++ld;
                const MemAccessResult r =
                    mem_->accessData(e.op.addr, false, freq_ghz);
                countDataAccess(r);
                e.readyCycle = now_ + r.latencyCycles;
                break;
              }
              case OpClass::Store: {
                ++st;
                countDataAccess(mem_->accessData(e.op.addr, true, freq_ghz));
                e.readyCycle = now_ + 1;
                break;
              }
            }
            if (e.mispredicted) {
                fetchBlockedUntil_ = std::max(
                    fetchBlockedUntil_,
                    e.readyCycle + config_.mispredictRedirectCycles);
                if (pendingBranchSeq_ == e.seq)
                    pendingBranchSeq_ = 0;
            }
        }
    }

    void
    dispatchStage()
    {
        if (robSizeTarget_ < robSizeActive_ && rob_.size() <= robSizeTarget_)
            robSizeActive_ = robSizeTarget_;

        unsigned dispatched = 0;
        bool rob_full = false, lsq_full = false;
        while (dispatched < config_.issueWidth && !fetchQueue_.empty()) {
            FetchedOp &f = fetchQueue_.front();
            if (f.readyAtCycle > now_)
                break;
            if (rob_.size() >= robSizeActive_) {
                rob_full = true;
                break;
            }
            if (f.op.cls == OpClass::Load &&
                loadsInFlight_ >= config_.loadQueueSize) {
                lsq_full = true;
                break;
            }
            if (f.op.cls == OpClass::Store &&
                storesInFlight_ >= config_.storeQueueSize) {
                lsq_full = true;
                break;
            }
            RobEntry e;
            e.op = f.op;
            e.seq = f.seq;
            e.mispredicted = f.mispredicted;
            if (f.op.srcDist0 != 0 && f.op.srcDist0 < f.seq)
                e.producerSeq0 = f.seq - f.op.srcDist0;
            if (f.op.srcDist1 != 0 && f.op.srcDist1 < f.seq)
                e.producerSeq1 = f.seq - f.op.srcDist1;
            if (f.op.cls == OpClass::Load)
                ++loadsInFlight_;
            else if (f.op.cls == OpClass::Store)
                ++storesInFlight_;
            rob_.push_back(e);
            fetchQueue_.pop_front();
            ++dispatched;
            ++counters_.dispatched;
        }
        if (rob_full)
            ++counters_.robFullStallCycles;
        if (lsq_full)
            ++counters_.lsqFullStallCycles;
    }

    void
    fetchStage()
    {
        const size_t fetch_queue_cap =
            size_t{2} * config_.fetchWidth * config_.frontendDepth;
        if (now_ < fetchBlockedUntil_ || pendingBranchSeq_ != 0 ||
            fetchQueue_.size() >= fetch_queue_cap) {
            ++counters_.fetchStallCycles;
            return;
        }
        bool accessed_icache = false;
        for (unsigned i = 0; i < config_.fetchWidth; ++i) {
            MicroOp op = source_->next();
            if (!accessed_icache) {
                const MemAccessResult r =
                    mem_->accessInstr(op.pc, curFreqGhz_);
                ++counters_.l1iAccesses;
                if (!r.l1Hit) {
                    ++counters_.l1iMisses;
                    ++counters_.l2Accesses;
                    if (!r.l2Hit) {
                        ++counters_.l2Misses;
                        ++counters_.memAccesses;
                    }
                    fetchBlockedUntil_ = now_ + r.latencyCycles;
                    mem_->prefetchInstrLine(op.pc + 64);
                    mem_->prefetchInstrLine(op.pc + 128);
                }
                accessed_icache = true;
            }
            FetchedOp f;
            f.op = op;
            f.seq = nextSeq_++;
            f.readyAtCycle = now_ + config_.frontendDepth;
            f.mispredicted = false;
            if (op.cls == OpClass::Branch) {
                ++counters_.branchLookups;
                if (!bpred_.predictAndUpdate(op.pc, op.taken)) {
                    ++counters_.branchMispredicts;
                    f.mispredicted = true;
                    pendingBranchSeq_ = f.seq;
                }
            }
            ++counters_.fetched;
            fetchQueue_.push_back(f);
            if (f.mispredicted)
                break;
        }
    }

    CoreConfig config_;
    InstructionSource *source_;
    MemoryHierarchy *mem_;
    BranchPredictor bpred_;
    uint64_t now_ = 0;
    uint64_t nextSeq_ = 1;
    RingBuffer<FetchedOp> fetchQueue_;
    RingBuffer<RobEntry> rob_;
    uint64_t robHeadSeq_ = 1;
    unsigned loadsInFlight_ = 0;
    unsigned storesInFlight_ = 0;
    unsigned robSizeActive_;
    unsigned robSizeTarget_;
    uint64_t fetchBlockedUntil_ = 0;
    uint64_t pendingBranchSeq_ = 0;
    double curFreqGhz_ = 1.0;
    CoreCounters counters_;
};

/**
 * Seeded random micro-op stream. Each seed draws its own op-class mix,
 * dependency-distance profile, data footprint (hot set, L2-sized set,
 * and a memory-bound region for long-latency loads), branch bias and
 * code footprint (far jumps cause I-cache misses).
 */
class FuzzSource : public InstructionSource
{
  public:
    explicit FuzzSource(uint64_t seed) : rng_(seed)
    {
        // Every third seed is compute-bound: L1-resident code and data,
        // few long-latency divides.
        const bool compute_bound = seed % 3 == 0;
        for (double &w : classWeight_)
            w = unit();
        // Keep ALU work and memory traffic present in every mix.
        classWeight_[static_cast<size_t>(OpClass::IntAlu)] += 1.0;
        classWeight_[static_cast<size_t>(OpClass::Load)] += 0.5;
        if (compute_bound) {
            classWeight_[static_cast<size_t>(OpClass::IntDiv)] *= 0.05;
            classWeight_[static_cast<size_t>(OpClass::FpDiv)] *= 0.05;
        }
        classDist_ = std::discrete_distribution<size_t>(classWeight_.begin(),
                                                        classWeight_.end());
        depProb_ = unit();
        const double u = unit();
        farMissProb_ = compute_bound ? 0.0 : 0.2 * u * u;
        l2SetProb_ = compute_bound ? 0.0 : 0.2;
        jumpProb_ = 0.02 * unit();
        farJumpProb_ = compute_bound ? 0.0 : 0.2 * unit();
        const uint64_t code_kb[] = {16, 128, 1024};
        codeBytes_ = compute_bound ? 16 * 1024 : code_kb[rng_() % 3] * 1024;
        branchRandom_ = unit();
    }

    MicroOp
    next() override
    {
        MicroOp op;
        op.cls = static_cast<OpClass>(classDist_(rng_));
        op.srcDist0 = dependency();
        op.srcDist1 = dependency();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            const double u = unit();
            if (u < farMissProb_) // 64 MB region: misses to memory
                op.addr = (rng_() % (uint64_t{1} << 26)) & ~uint64_t{7};
            else if (u < farMissProb_ + l2SetProb_) // ~L2-sized set
                op.addr = 0x10000000 + (rng_() % (192 * 1024));
            else // hot L1 set
                op.addr = 0x20000000 + (rng_() % 4096);
        }
        // Code loops over a per-seed footprint; rare far jumps leave it
        // and miss to memory.
        if (unit() < jumpProb_) {
            const uint64_t span = unit() < farJumpProb_ ? uint64_t{1} << 26
                                                        : codeBytes_;
            pcOffset_ = rng_() % span & ~uint64_t{3};
        } else {
            pcOffset_ = (pcOffset_ + 4) % codeBytes_;
        }
        op.pc = 0x400000 + pcOffset_;
        if (op.cls == OpClass::Branch)
            op.taken = unit() < branchRandom_ ? (rng_() & 1) != 0 : true;
        return op;
    }

  private:
    double unit() { return std::uniform_real_distribution<double>()(rng_); }

    uint16_t
    dependency()
    {
        if (unit() >= depProb_)
            return 0;
        // Mostly near producers, sometimes beyond the ROB.
        if (unit() < 0.9)
            return static_cast<uint16_t>(1 + rng_() % 12);
        return static_cast<uint16_t>(1 + rng_() % 300);
    }

    std::mt19937_64 rng_;
    std::array<double, kNumOpClasses> classWeight_{};
    std::discrete_distribution<size_t> classDist_;
    double depProb_ = 0.0;
    double farMissProb_ = 0.0;
    double l2SetProb_ = 0.0;
    double jumpProb_ = 0.0;
    double farJumpProb_ = 0.0;
    double branchRandom_ = 0.0;
    uint64_t codeBytes_ = 0;
    uint64_t pcOffset_ = 0;
};

/** Per-seed structural variation (queue sizes, widths, depths). */
CoreConfig
fuzzConfig(std::mt19937_64 &rng)
{
    CoreConfig cfg;
    const unsigned lq[] = {32, 32, 8, 2};
    const unsigned sq[] = {16, 16, 4, 1};
    const unsigned depth[] = {4, 1, 7};
    const unsigned width[] = {3, 2, 4};
    cfg.loadQueueSize = lq[rng() % 4];
    cfg.storeQueueSize = sq[rng() % 4];
    cfg.frontendDepth = depth[rng() % 3];
    cfg.fetchWidth = width[rng() % 3];
    cfg.issueWidth = width[rng() % 3];
    cfg.commitWidth = width[rng() % 3];
    return cfg;
}

void
expectCacheStatsEqual(const Cache &a, const Cache &b)
{
    EXPECT_EQ(a.stats().accesses, b.stats().accesses);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().writebacks, b.stats().writebacks);
    EXPECT_EQ(a.stats().gatingFlushes, b.stats().gatingFlushes);
}

struct Coverage
{
    uint64_t cycles = 0;
    uint64_t skipped = 0;
    uint64_t calls = 0;
};

/** Drive both cores through one seeded campaign of @p budget cycles. */
void
runCampaign(uint64_t seed, uint64_t budget, Coverage &cov)
{
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const CoreConfig cfg = fuzzConfig(rng);
    FuzzSource fast_src(seed), ref_src(seed);
    MemoryHierarchy fast_mem, ref_mem;
    Core fast(cfg, &fast_src, &fast_mem);
    ReferenceCore ref(cfg, &ref_src, &ref_mem);

    const uint64_t run_lengths[] = {1, 2, 7, 50, 2000};
    const double freqs[] = {0.8, 1.3, 2.0, 3.0};
    double freq = 1.3;
    while (fast.counters().cycles < budget) {
        switch (rng() % 12) {
          case 0: {
            const unsigned rob = 16 + static_cast<unsigned>(rng() % 113);
            fast.setRobSize(rob);
            ref.setRobSize(rob);
            break;
          }
          case 1: {
            const unsigned setting = static_cast<unsigned>(rng() % 4);
            EXPECT_EQ(fast_mem.setCacheSizeSetting(setting),
                      ref_mem.setCacheSizeSetting(setting));
            break;
          }
          case 2: {
            const uint32_t mask = 1 + static_cast<uint32_t>(rng() % 255);
            EXPECT_EQ(fast_mem.setL2PartitionMask(mask),
                      ref_mem.setL2PartitionMask(mask));
            break;
          }
          case 3:
            freq = freqs[rng() % 4];
            break;
          case 4:
            if (rng() % 8 == 0) {
                fast.flushPipeline();
                ref.flushPipeline();
            }
            break;
          default: {
            const uint64_t k = run_lengths[rng() % 5];
            const uint64_t skipped_before = fast.skippedCycles();
            fast.run(k, freq);
            ref.run(k, freq);
            ++cov.calls;
            cov.skipped += fast.skippedCycles() - skipped_before;
            ASSERT_EQ(counterDiff(fast.counters(), ref.counters()), "")
                << "seed " << seed << " cycle " << fast.counters().cycles
                << " after run(" << k << ")";
            ASSERT_EQ(fast.robOccupancy(), ref.robOccupancy())
                << "seed " << seed << " cycle " << fast.counters().cycles;
            ASSERT_EQ(fast.robSizeActive(), ref.robSizeActive())
                << "seed " << seed << " cycle " << fast.counters().cycles;
            break;
          }
        }
    }
    expectCacheStatsEqual(fast_mem.l1i(), ref_mem.l1i());
    expectCacheStatsEqual(fast_mem.l1d(), ref_mem.l1d());
    expectCacheStatsEqual(fast_mem.l2(), ref_mem.l2());
    EXPECT_LE(fast.skippedCycles(), fast.counters().cycles);
    cov.cycles += fast.counters().cycles;
}

TEST(CoreReferenceTest, FuzzedStreamsMatchScanEveryCycleCore)
{
    Coverage cov;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        runCampaign(seed, 100000, cov);
        if (HasFatalFailure())
            return;
    }
    // The campaigns must cover >= 10^6 cycles and actually fast-forward
    // a good share of them, or the equivalence above proves little.
    EXPECT_GE(cov.cycles, 1000000u);
    EXPECT_GT(cov.skipped, cov.cycles / 10);
    RecordProperty("cycles", static_cast<int>(cov.cycles));
    RecordProperty("skipped", static_cast<int>(cov.skipped));
    RecordProperty("run_calls", static_cast<int>(cov.calls));
}

} // namespace
} // namespace mimoarch
