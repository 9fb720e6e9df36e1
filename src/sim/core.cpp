#include "sim/core.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace mimoarch {

Core::Core(const CoreConfig &config, InstructionSource *source,
           MemoryHierarchy *mem)
    : config_(config), source_(source), mem_(mem), bpred_(config.bpred),
      robSizeActive_(config.robSizeMax), robSizeTarget_(config.robSizeMax)
{
    if (!source_ || !mem_)
        fatal("Core needs an instruction source and a memory hierarchy");
    if (config_.robSizeMax == 0 || config_.issueWidth == 0)
        fatal("Core config: zero ROB size or issue width");
    rob_.reset(config_.robSizeMax);
    // fetchStage checks the cap before a fetch group, then pushes up to
    // fetchWidth ops, so the queue can exceed the cap by one group.
    fetchQueue_.reset(size_t{2} * config_.fetchWidth * config_.frontendDepth +
                      config_.fetchWidth);
}

unsigned
Core::execLatency(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Store:
        return 1;
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
      case OpClass::Load:
        panic("load latency comes from the memory hierarchy");
    }
    panic("unknown op class");
}

uint64_t
Core::producerReadyCycle(uint64_t producer_seq) const
{
    if (producer_seq == 0 || producer_seq < robHeadSeq_)
        return 0; // no dependency, or already committed
    const size_t idx = producer_seq - robHeadSeq_;
    if (idx >= rob_.size())
        return 0; // defensive: outside the window
    const RobEntry &e = rob_[idx];
    return e.issued ? e.readyCycle : UINT64_MAX;
}

bool
Core::producerDone(uint64_t producer_seq) const
{
    return producerReadyCycle(producer_seq) <= now_;
}

bool
Core::lsqFull(OpClass cls) const
{
    return (cls == OpClass::Load &&
            loadsInFlight_ >= config_.loadQueueSize) ||
        (cls == OpClass::Store && storesInFlight_ >= config_.storeQueueSize);
}

size_t
Core::fetchQueueCap() const
{
    return size_t{2} * config_.fetchWidth * config_.frontendDepth;
}

void
Core::setRobSize(unsigned entries)
{
    if (entries < 16 || entries > config_.robSizeMax)
        fatal("ROB size ", entries, " outside [16, ", config_.robSizeMax,
              "]");
    robSizeTarget_ = entries;
    if (robSizeTarget_ >= robSizeActive_) {
        // Power partitions back on: effective immediately.
        robSizeActive_ = robSizeTarget_;
    }
    // Shrinking takes effect in dispatchStage once occupancy allows.
}

void
Core::flushPipeline()
{
    fetchQueue_.clear();
    robHeadSeq_ += rob_.size();
    rob_.clear();
    issuedPrefix_ = 0;
    loadsInFlight_ = 0;
    storesInFlight_ = 0;
    pendingBranchSeq_ = 0;
    fetchBlockedUntil_ = now_;
}

void
Core::commitStage()
{
    unsigned committed = 0;
    while (!rob_.empty() && committed < config_.commitWidth) {
        RobEntry &head = rob_.front();
        if (!head.issued || head.readyCycle > now_)
            break;
        if (head.op.cls == OpClass::Load) {
            if (loadsInFlight_ > 0)
                --loadsInFlight_;
        } else if (head.op.cls == OpClass::Store) {
            if (storesInFlight_ > 0)
                --storesInFlight_;
        }
        rob_.pop_front();
        ++robHeadSeq_;
        if (issuedPrefix_ > 0)
            --issuedPrefix_;
        ++counters_.committed;
        ++committed;
    }
}

void
Core::issueStage(double freq_ghz)
{
    unsigned issued = 0;
    unsigned alu = 0, muldiv = 0, fp = 0, ld = 0, st = 0;
    // Skip the already-issued prefix. Issued entries carry no per-cycle
    // side effects in this loop (the port counters only count ops newly
    // issued this cycle), so starting past them is behaviour-preserving.
    while (issuedPrefix_ < rob_.size() && rob_[issuedPrefix_].issued)
        ++issuedPrefix_;
    const size_t rob_size = rob_.size();
    for (size_t idx = issuedPrefix_; idx < rob_size; ++idx) {
        RobEntry &e = rob_[idx];
        if (issued >= config_.issueWidth)
            break;
        if (e.issued)
            continue;
        // Port availability for this op class.
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
        if (!producerDone(e.producerSeq0) || !producerDone(e.producerSeq1))
            continue;

        // Issue.
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
            ++counters_.l1dAccesses;
            if (!r.l1Hit) {
                ++counters_.l1dMisses;
                ++counters_.l2Accesses;
                if (!r.l2Hit) {
                    ++counters_.l2Misses;
                    ++counters_.memAccesses;
                }
            }
            e.readyCycle = now_ + r.latencyCycles;
            break;
          }
          case OpClass::Store: {
            ++st;
            const MemAccessResult r =
                mem_->accessData(e.op.addr, true, freq_ghz);
            ++counters_.l1dAccesses;
            if (!r.l1Hit) {
                ++counters_.l1dMisses;
                ++counters_.l2Accesses;
                if (!r.l2Hit) {
                    ++counters_.l2Misses;
                    ++counters_.memAccesses;
                }
            }
            // The store buffer hides the write latency from the pipeline.
            e.readyCycle = now_ + 1;
            break;
          }
        }

        // A mispredicted branch redirects fetch when it resolves.
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
Core::dispatchStage()
{
    // Complete a pending ROB shrink once occupancy allows.
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
        if (lsqFull(f.op.cls)) {
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
Core::fetchStage()
{
    if (now_ < fetchBlockedUntil_ || pendingBranchSeq_ != 0 ||
        fetchQueue_.size() >= fetchQueueCap()) {
        ++counters_.fetchStallCycles;
        return;
    }

    bool accessed_icache = false;
    for (unsigned i = 0; i < config_.fetchWidth; ++i) {
        MicroOp op = source_->next();
        if (!accessed_icache) {
            const MemAccessResult r = mem_->accessInstr(op.pc, curFreqGhz_);
            ++counters_.l1iAccesses;
            if (!r.l1Hit) {
                ++counters_.l1iMisses;
                ++counters_.l2Accesses;
                if (!r.l2Hit) {
                    ++counters_.l2Misses;
                    ++counters_.memAccesses;
                }
                // The miss delays subsequent fetch groups; the next-line
                // prefetcher hides the sequential follow-on misses.
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
            const bool correct = bpred_.predictAndUpdate(op.pc, op.taken);
            if (!correct) {
                ++counters_.branchMispredicts;
                f.mispredicted = true;
                pendingBranchSeq_ = f.seq;
            }
        }
        ++counters_.fetched;
        fetchQueue_.push_back(f);
        if (f.mispredicted)
            break; // stop fetching past the mispredicted branch
    }
}

void
Core::cycle(double freq_ghz)
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

uint64_t
Core::nextEventCycle()
{
    // The checks mirror the stages' own guards, cheapest first. Every
    // time-dependent guard is a comparison of now_ against a cycle
    // stamp, so until the earliest stamp still ahead nothing can act.
    uint64_t t = UINT64_MAX;

    // Fetch. Only the I-miss/redirect stall ends by itself; a pending
    // mispredict or a full fetch queue waits for issue or dispatch.
    if (pendingBranchSeq_ == 0 && fetchQueue_.size() < fetchQueueCap()) {
        if (now_ >= fetchBlockedUntil_)
            return now_;
        t = fetchBlockedUntil_;
    }

    // Commit.
    if (!rob_.empty() && rob_.front().issued) {
        if (rob_.front().readyCycle <= now_)
            return now_;
        t = std::min(t, rob_.front().readyCycle);
    }

    // Dispatch: a pending shrink that can complete, or a ready front op
    // with room for it. The front op's readiness counts even when it
    // cannot dispatch, because it decides which stall counter ticks.
    if (robSizeTarget_ < robSizeActive_ && rob_.size() <= robSizeTarget_)
        return now_;
    if (!fetchQueue_.empty()) {
        const FetchedOp &f = fetchQueue_.front();
        if (f.readyAtCycle > now_)
            t = std::min(t, f.readyAtCycle);
        else if (rob_.size() < robSizeActive_ && !lsqFull(f.op.cls))
            return now_;
    }

    // Issue: an unissued entry wakes when its last producer's result is
    // available; an unissued producer defers that to its own issue.
    while (issuedPrefix_ < rob_.size() && rob_[issuedPrefix_].issued)
        ++issuedPrefix_;
    const size_t rob_size = rob_.size();
    for (size_t idx = issuedPrefix_; idx < rob_size; ++idx) {
        const RobEntry &e = rob_[idx];
        if (e.issued)
            continue;
        const uint64_t wake =
            std::max(producerReadyCycle(e.producerSeq0),
                     producerReadyCycle(e.producerSeq1));
        if (wake <= now_)
            return now_;
        t = std::min(t, wake);
    }
    return t;
}

void
Core::skipTo(uint64_t t)
{
    // The idle cycles are exactly cycle() with every stage stalled:
    // fetch counts a stall, and dispatch flags ROB-full, else LSQ-full,
    // when the front op is ready (nextEventCycle() returned now_ if it
    // could have dispatched).
    const uint64_t k = t - now_;
    counters_.cycles += k;
    counters_.robOccupancySum += k * rob_.size();
    counters_.fetchStallCycles += k;
    if (!fetchQueue_.empty() && fetchQueue_.front().readyAtCycle <= now_) {
        if (rob_.size() >= robSizeActive_)
            counters_.robFullStallCycles += k;
        else
            counters_.lsqFullStallCycles += k;
    }
    skippedCycles_ += k;
    now_ = t;
}

void
Core::run(uint64_t n, double freq_ghz)
{
    // Knob, DVFS and L2-mask changes happen between run() calls, so no
    // skip crosses one; skips are clipped to this call's last cycle.
    const uint64_t end = now_ + n;
    while (now_ < end) {
        const uint64_t t = std::min(nextEventCycle(), end);
        if (t > now_) {
            skipTo(t);
            if (t == end)
                break;
        }
        cycle(freq_ghz);
    }
}

} // namespace mimoarch
