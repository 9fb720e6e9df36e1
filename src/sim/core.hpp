/**
 * @file
 * Out-of-order core model.
 *
 * The pipeline is a window-dataflow model in the ESESC tradition: fetch
 * (with I-cache and branch predictor), a fetch-to-dispatch delay, rename/
 * dispatch into a ROB ring buffer and load/store queues, dataflow issue
 * limited by functional-unit ports and the issue width, and in-order
 * commit. Dependencies are expressed as producer distances in the dynamic
 * stream, so any InstructionSource can drive the core.
 *
 * run() is event-driven: a cycle in which no stage can change state
 * (fetch stalled, nothing ready to dispatch, commit or issue) is not
 * ticked. run() jumps to the next cycle at which something can act and
 * accrues the skipped cycles' counters arithmetically, so every counter
 * equals what ticking each cycle through cycle() produces (DESIGN.md §9,
 * "Idle-cycle fast-forward").
 *
 * Configurable knobs (the paper's inputs): ROB size (power-gated in
 * 16-entry partitions per Ponomarev et al. [37]) and, via the memory
 * hierarchy it is attached to, cache associativity; frequency lives in
 * the Processor wrapper.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/bpred.hpp"
#include "sim/instruction.hpp"
#include "sim/memhier.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/stats.hpp"

namespace mimoarch {

/** Static core parameters (Table III: 3-issue out of order). */
struct CoreConfig
{
    unsigned fetchWidth = 3;
    unsigned issueWidth = 3;
    unsigned commitWidth = 3;
    unsigned robSizeMax = 128;
    unsigned loadQueueSize = 32;
    unsigned storeQueueSize = 16;
    unsigned frontendDepth = 4;          //!< Fetch-to-dispatch cycles.
    unsigned mispredictRedirectCycles = 5;

    // Functional unit ports.
    unsigned aluPorts = 2;
    unsigned mulDivPorts = 1;
    unsigned fpPorts = 2;
    unsigned loadPorts = 1;
    unsigned storePorts = 1;

    // Execute latencies (cycles).
    unsigned intMulLatency = 4;
    unsigned intDivLatency = 12;
    unsigned fpAluLatency = 4;
    unsigned fpMulLatency = 5;
    unsigned fpDivLatency = 15;

    BranchPredictorConfig bpred{};
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param config static parameters.
     * @param source dynamic micro-op stream (not owned).
     * @param mem memory hierarchy (not owned, shared with Processor).
     */
    Core(const CoreConfig &config, InstructionSource *source,
         MemoryHierarchy *mem);

    /** Advance one cycle at the given core frequency. */
    void cycle(double freq_ghz);

    /**
     * Advance @p n cycles. Idle cycles are fast-forwarded; the result is
     * bit-identical to calling cycle() @p n times.
     */
    void run(uint64_t n, double freq_ghz);

    /**
     * Request a new active ROB size (16..robSizeMax). The resize takes
     * effect once the ROB drains (dispatch pauses), modelling partition
     * power gating.
     */
    void setRobSize(unsigned entries);

    unsigned robSize() const { return robSizeTarget_; }
    /** ROB size in force now (lags robSize() while a shrink drains). */
    unsigned robSizeActive() const { return robSizeActive_; }
    unsigned robOccupancy() const { return static_cast<unsigned>(rob_.size()); }

    const CoreCounters &counters() const { return counters_; }
    const CoreConfig &config() const { return config_; }
    const BranchPredictor &branchPredictor() const { return bpred_; }

    /** Flush in-flight state (not predictor/caches); keeps counters. */
    void flushPipeline();

    /**
     * Cycles run() fast-forwarded instead of ticking (a subset of
     * counters().cycles). Observe-only: kept out of CoreCounters so the
     * power model and the epoch readout never see it.
     */
    uint64_t skippedCycles() const { return skippedCycles_; }

    /** Zero the activity counters (e.g. after a warmup run). */
    void
    resetCounters()
    {
        counters_ = CoreCounters{};
        skippedCycles_ = 0;
    }

  private:
    struct RobEntry
    {
        MicroOp op;
        uint64_t seq = 0;
        uint64_t readyCycle = UINT64_MAX; //!< Result-available cycle.
        uint64_t producerSeq0 = 0;        //!< 0 = none.
        uint64_t producerSeq1 = 0;
        bool issued = false;
        bool mispredicted = false;
    };

    struct FetchedOp
    {
        MicroOp op;
        uint64_t seq;
        uint64_t readyAtCycle; //!< When it may dispatch.
        bool mispredicted;
    };

    void fetchStage();
    void dispatchStage();
    void issueStage(double freq_ghz);
    void commitStage();

    /**
     * Earliest cycle >= now_ at which a stage can act, or at which a
     * per-cycle stall counter can change regime; now_ if this cycle can
     * act. Never later than the true next event (it may be earlier).
     */
    uint64_t nextEventCycle();
    /** Jump now_ to @p t > now_, accruing the idle cycles' counters. */
    void skipTo(uint64_t t);

    bool producerDone(uint64_t producer_seq) const;
    /** Cycle at which producerDone() turns true; UINT64_MAX while the
     *  producer is unissued. */
    uint64_t producerReadyCycle(uint64_t producer_seq) const;
    bool lsqFull(OpClass cls) const;
    size_t fetchQueueCap() const;
    unsigned execLatency(OpClass cls) const;

    CoreConfig config_;
    InstructionSource *source_;
    MemoryHierarchy *mem_;
    BranchPredictor bpred_;

    uint64_t now_ = 0;
    uint64_t nextSeq_ = 1;

    RingBuffer<FetchedOp> fetchQueue_;
    RingBuffer<RobEntry> rob_; //!< Head at front; seq increases to back.
    uint64_t robHeadSeq_ = 1;  //!< seq of rob_.front() when non-empty.

    /**
     * Number of leading ROB entries known to be issued. Entries only
     * gain `issued` (monotone per entry) and leave from the front, so
     * issueStage can start its wakeup scan here instead of re-walking
     * the issued prefix every cycle. Maintained by commitStage (pops)
     * and flushPipeline (reset).
     */
    size_t issuedPrefix_ = 0;

    unsigned loadsInFlight_ = 0;
    unsigned storesInFlight_ = 0;

    unsigned robSizeActive_;
    unsigned robSizeTarget_;

    uint64_t fetchBlockedUntil_ = 0;       //!< I-miss / redirect stall.
    uint64_t pendingBranchSeq_ = 0;        //!< Mispredict fetch barrier.
    double curFreqGhz_ = 1.0;

    CoreCounters counters_;
    uint64_t skippedCycles_ = 0;
};

} // namespace mimoarch
