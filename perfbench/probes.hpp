/**
 * @file
 * Outside-in layer probes for the benchmark: forwarding decorators
 * that time Plant::step() and ArchController::update() and sum the
 * cycle-level sample counters, a log-linear latency histogram, and
 * standalone replays of the layers that have no seam a decorator can
 * reach (the workload stream, the memory hierarchy, and the design
 * flow's identification experiments and fit).
 *
 * The decorators only observe: every call is forwarded unchanged, so a
 * run through them digests bit-identically to a run without them.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controllers.hpp"
#include "core/design_flow.hpp"
#include "core/plant.hpp"
#include "sim/stats.hpp"

namespace perfbench {

/**
 * Latency histogram with 32 linear sub-buckets per power of two, so a
 * quantile is known to within ~3% of its value. Plain counts; one per
 * job, merged after the sweep.
 */
class LatencyHistogram
{
  public:
    void record(uint64_t ns);
    void merge(const LatencyHistogram &other);
    /** Midpoint of the bucket holding the @p q quantile; 0 if empty. */
    double quantile(double q) const;

  private:
    static constexpr unsigned kSub = 32;
    static constexpr size_t kBuckets = 60 * kSub;
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
};

/** Sums of the cycle-level sample counters over every stepped epoch. */
struct SimCounts
{
    uint64_t epochs = 0;
    uint64_t cycles = 0;
    uint64_t committed = 0;
    uint64_t fetched = 0;
    uint64_t issued = 0;
    uint64_t robOccupancySum = 0;
    uint64_t robFullStallCycles = 0;
    uint64_t l2Misses = 0;

    void add(const mimoarch::CoreCounters &sample);
    void merge(const SimCounts &other);
};

/** What the probes of one job saw. */
struct LayerProbes
{
    uint64_t plantNs = 0, plantCalls = 0; //!< Every step(), warm-up too.
    SimCounts sim;                        //!< Empty for analytic plants.
    uint64_t controlNs = 0, controlCalls = 0;
    LatencyHistogram controlHist;

    // Around stepEpoch(), in blocks of Workload::blockEpochs epochs.
    uint64_t loopNs = 0, loopEpochs = 0;
    uint64_t loopPlantNs = 0, loopControlNs = 0; //!< Inside those blocks.
    LatencyHistogram epochHist; //!< Per-epoch ns (block ns / block size).

    void merge(const LayerProbes &other);
};

/**
 * Forwards every Plant call to @p inner, timing step() and summing the
 * SimPlant sample counters. With @p span_calls each step() is also a
 * "plant.step" span in the telemetry trace when the trace is armed.
 */
class TimedPlant : public mimoarch::Plant
{
  public:
    TimedPlant(mimoarch::Plant &inner, LayerProbes &probes,
               bool span_calls);

    const mimoarch::KnobSpace &knobs() const override;
    const mimoarch::Matrix &
    step(const mimoarch::KnobSettings &settings) override;
    mimoarch::KnobSettings currentSettings() const override;
    const mimoarch::Matrix &lastTrueOutputs() const override;
    void setL2Partition(uint32_t way_mask) override;
    double lastL2Mpki() const override;
    double lastIpc() const override;
    double lastEnergyJoules() const override;
    double totalEnergyJoules() const override;
    double elapsedSeconds() const override;
    double totalInstructionsB() const override;

  private:
    mimoarch::Plant &inner_;
    const mimoarch::SimPlant *sim_; //!< inner_ when it is a SimPlant.
    LayerProbes &probes_;
    bool spanCalls_;
};

/** Forwards every ArchController call, timing update(). */
class TimedController : public mimoarch::ArchController
{
  public:
    TimedController(mimoarch::ArchController &inner, LayerProbes &probes,
                    bool span_calls);

    mimoarch::KnobSettings
    update(const mimoarch::Observation &obs) override;
    void setReference(double ips0, double power0) override;
    std::pair<double, double> reference() const override;
    void initialize(const mimoarch::KnobSettings &initial) override;
    std::string name() const override;
    mimoarch::ControllerHealth health() const override;

  private:
    mimoarch::ArchController &inner_;
    LayerProbes &probes_;
    bool spanCalls_;
};

/** A timed replay: host seconds, work items, and an output checksum. */
struct Replay
{
    double seconds = 0.0;
    uint64_t items = 0;
    uint64_t checksum = 0;
};

/** Drain @p ops micro-ops from a fresh stream of each app. */
Replay replayStreams(const std::vector<std::string> &apps,
                     uint64_t seed_salt, uint64_t ops);

/**
 * Replay @p accesses loads and stores of each app's stream through a
 * fresh MemoryHierarchy at the Baseline frequency (addresses are
 * generated before the clock starts).
 */
Replay replayMemory(const std::vector<std::string> &apps,
                    uint64_t seed_salt, uint64_t accesses);

/**
 * MimoControllerDesign::collectRecord() on the training and validation
 * apps with the seeds and salts design() uses. Returns the records in
 * design() order (training first).
 */
std::vector<mimoarch::SysIdRecord>
replaySysId(const mimoarch::KnobSpace &knobs,
            const mimoarch::ExperimentConfig &cfg, Replay &timing);

/**
 * The rest of design() on @p records: align and pool, ARX fit and
 * realization, validation, then LQG (DARE) design and robust stability
 * analysis, attempted as often as @p reference needed. Returns true when
 * the replayed model and weights equal @p reference's bit for bit.
 */
bool replayFit(const mimoarch::KnobSpace &knobs,
               const mimoarch::ExperimentConfig &cfg,
               const std::vector<mimoarch::SysIdRecord> &records,
               const mimoarch::MimoDesignResult &reference,
               Replay &timing);

} // namespace perfbench
