/**
 * @file
 * The epoch driver: closes the loop between a Plant and an
 * ArchController every 50 us epoch, optionally layering the optimizer
 * (§V use 3), the QoE/battery target schedule (§V use 2), and the
 * phase detector. Produces the summaries behind the paper's figures:
 * tracking errors, epochs-to-steady-state, and per-instruction energy
 * metrics (E, E x D, E x D^2).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/cancel.hpp"
#include "core/controllers.hpp"
#include "core/fidelity.hpp"
#include "core/optimizer.hpp"
#include "core/phase_detect.hpp"
#include "core/plant.hpp"
#include "core/qoe.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch {

/** Per-epoch trace of a run (for figure time series). */
struct EpochTrace
{
    std::vector<double> ips;    //!< As reported by the sensors.
    std::vector<double> power;
    std::vector<double> trueIps;   //!< As the hardware behaved (equal to
    std::vector<double> truePower; //!< ips/power without fault injection).
    std::vector<double> refIps;
    std::vector<double> refPower;
    std::vector<unsigned> freqLevel;
    std::vector<unsigned> cacheSetting;
    std::vector<unsigned> robPartitions;
    std::vector<unsigned> tier; //!< Supervisor degradation tier.

    /**
     * Controller-side robustness counters as they stood at the end of
     * the run, folded into digest(EpochTrace) so supervisor-state
     * regressions (sanitizer repairs, resets, demotions the per-epoch
     * tier series cannot distinguish) are caught by the replay suite.
     */
    ControllerHealth health{};
};

/** Aggregate results of one controlled run. */
struct RunSummary
{
    double avgIpsErrorPct = 0.0;   //!< Mean |IPS - ref| / ref * 100.
    double avgPowerErrorPct = 0.0; //!< Mean |P - ref| / ref * 100.
    long steadyEpochFreq = -1;     //!< -1 = did not converge.
    long steadyEpochCache = -1;

    double totalEnergyJ = 0.0;
    double totalTimeS = 0.0;
    double totalInstrB = 0.0;

    /**
     * Epochs whose sensor vector had a non-finite component and was
     * therefore not fed to the controller (the settings were held).
     */
    unsigned long nonFiniteSkips = 0;

    /** Controller-side robustness counters at the end of the run. */
    ControllerHealth health{};

    /** Energy per unit work (J per B-instructions). */
    double
    energyPerWork() const
    {
        return totalInstrB > 0 ? totalEnergyJ / totalInstrB : 0.0;
    }

    /** Time per unit work (s per B-instructions). */
    double
    delayPerWork() const
    {
        return totalInstrB > 0 ? totalTimeS / totalInstrB : 0.0;
    }

    /** E x D^(k-1) per unit work; k=1 is energy, k=2 is E x D, ... */
    double
    exdMetric(unsigned k) const
    {
        double m = energyPerWork();
        for (unsigned i = 1; i < k; ++i)
            m *= delayPerWork();
        return m;
    }
};

/** Driver options. */
struct DriverConfig
{
    size_t epochs = 3000;
    size_t warmupEpochs = 150;     //!< Fast-forward before control.
    size_t errorSkipEpochs = 200;  //!< Transient excluded from errors.
    bool recordTrace = false;

    /**
     * Which plant tier this driver is closing the loop around. Purely
     * a telemetry tag: analytic-tier drivers register their loop
     * metrics under "loop.analytic.*" so a mixed-fidelity process does
     * not fold 100x-cheaper surrogate epochs into the cycle-level
     * latency histograms (and cycle-level exporter output stays
     * byte-stable when no analytic driver was ever constructed).
     */
    PlantFidelity fidelity = PlantFidelity::CycleLevel;

    bool useOptimizer = false;
    OptimizerConfig optimizer{};
    uint64_t optimizerPeriodEpochs = 200; //!< 10 ms.
    /**
     * Restart a completed search every optimizer period. The paper's
     * §V: "A new search will start only when the controller detects
     * that the application changes phases", so this defaults to off
     * (the period then only paces the very first search).
     */
    bool optimizerPeriodicRestart = false;
    bool usePhaseDetector = true;
    PhaseDetectorConfig phaseDetector{};

    /**
     * Optional cooperative cancellation (not owned; null = never
     * canceled). Polled once per epoch; when set, run() unwinds with
     * CanceledError. The check reads one relaxed atomic and never
     * perturbs the numeric path, so a run that is NOT canceled is
     * bit-identical with or without a token — the sweep watchdog and
     * fail-fast abort hang off this without breaking determinism.
     */
    const CancellationToken *cancel = nullptr;
};

/**
 * Bit-exact 64-bit digest of a summary: every field, doubles by bit
 * pattern. Two runs digest equal iff they are bit-identical — the
 * equality the golden-trace and serial-vs-parallel tests assert.
 */
uint64_t digest(const RunSummary &summary);

/** Bit-exact digest of a per-epoch trace (all series, all epochs). */
uint64_t digest(const EpochTrace &trace);

/** Runs one controlled experiment. */
class EpochDriver
{
  public:
    /**
     * @param plant the controlled system (not owned).
     * @param controller knob controller (not owned).
     * @param qoe optional battery/QoE target schedule (not owned).
     */
    EpochDriver(Plant &plant, ArchController &controller,
                const DriverConfig &config,
                QoeBatteryModel *qoe = nullptr);

    /** Run the configured number of epochs from @p initial settings. */
    RunSummary run(const KnobSettings &initial);

    // ---- Stepwise API ----
    //
    // run() is exactly begin() + config.epochs x stepEpoch() + finish();
    // the split exists so ChipInstance (src/chip) can interleave N
    // drivers epoch-by-epoch — every core then executes the *same*
    // statement chain as a standalone run, which is what makes the
    // chip-vs-single-core equivalence tests hold bit-for-bit.

    /** Reset run state, warm up the plant, take baselines. */
    void begin(const KnobSettings &initial);

    /** Advance one controlled epoch (throws CanceledError on cancel). */
    void stepEpoch();

    /** Close the run and return its summary. */
    RunSummary finish();

    /** Epochs stepped since begin(). */
    size_t epochsDone() const { return epoch_; }

    /** Per-epoch trace (only filled when recordTrace). */
    const EpochTrace &trace() const { return trace_; }

    Plant &plant() { return plant_; }
    ArchController &controller() { return controller_; }
    const DriverConfig &config() const { return config_; }

    /** True (hardware-side) outputs of the last stepped epoch — the
     *  chip arbiter's per-core demand sensors. */
    double lastTrueIps() const { return lastTrueIps_; }
    double lastTruePower() const { return lastTruePower_; }

  private:
    static long steadyEpoch(const std::vector<unsigned> &values,
                            unsigned tolerance);

    Plant &plant_;
    ArchController &controller_;
    DriverConfig config_;
    QoeBatteryModel *qoe_;
    EpochTrace trace_;

    // Run state between begin() and finish(). Promoted from run()
    // locals; the arithmetic and its order are unchanged.
    std::optional<telemetry::Span> runSpan_;
    std::unique_ptr<Optimizer> opt_;
    std::optional<PhaseDetector> phases_;
    Observation obs_; //!< Hoisted so its y buffer is reused every epoch.
    KnobSettings settings_{};
    double energy0_ = 0.0, time0_ = 0.0, instr0_ = 0.0;
    double errIps_ = 0.0, errPower_ = 0.0;
    size_t errSamples_ = 0;
    unsigned long nonfiniteSkips_ = 0;
    size_t epoch_ = 0;
    double lastTrueIps_ = 0.0, lastTruePower_ = 0.0;

    // Loop telemetry (see src/telemetry). Registered once at
    // construction; recording in the epoch loop is a few relaxed
    // atomics.
    telemetry::Counter *tmEpochs_;
    telemetry::Counter *tmKnobMoves_;
    telemetry::Counter *tmNonfiniteSkips_;
    telemetry::Histogram *tmEpochNs_;
    telemetry::Histogram *tmIpsErrBp_;
    telemetry::Histogram *tmPowerErrBp_;
};

} // namespace mimoarch
