/**
 * @file
 * The analytic plant tier (DESIGN.md §13): a Plant that steps the
 * *identified* state-space response surface of one application instead
 * of simulating the pipeline.
 *
 * Calibration runs the regular black-box identification experiment
 * (excitation waveform -> cycle-level SimPlant -> ARX fit) once per
 * application and keeps, next to the dynamics, everything a Plant must
 * answer that the (IPS, power) model alone cannot:
 *
 *   - per-output residual noise levels, so surrogate trajectories carry
 *     the same epoch-to-epoch unpredictability the controller's Kalman
 *     filter was designed against (seed-deterministic, from Rng);
 *   - auxiliary-sensor models — L2 MPKI affine in the knob vector, IPC
 *     proportional to IPS/frequency, energy proportional to
 *     power x epoch — fitted per app, feeding the phase detector and
 *     heuristic controllers;
 *   - the fit's validation report, the documented error envelope of the
 *     tier (bench/fig_fidelity gates on it).
 *
 * One surrogate step is a handful of small gemv kernels (~100 ns at
 * dimension 4), which is what buys the >= 100x sweep throughput over
 * the cycle-level tier. Everything is deterministic in (app, config,
 * seed_salt): two SurrogatePlants built from the same calibration and
 * salt replay bit-identical trajectories on any thread.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "control/statespace.hpp"
#include "core/experiment_config.hpp"
#include "core/plant.hpp"
#include "sysid/validate.hpp"
#include "workload/appspec.hpp"

namespace mimoarch {

/** One application's calibrated analytic response surface. */
struct SurrogateModel
{
    std::string appName;

    /** Identified (A, B, C, D) + scalings, scaled coordinates. */
    StateSpaceModel dynamics;

    /**
     * Per-output std-dev of the calibration residual (scaled units):
     * the output noise the surrogate re-injects each epoch.
     */
    std::vector<double> noiseSigma;

    /** Model-vs-simulator error envelope on the calibration record. */
    ValidationReport fit;

    /**
     * L2 MPKI as an affine function of the physical knob vector:
     * l2 = c[0] + sum_i c[1 + i] * u[i], clamped at zero. (1 + I) x 1.
     */
    Matrix l2Coef;

    /** IPC ~= this * IPS / frequency-GHz (per-app pipeline width fit). */
    double ipcPerIpsOverFreq = 0.0;

    /** Energy per epoch ~= this * power (~= epochSeconds by physics;
     *  fitted so surrogate E x D metrics match the simulator's). */
    double energyPerPowerSecond = 0.0;

    double epochSeconds = 50e-6;

    /**
     * Physical output floors (1% of the calibration operating point):
     * the linear surface extrapolates, and a negative IPS or power
     * would corrupt the cumulative accounting that E x D^(k-1) is
     * built from.
     */
    double ipsFloor = 0.0;
    double powerFloor = 0.0;

    /** Bit-exact digest over every field (determinism tests). */
    uint64_t digest() const;
};

/**
 * Run the calibration experiment for @p app on the cycle-level
 * simulator and fit its surrogate. Deterministic: the excitation seed
 * is sysidSeed("surrogate-cal", app.name), epochs/warmup come from
 * @p cfg (sysidEpochsPerApp / warmupEpochs), and the fit has no other
 * randomness — so the result is a pure function of
 * (app, knobs, cfg.designFingerprint(), proc), which is exactly what
 * exec::DesignCache::surrogate() memoizes it on.
 */
SurrogateModel calibrateSurrogate(const AppSpec &app,
                                  const KnobSpace &knobs,
                                  const ExperimentConfig &cfg,
                                  const ProcessorConfig &proc = {});

/**
 * Allocation-free stepper for one instance of a surrogate's dynamics:
 * physical input in, noisy physical output out. SurrogatePlant wraps
 * one instance; any caller that needs many instances of one model
 * (one per loop) can step them directly. The model is borrowed and
 * must outlive the stepper.
 */
class SurrogateDynamics
{
  public:
    SurrogateDynamics(const SurrogateModel &model, uint64_t seed);

    /** Restart from the zero state with a fresh noise stream. */
    void reset(uint64_t seed);

    /**
     * Advance one epoch under physical input @p u_physical (I x 1) and
     * return the noisy physical outputs (O x 1, floor-clamped). The
     * reference is into an owned buffer, valid until the next step().
     */
    const Matrix &step(const Matrix &u_physical);

    const SurrogateModel &model() const { return *model_; }

  private:
    const SurrogateModel *model_;
    Rng rng_;
    Matrix x_;       //!< N x 1 state.
    Matrix xNext_;   //!< N x 1 scratch.
    Matrix tmpN_;    //!< N x 1 scratch.
    Matrix uScaled_; //!< I x 1 scratch.
    Matrix yScaled_; //!< O x 1 scratch.
    Matrix tmpO_;    //!< O x 1 scratch.
    Matrix yPhys_;   //!< O x 1 step() result buffer.
};

/** The analytic-tier Plant: steps a calibrated SurrogateModel. */
class SurrogatePlant : public Plant
{
  public:
    /**
     * @param model calibrated surrogate (shared, immutable).
     * @param knob_space must match the calibration's input count.
     * @param seed_salt decorrelates repeated runs of the same app
     *        (same role as SimPlant's).
     */
    SurrogatePlant(std::shared_ptr<const SurrogateModel> model,
                   const KnobSpace &knob_space, uint64_t seed_salt = 0);

    const KnobSpace &knobs() const override { return knobs_; }
    const Matrix &step(const KnobSettings &settings) override;
    KnobSettings currentSettings() const override { return current_; }

    /** Parity with SimPlant::warmup: epochs at the current settings. */
    void warmup(size_t epochs);

    /**
     * Chip partitioning on the analytic tier is an approximation: the
     * surrogate has no cache to mask, so the partition caps the
     * cache-size knob at the largest setting whose L2 ways fit in the
     * partition (documented in DESIGN.md §14). A full mask restores the
     * unconstrained knob, bit-identical to an unpartitioned plant.
     */
    void setL2Partition(uint32_t way_mask) override;

    double lastL2Mpki() const override { return lastL2Mpki_; }
    double lastIpc() const override { return lastIpc_; }
    double lastEnergyJoules() const override { return lastEnergyJ_; }

    double totalEnergyJoules() const override { return totalEnergyJ_; }
    double elapsedSeconds() const override { return elapsedS_; }
    double totalInstructionsB() const override { return totalInstrB_; }

    const SurrogateModel &model() const { return *model_; }

  private:
    std::shared_ptr<const SurrogateModel> model_;
    KnobSpace knobs_;
    SurrogateDynamics dyn_;
    KnobSettings current_{};
    Matrix u_; //!< I x 1 physical input buffer.
    unsigned cacheSettingCap_ = ~0u; //!< Partition cap on the cache knob.

    double lastL2Mpki_ = 0.0;
    double lastIpc_ = 0.0;
    double lastEnergyJ_ = 0.0;
    double totalEnergyJ_ = 0.0;
    double elapsedS_ = 0.0;
    double totalInstrB_ = 0.0;
};

} // namespace mimoarch
