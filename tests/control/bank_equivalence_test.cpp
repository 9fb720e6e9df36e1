/**
 * @file
 * The ControllerBank equivalence proof: a bank lane's trajectory —
 * every command bit, every counter, every innovation norm — must be
 * *bit-identical* to a scalar LqgServoController fed the same
 * measurement stream. The suites run banks of N ∈ {1, 8, 1024} lanes
 * in lock-step against per-lane scalar controllers and compare:
 *
 *   - per-step physical commands, bitwise (NaN payloads included);
 *   - rejection / watchdog counters and innovation norms;
 *   - digest(EpochTrace) of whole trajectories via LaneTraceRecorder,
 *     so the equivalence is stated in the same digest machinery the
 *     golden-trace tier uses;
 *
 * under clean streams, fault injection (NaN/Inf measurements,
 * saturation, watchdog trips, mid-run reset/reference changes), and a
 * real LoopSupervisor driving individual lanes through the full
 * degradation ladder (Reset -> Fallback -> SafePin -> recovery), where
 * Fallback/SafePin map to ControllerBank::setHeld and estimator resets
 * are applied to both sides identically.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/random.hpp"
#include "control/bank.hpp"
#include "control/lqg.hpp"
#include "control/statespace.hpp"
#include "lane_trace.hpp"
#include "robustness/supervisor.hpp"

namespace mimoarch {
namespace {

uint64_t
bitsOf(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

StateSpaceModel
dim4Model()
{
    StateSpaceModel m;
    m.a = Matrix{{0.55, 0.2, 0.1, 0.0},
                 {0.1, 0.5, 0.0, 0.1},
                 {0.05, 0.0, 0.4, 0.1},
                 {0.0, 0.05, 0.1, 0.35}};
    m.b = Matrix{{0.4, 0.1}, {0.2, 0.3}, {0.1, 0.05}, {0.05, 0.1}};
    m.c = Matrix{{1.0, 0.0, 0.2, 0.1}, {0.0, 1.0, 0.1, 0.2}};
    m.d = Matrix{{0.1, 0.02}, {0.15, 0.01}};
    m.qn = Matrix::identity(4) * 1e-3;
    m.rn = Matrix::identity(2) * 1e-2;
    m.inputScaling = SignalScaling::identity(2);
    m.outputScaling = SignalScaling::identity(2);
    return m;
}

/** Same dynamics, non-identity scalings: a second design fingerprint
 *  that exercises the to/from-physical conversions with offsets. */
StateSpaceModel
scaledModel()
{
    StateSpaceModel m = dim4Model();
    m.inputScaling.scale = {1.5, 0.8};
    m.inputScaling.offset = {1.2, 2.5};
    m.outputScaling.scale = {2.0, 0.5};
    m.outputScaling.offset = {1.0, 2.0};
    return m;
}

LqgWeights
paperWeights()
{
    LqgWeights w;
    w.outputWeights = {10.0, 10000.0};
    w.inputWeights = {1000.0, 50.0};
    return w;
}

InputLimits
paperLimits()
{
    InputLimits lim;
    lim.lo = {0.5, 1.0};
    lim.hi = {2.0, 4.0};
    return lim;
}

/** Bit-compare one lane's step outputs; false aborts the caller. */
bool
sameCommand(const Matrix &scalar_u, const Matrix &bank_u, size_t lane,
            size_t step)
{
    for (size_t k = 0; k < scalar_u.rows(); ++k) {
        if (bitsOf(scalar_u[k]) != bitsOf(bank_u[k])) {
            ADD_FAILURE()
                << "command diverged: lane " << lane << " step " << step
                << " input " << k << ": scalar " << scalar_u[k]
                << " vs bank " << bank_u[k];
            return false;
        }
    }
    return true;
}

bool
sameHealth(const LqgServoController &ctrl, const ControllerBank &bank,
           size_t lane, size_t step)
{
    if (bitsOf(ctrl.lastInnovationNorm()) !=
        bitsOf(bank.lastInnovationNorm(lane))) {
        ADD_FAILURE() << "innovation norm diverged: lane " << lane
                      << " step " << step << ": "
                      << ctrl.lastInnovationNorm() << " vs "
                      << bank.lastInnovationNorm(lane);
        return false;
    }
    if (ctrl.rejectedMeasurements() != bank.rejectedMeasurements(lane) ||
        ctrl.watchdogTrips() != bank.watchdogTrips(lane) ||
        ctrl.stateFinite() != bank.stateFinite(lane)) {
        ADD_FAILURE() << "health counters diverged: lane " << lane
                      << " step " << step;
        return false;
    }
    return true;
}

ControllerHealth
laneHealth(unsigned tier, unsigned long rejected,
           unsigned long watchdog_trips, const LoopSupervisor *sup)
{
    ControllerHealth h;
    h.tier = tier;
    h.rejectedMeasurements = rejected;
    h.watchdogTrips = watchdog_trips;
    if (sup != nullptr) {
        h.estimatorResets = sup->estimatorResets();
        h.fallbackEntries = sup->fallbackEntries();
        h.safePins = sup->safePins();
        h.repromotions = sup->repromotions();
    }
    return h;
}

/**
 * Lock-step a bank of @p lanes lanes of one design against per-lane
 * scalar copies for @p steps: clean noisy streams with occasional
 * spikes (some saturating), per-lane references. Digests compared on
 * a sample of lanes (the full per-step bit compare covers them all).
 */
void
runCleanLockstep(const StateSpaceModel &model, size_t lanes,
                 size_t steps)
{
    const LqgWeights weights = paperWeights();
    const InputLimits limits = paperLimits();

    ControllerBank bank;
    const LqgServoController proto(model, weights, limits);
    std::vector<LqgServoController> scalars;
    scalars.reserve(lanes);
    std::vector<Rng> rngs;
    rngs.reserve(lanes);

    for (size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(bank.addLane(model, weights, limits), l);
        scalars.push_back(proto);
        rngs.emplace_back(0xBA17E5u + 977u * l);

        Matrix refm(2, 1);
        refm[0] = 1.6 + 0.01 * static_cast<double>(l % 37);
        refm[1] = 2.1 + 0.02 * static_cast<double>(l % 11);
        bank.setReference(l, refm);
        scalars[l].setReference(refm);
        const Matrix u0 = Matrix::vector({1.0, 2.0});
        bank.reset(l, u0);
        scalars[l].reset(u0);
    }
    ASSERT_EQ(bank.size(), lanes);
    ASSERT_EQ(bank.designGroups(), 1u);

    // Recorders on a lane sample: first, last, and two in between.
    std::set<size_t> sampled = {0, lanes - 1, lanes / 2, lanes / 3};
    std::vector<LaneTraceRecorder> recScalar(lanes ? 4 : 0,
                                             LaneTraceRecorder(steps));
    std::vector<LaneTraceRecorder> recBank(lanes ? 4 : 0,
                                           LaneTraceRecorder(steps));
    std::vector<size_t> sampleList(sampled.begin(), sampled.end());

    std::vector<Matrix> ys(lanes, Matrix(2, 1));
    Matrix uBank;
    for (size_t t = 0; t < steps; ++t) {
        for (size_t l = 0; l < lanes; ++l) {
            Matrix &y = ys[l];
            const Matrix &refm = scalars[l].reference();
            for (size_t k = 0; k < 2; ++k)
                y[k] = refm[k] + rngs[l].normal(0.0, 0.25);
            if (rngs[l].bernoulli(0.03))
                y[0] += 4.0; // Spike: drives saturation branches.
            bank.setMeasurement(l, y);
        }
        bank.stepAll();
        for (size_t l = 0; l < lanes; ++l) {
            const Matrix &uScalar = scalars[l].step(ys[l]);
            bank.commandInto(l, uBank);
            if (!sameCommand(uScalar, uBank, l, t))
                return;
            if (!sameHealth(scalars[l], bank, l, t))
                return;
            for (size_t si = 0; si < sampleList.size(); ++si) {
                if (sampleList[si] != l)
                    continue;
                recScalar[si].record(ys[l], uScalar,
                                     scalars[l].reference(), 0);
                recBank[si].record(ys[l], uBank, scalars[l].reference(),
                                   0);
            }
        }
    }

    for (size_t si = 0; si < sampleList.size(); ++si) {
        const size_t l = sampleList[si];
        recScalar[si].finish(laneHealth(0,
                                        scalars[l].rejectedMeasurements(),
                                        scalars[l].watchdogTrips(),
                                        nullptr));
        recBank[si].finish(laneHealth(0, bank.rejectedMeasurements(l),
                                      bank.watchdogTrips(l), nullptr));
        EXPECT_EQ(recScalar[si].digestValue(), recBank[si].digestValue())
            << "trajectory digest diverged on lane " << l;
    }
}

TEST(BankEquivalence, CleanLockstepN1) { runCleanLockstep(dim4Model(), 1, 400); }

TEST(BankEquivalence, CleanLockstepN8) { runCleanLockstep(dim4Model(), 8, 400); }

TEST(BankEquivalence, CleanLockstepN1024)
{
    runCleanLockstep(dim4Model(), 1024, 150);
}

TEST(BankEquivalence, CleanLockstepScaledModelN8)
{
    runCleanLockstep(scaledModel(), 8, 400);
}

TEST(BankEquivalence, FaultInjectionKeepsLanesBitIdentical)
{
    const StateSpaceModel model = dim4Model();
    const LqgWeights weights = paperWeights();
    const InputLimits limits = paperLimits();
    const size_t lanes = 8, steps = 500;

    ControllerBank bank;
    bank.setSaturationWatchdog(5);
    const LqgServoController proto(model, weights, limits);
    std::vector<LqgServoController> scalars;
    std::vector<Rng> rngs;
    for (size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(bank.addLane(model, weights, limits), l);
        scalars.push_back(proto);
        scalars[l].setSaturationWatchdog(5);
        rngs.emplace_back(0xFA017u + 31u * l);
        const Matrix refm = Matrix::vector({2.0, 2.5});
        bank.setReference(l, refm);
        scalars[l].setReference(refm);
    }

    std::vector<LaneTraceRecorder> recScalar(lanes,
                                             LaneTraceRecorder(steps));
    std::vector<LaneTraceRecorder> recBank(lanes,
                                           LaneTraceRecorder(steps));
    std::vector<Matrix> ys(lanes, Matrix(2, 1));
    std::vector<Matrix> lastScalar(lanes, Matrix(2, 1));
    Matrix uBank;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    for (size_t t = 0; t < steps; ++t) {
        // An unreachable reference for the middle third forces hard
        // saturation with a large tracking error: the watchdog trips
        // repeatedly (threshold 5) and resets estimator state.
        if (t == 200 || t == 350) {
            const Matrix refm = t == 200 ? Matrix::vector({40.0, 40.0})
                                         : Matrix::vector({2.0, 2.5});
            for (size_t l = 0; l < lanes; ++l) {
                bank.setReference(l, refm);
                scalars[l].setReference(refm);
            }
        }
        // A mid-run external reset on one lane (what a supervisor
        // Reset tier does), seeded from the lane's own last command.
        if (t == 100) {
            bank.commandInto(3, uBank);
            bank.reset(3, uBank);
            scalars[3].reset(uBank);
        }
        // A manual hold episode on another lane.
        if (t == 250)
            bank.setHeld(5, true);
        if (t == 300)
            bank.setHeld(5, false);

        for (size_t l = 0; l < lanes; ++l) {
            Matrix &y = ys[l];
            const Matrix &refm = scalars[l].reference();
            for (size_t k = 0; k < 2; ++k)
                y[k] = refm[k] + rngs[l].normal(0.0, 0.3);
            if (l % 2 == 0 && rngs[l].bernoulli(0.10))
                y[0] = nan; // Corrupt sample: must be rejected.
            if (l % 3 == 0 && rngs[l].bernoulli(0.05))
                y[1] = inf;
            bank.setMeasurement(l, y);
        }
        bank.stepAll();
        for (size_t l = 0; l < lanes; ++l) {
            const bool held = bank.held(l);
            unsigned tier = held ? 2u : 0u;
            if (!held) {
                const Matrix &uScalar = scalars[l].step(ys[l]);
                lastScalar[l] = uScalar;
            }
            bank.commandInto(l, uBank);
            if (!sameCommand(lastScalar[l], uBank, l, t))
                return;
            if (!sameHealth(scalars[l], bank, l, t))
                return;
            recScalar[l].record(ys[l], lastScalar[l],
                                scalars[l].reference(), tier);
            recBank[l].record(ys[l], uBank, scalars[l].reference(),
                              tier);
        }
    }

    unsigned long rejected = 0, trips = 0;
    for (size_t l = 0; l < lanes; ++l) {
        rejected += bank.rejectedMeasurements(l);
        trips += bank.watchdogTrips(l);
        recScalar[l].finish(laneHealth(0,
                                       scalars[l].rejectedMeasurements(),
                                       scalars[l].watchdogTrips(),
                                       nullptr));
        recBank[l].finish(laneHealth(0, bank.rejectedMeasurements(l),
                                     bank.watchdogTrips(l), nullptr));
        EXPECT_EQ(recScalar[l].digestValue(), recBank[l].digestValue())
            << "trajectory digest diverged on lane " << l;
    }
    // Non-vacuousness: the faults really fired.
    EXPECT_GT(rejected, 0u) << "no NaN/Inf measurement was injected";
    EXPECT_GT(trips, 0u) << "the saturation watchdog never tripped";
}

/**
 * Individual lanes degraded by a real LoopSupervisor: scripted fault
 * phases push faulted lanes through Reset -> Fallback -> SafePin and
 * back up; the supervisor's decisions (evaluated independently per
 * side from identical signals) map to reset()/setHeld() on the bank
 * and reset()/skip-step on the scalar controller. Trajectories must
 * stay bit-identical and the ladder must actually be traversed.
 */
TEST(BankEquivalence, SupervisorLadderDegradationPerLane)
{
    const StateSpaceModel model = dim4Model();
    const LqgWeights weights = paperWeights();
    const InputLimits limits = paperLimits();
    const size_t lanes = 8, steps = 300;
    const std::set<size_t> faulted = {1, 4};

    LoopSupervisorConfig scfg;
    scfg.innovationLimit = 0.5;
    scfg.innovationWindow = 3;
    scfg.trackingErrorLimit = 0.5;
    scfg.trackingWindow = 6;
    scfg.stuckWindow = 4;
    scfg.maxResets = 2;
    scfg.resetMemory = 500;
    scfg.probationEpochs = 5;
    scfg.healthyErrorLimit = 0.6;
    scfg.probationBackoff = 2.0;
    scfg.probationMax = 40;

    ControllerBank bank;
    const LqgServoController proto(model, weights, limits);
    std::vector<LqgServoController> scalars;
    std::vector<LoopSupervisor> supScalar, supBank;
    const Matrix refm = Matrix::vector({2.0, 2.5});
    for (size_t l = 0; l < lanes; ++l) {
        ASSERT_EQ(bank.addLane(model, weights, limits), l);
        scalars.push_back(proto);
        bank.setReference(l, refm);
        scalars[l].setReference(refm);
        supScalar.emplace_back(scfg);
        supBank.emplace_back(scfg);
    }

    std::vector<LaneTraceRecorder> recScalar(lanes,
                                             LaneTraceRecorder(steps));
    std::vector<LaneTraceRecorder> recBank(lanes,
                                           LaneTraceRecorder(steps));
    std::vector<Matrix> ys(lanes, Matrix(2, 1));
    std::vector<Matrix> lastScalar(lanes, Matrix(2, 1));
    std::vector<std::set<unsigned>> tiersSeen(lanes);
    std::vector<Rng> rngs;
    for (size_t l = 0; l < lanes; ++l)
        rngs.emplace_back(0x5AFEu + 17u * l);
    Matrix uBank;
    const double nan = std::numeric_limits<double>::quiet_NaN();

    for (size_t t = 0; t < steps; ++t) {
        for (size_t l = 0; l < lanes; ++l) {
            Matrix &y = ys[l];
            const bool bad = faulted.count(l) != 0 && t < 60;
            for (size_t k = 0; k < 2; ++k) {
                // Faulted phase: wildly off-reference measurements
                // (large innovations AND runaway tracking error).
                // Healthy phase: right at the reference.
                const double base = bad ? refm[k] * 2.2 : refm[k];
                y[k] = base + rngs[l].normal(0.0, 0.02);
            }
            if (bad && t % 7 == 3)
                y[0] = nan; // Fault injection under degradation.

            // Health signals, computed once from the shared stream and
            // the (asserted-equal) controller state, then fed to both
            // sides' independent supervisors.
            SupervisorSignals sig;
            sig.innovationNorm = scalars[l].lastInnovationNorm();
            sig.stateFinite = scalars[l].stateFinite();
            double rel = 0.0;
            for (size_t k = 0; k < 2; ++k) {
                if (refm[k] > 0.0 && std::isfinite(y[k])) {
                    rel = std::max(rel,
                                   std::abs(y[k] - refm[k]) / refm[k]);
                }
            }
            sig.relTrackingError = rel;

            const SupervisorDecision dS = supScalar[l].evaluate(sig);
            const SupervisorDecision dB = supBank[l].evaluate(sig);
            ASSERT_EQ(static_cast<unsigned>(dS.tier),
                      static_cast<unsigned>(dB.tier))
                << "supervisors diverged: lane " << l << " step " << t;
            ASSERT_EQ(dS.resetEstimator, dB.resetEstimator);
            tiersSeen[l].insert(static_cast<unsigned>(dS.tier));

            if (dS.resetEstimator) {
                bank.commandInto(l, uBank);
                ASSERT_TRUE(sameCommand(uBank, uBank, l, t));
                bank.reset(l, uBank);
                scalars[l].reset(uBank);
            }
            const bool held = dS.tier == DegradationTier::Fallback ||
                              dS.tier == DegradationTier::SafePin;
            bank.setHeld(l, held);
            bank.setMeasurement(l, y);
        }
        bank.stepAll();
        for (size_t l = 0; l < lanes; ++l) {
            const bool held = bank.held(l);
            const unsigned tier =
                static_cast<unsigned>(supScalar[l].tier());
            if (!held)
                lastScalar[l] = scalars[l].step(ys[l]);
            bank.commandInto(l, uBank);
            if (!sameCommand(lastScalar[l], uBank, l, t))
                return;
            if (!sameHealth(scalars[l], bank, l, t))
                return;
            recScalar[l].record(ys[l], lastScalar[l], refm, tier);
            recBank[l].record(ys[l], uBank, refm, tier);
        }
    }

    for (size_t l = 0; l < lanes; ++l) {
        recScalar[l].finish(
            laneHealth(static_cast<unsigned>(supScalar[l].tier()),
                       scalars[l].rejectedMeasurements(),
                       scalars[l].watchdogTrips(), &supScalar[l]));
        recBank[l].finish(
            laneHealth(static_cast<unsigned>(supBank[l].tier()),
                       bank.rejectedMeasurements(l),
                       bank.watchdogTrips(l), &supBank[l]));
        EXPECT_EQ(recScalar[l].digestValue(), recBank[l].digestValue())
            << "trajectory digest diverged on lane " << l;
    }
    for (const size_t l : faulted) {
        EXPECT_TRUE(tiersSeen[l].count(1))
            << "lane " << l << " never reached Reset";
        EXPECT_TRUE(tiersSeen[l].count(2))
            << "lane " << l << " never reached Fallback";
        EXPECT_TRUE(tiersSeen[l].count(3))
            << "lane " << l << " never reached SafePin";
        EXPECT_GT(supBank[l].repromotions(), 0u)
            << "lane " << l << " never recovered";
    }
    // Clean lanes may take an estimator Reset during the initial
    // transient (xHat starts at zero, so the first innovations exceed
    // the aggressive limit), but must never be demoted off the
    // primary controller.
    for (size_t l = 0; l < lanes; ++l) {
        if (faulted.count(l) == 0) {
            EXPECT_FALSE(tiersSeen[l].count(2))
                << "clean lane " << l << " entered Fallback";
            EXPECT_FALSE(tiersSeen[l].count(3))
                << "clean lane " << l << " entered SafePin";
        }
    }
}

TEST(BankEquivalence, SharedDesignDeduplication)
{
    const LqgWeights weights = paperWeights();
    const InputLimits limits = paperLimits();
    const StateSpaceModel m1 = dim4Model();
    const StateSpaceModel m2 = scaledModel();

    ControllerBank bank;
    for (size_t l = 0; l < 8; ++l)
        bank.addLane(l % 2 == 0 ? m1 : m2, weights, limits);
    EXPECT_EQ(bank.size(), 8u);
    EXPECT_EQ(bank.designGroups(), 2u);
    EXPECT_EQ(bank.fingerprint(0), bank.fingerprint(2));
    EXPECT_EQ(bank.fingerprint(1), bank.fingerprint(3));
    EXPECT_NE(bank.fingerprint(0), bank.fingerprint(1));
    EXPECT_EQ(bank.fingerprint(0),
              lqgDesignFingerprint(m1, weights, limits));
    // The shared prototype is the designed controller for the lane's
    // own model.
    EXPECT_EQ(bank.prototype(0).model().outputScaling.offset[0], 0.0);
    EXPECT_EQ(bank.prototype(1).model().outputScaling.offset[0], 1.0);

    // Mixed-design banks still step each lane bit-identically.
    std::vector<LqgServoController> scalars;
    for (size_t l = 0; l < 8; ++l)
        scalars.emplace_back(l % 2 == 0 ? m1 : m2, weights, limits);
    std::vector<Rng> rngs;
    for (size_t l = 0; l < 8; ++l)
        rngs.emplace_back(0xD0D0u + l);
    std::vector<Matrix> ys(8, Matrix(2, 1));
    Matrix uBank;
    for (size_t t = 0; t < 120; ++t) {
        for (size_t l = 0; l < 8; ++l) {
            const Matrix &refm = scalars[l].reference();
            for (size_t k = 0; k < 2; ++k)
                ys[l][k] = refm[k] + rngs[l].normal(0.0, 0.2);
            bank.setMeasurement(l, ys[l]);
        }
        bank.stepAll();
        for (size_t l = 0; l < 8; ++l) {
            const Matrix &uScalar = scalars[l].step(ys[l]);
            bank.commandInto(l, uBank);
            if (!sameCommand(uScalar, uBank, l, t))
                return;
        }
    }
}

TEST(BankEquivalence, LaneAdditionPreservesExistingTrajectories)
{
    // Adding lanes mid-run grows planes (copying live lane state);
    // existing lanes must not notice — their bits keep matching a
    // scalar that never saw a reallocation.
    const StateSpaceModel model = dim4Model();
    const LqgWeights weights = paperWeights();
    const InputLimits limits = paperLimits();

    ControllerBank bank;
    LqgServoController scalar(model, weights, limits);
    const Matrix refm = Matrix::vector({1.8, 2.2});
    ASSERT_EQ(bank.addLane(model, weights, limits), 0u);
    bank.setReference(0, refm);
    scalar.setReference(refm);

    Rng rng(4242);
    Matrix y(2, 1), uBank;
    size_t added = 1;
    for (size_t t = 0; t < 200; ++t) {
        // Trigger several capacity doublings while lane 0 runs.
        if (t % 20 == 10 && added < 64) {
            for (size_t i = 0; i < 8; ++i)
                bank.addLane(model, weights, limits);
            added += 8;
        }
        y[0] = refm[0] + rng.normal(0.0, 0.25);
        y[1] = refm[1] + rng.normal(0.0, 0.25);
        bank.setMeasurement(0, y);
        // Idle measurements for the extra lanes.
        for (size_t l = 1; l < bank.size(); ++l)
            bank.setMeasurement(l, y);
        bank.stepAll();
        const Matrix &uScalar = scalar.step(y);
        bank.commandInto(0, uBank);
        if (!sameCommand(uScalar, uBank, 0, t))
            return;
        if (!sameHealth(scalar, bank, 0, t))
            return;
    }
    EXPECT_EQ(bank.size(), 65u);
}

} // namespace
} // namespace mimoarch
