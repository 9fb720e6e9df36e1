#include "control/bank.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "linalg/batch.hpp"

namespace mimoarch {

namespace {

/**
 * Lanes per step tile. The tile's slice of every workspace plane
 * (~60 plane rows x 64 doubles = ~30 KB touched) must stay
 * cache-resident across the ~40 passes one step makes over it; at
 * fleet widths an untiled step streams several megabytes through L3
 * per call and turns memory-bound. 64 doubles = 8 cache lines per row
 * keeps the hot rows comfortably in L1 (measured fastest against 128
 * and 256 at N=4096) while still amortizing per-tile loop overhead.
 */
constexpr size_t kLaneTile = 64;

void
hashMatrix(Fnv64 &h, const Matrix &m)
{
    h.u64(m.rows()).u64(m.cols());
    for (size_t i = 0; i < m.size(); ++i)
        h.f64(m.data()[i]);
}

void
hashDoubles(Fnv64 &h, const std::vector<double> &v)
{
    h.u64(v.size());
    for (double x : v)
        h.f64(x);
}

void
hashScaling(Fnv64 &h, const SignalScaling &s)
{
    hashDoubles(h, s.offset);
    hashDoubles(h, s.scale);
}

/** out = a - b over the first @p lanes of each row plane. The planes
 *  are distinct workspace vectors — restrict makes that visible to the
 *  vectorizer. */
void
subPlane(double *__restrict out, const double *__restrict a,
         const double *__restrict b, size_t rows, size_t lanes,
         size_t stride)
{
    for (size_t k = 0; k < rows; ++k) {
        double *ok = out + k * stride;
        const double *ak = a + k * stride;
        const double *bk = b + k * stride;
        for (size_t l = 0; l < lanes; ++l)
            ok[l] = ak[l] - bk[l];
    }
}

/** out = a over the first @p lanes of each row plane. */
void
copyPlane(double *out, const double *a, size_t rows, size_t lanes,
          size_t stride)
{
    for (size_t k = 0; k < rows; ++k)
        std::copy_n(a + k * stride, lanes, out + k * stride);
}

} // namespace

/*
 * Runtime AVX2 dispatch for the tile step. On x86-64 with GCC/Clang
 * bank_step.inl is instantiated a second time as an
 * `__attribute__((target("avx2")))` function clone; the CPU is
 * probed once per bank with __builtin_cpu_supports. Bit-safe: the
 * clone compiles the identical statements and the target attribute
 * carries no FMA, so vector packing cannot change any lane's rounding
 * sequence (verified: SSE2 and AVX2 builds produce bit-identical
 * trajectory checksums).
 */
#if defined(__x86_64__) && defined(__GNUC__)
#define MIMOARCH_BANK_AVX2_DISPATCH 1
#else
#define MIMOARCH_BANK_AVX2_DISPATCH 0
#endif

uint64_t
lqgDesignFingerprint(const StateSpaceModel &model, const LqgWeights &weights,
                     const InputLimits &limits)
{
    Fnv64 h;
    hashMatrix(h, model.a);
    hashMatrix(h, model.b);
    hashMatrix(h, model.c);
    hashMatrix(h, model.d);
    hashMatrix(h, model.qn);
    hashMatrix(h, model.rn);
    hashScaling(h, model.inputScaling);
    hashScaling(h, model.outputScaling);
    hashDoubles(h, weights.outputWeights);
    hashDoubles(h, weights.inputWeights);
    h.f64(weights.integralFraction).f64(weights.inputHoldFraction);
    hashDoubles(h, limits.lo);
    hashDoubles(h, limits.hi);
    return h.value();
}

ControllerBank::ControllerBank()
{
    telemetry::Registry &reg = telemetry::registry();
    tmStepCalls_ = &reg.counter("bank.step_calls");
    tmLaneSteps_ = &reg.counter("bank.lane_steps");
    tmRejected_ = &reg.counter("bank.rejected_measurements");
    tmWatchdogTrips_ = &reg.counter("bank.watchdog_trips");
    tmHeldSkips_ = &reg.counter("bank.held_skips");
    tmLanes_ = &reg.gauge("bank.lanes");
    tmStepNs_ = &reg.histogram("bank.step_ns");
#if MIMOARCH_BANK_AVX2_DISPATCH
    useAvx2_ = __builtin_cpu_supports("avx2") != 0;
#endif
}

const ControllerBank::LaneRef &
ControllerBank::ref(size_t lane) const
{
    if (lane >= lanes_.size()) {
        fatal("ControllerBank: lane ", lane, " out of range (",
              lanes_.size(), " lanes)");
    }
    return lanes_[lane];
}

void
ControllerBank::growGroup(Group &g, size_t new_capacity)
{
    const auto grow = [&](Plane &pl, size_t rows) {
        Plane np(rows * new_capacity, 0.0);
        for (size_t k = 0; k < rows; ++k) {
            for (size_t l = 0; l < g.lanes; ++l)
                np[k * new_capacity + l] = pl[k * g.capacity + l];
        }
        pl.swap(np);
    };
    grow(g.xSs, g.n);
    grow(g.uSs, g.m);
    grow(g.y0Scaled, g.p);
    grow(g.y0Physical, g.p);
    grow(g.xHat, g.n);
    grow(g.uPrev, g.m);
    grow(g.zInt, g.p);
    grow(g.yPhys, g.p);
    grow(g.uPhysOut, g.m);
    grow(g.yScaled, g.p);
    grow(g.dx, g.n);
    grow(g.duPrev, g.m);
    grow(g.t1, g.m);
    grow(g.t2, g.m);
    grow(g.t3, g.m);
    grow(g.u, g.m);
    grow(g.uUnsat, g.m);
    grow(g.uPhysWs, g.m);
    grow(g.awDiff, g.m);
    grow(g.awCorr, g.p);
    grow(g.cx, g.p);
    grow(g.duFeed, g.p);
    grow(g.inno, g.p);
    grow(g.ax, g.n);
    grow(g.bu, g.n);
    grow(g.li, g.n);
    grow(g.xNew, g.n);
    grow(g.normAcc, 1);
    g.satStreak.resize(new_capacity, 0);
    g.watchdogTrips.resize(new_capacity, 0);
    g.rejectedMeasurements.resize(new_capacity, 0);
    g.lastInnovationNorm.resize(new_capacity, 0.0);
    g.held.resize(new_capacity, 0);
    g.live.resize(new_capacity, 0);
    g.saturated.resize(new_capacity, 0);
    g.capacity = new_capacity;
}

Result<size_t>
ControllerBank::tryAddLane(const StateSpaceModel &model,
                           const LqgWeights &weights,
                           const InputLimits &limits)
{
    const uint64_t fp = lqgDesignFingerprint(model, weights, limits);
    size_t gi = groups_.size();
    for (size_t i = 0; i < groups_.size(); ++i) {
        if (groups_[i].fingerprint == fp) {
            gi = i;
            break;
        }
    }
    if (gi == groups_.size()) {
        auto made = LqgServoController::tryMake(model, weights, limits);
        if (!made.ok())
            return made.error();
        Group g(made.take(), limits);
        g.fingerprint = fp;
        g.n = model.stateDim();
        g.m = model.numInputs();
        g.p = model.numOutputs();
        // Identity I/O scaling (bit-exact +1.0 scale, +0.0 offset on
        // every channel) lets the fused fast path drop the
        // physical<->scaled conversions: (x - 0.0) / 1.0 == x, bit for
        // bit, for every finite x — and the fused path only ever sees
        // finite values. -0.0 offsets/scales are deliberately NOT
        // identity: x - (-0.0) flips a -0.0 input to +0.0.
        const auto bitsOfD = [](double v) {
            uint64_t u;
            std::memcpy(&u, &v, sizeof(u));
            return u;
        };
        const uint64_t one = bitsOfD(1.0);
        bool ident = true;
        for (size_t i = 0; i < g.m; ++i) {
            ident &= bitsOfD(model.inputScaling.scale[i]) == one;
            ident &= bitsOfD(model.inputScaling.offset[i]) == 0;
        }
        for (size_t i = 0; i < g.p; ++i) {
            ident &= bitsOfD(model.outputScaling.scale[i]) == one;
            ident &= bitsOfD(model.outputScaling.offset[i]) == 0;
        }
        g.identityIo = ident;
        groups_.push_back(std::move(g));
    }
    Group &g = groups_[gi];
    if (g.lanes == g.capacity)
        growGroup(g, std::max<size_t>(8, g.capacity * 2));
    const auto slot = static_cast<uint32_t>(g.lanes++);
    g.satStreak[slot] = 0;
    g.watchdogTrips[slot] = 0;
    g.rejectedMeasurements[slot] = 0;
    g.lastInnovationNorm[slot] = 0.0;
    g.held[slot] = 0;
    g.live[slot] = 0;
    g.saturated[slot] = 0;

    const size_t lane = lanes_.size();
    lanes_.push_back(LaneRef{static_cast<uint32_t>(gi), slot});

    // Fresh-controller defaults, mirroring LqgServoController::init():
    // reference at the output operating point, state reset around zero
    // physical input.
    const StateSpaceModel &mdl = g.proto.model();
    Matrix y0(g.p, 1);
    for (size_t i = 0; i < g.p; ++i)
        y0[i] = mdl.outputScaling.offset[i];
    setReference(lane, y0);
    reset(lane, Matrix(g.m, 1));
    tmLanes_->set(static_cast<double>(lanes_.size()));
    return lane;
}

size_t
ControllerBank::addLane(const StateSpaceModel &model,
                        const LqgWeights &weights, const InputLimits &limits)
{
    auto added = tryAddLane(model, weights, limits);
    if (!added.ok())
        fatal(added.error().message);
    return added.take();
}

void
ControllerBank::setReference(size_t lane, const Matrix &y0_physical)
{
    const LaneRef &r = ref(lane);
    Group &g = groups_[r.group];
    if (y0_physical.rows() != g.p || y0_physical.cols() != 1) {
        fatal("ControllerBank::setReference: expected ", g.p,
              " output targets");
    }
    const StateSpaceModel &mdl = g.proto.model();
    const Matrix y0s = mdl.outputScaling.toScaled(y0_physical);
    Matrix xss, uss;
    computeServoTargets(mdl, y0s, xss, uss);
    const size_t s = g.capacity;
    for (size_t k = 0; k < g.p; ++k) {
        g.y0Physical[k * s + r.slot] = y0_physical[k];
        g.y0Scaled[k * s + r.slot] = y0s[k];
    }
    for (size_t k = 0; k < g.n; ++k)
        g.xSs[k * s + r.slot] = xss[k];
    for (size_t k = 0; k < g.m; ++k)
        g.uSs[k * s + r.slot] = uss[k];
}

void
ControllerBank::reset(size_t lane, const Matrix &u_initial_physical)
{
    const LaneRef &r = ref(lane);
    Group &g = groups_[r.group];
    if (u_initial_physical.rows() != g.m)
        fatal("ControllerBank::reset: expected ", g.m, " initial inputs");
    const SignalScaling &in = g.proto.model().inputScaling;
    const size_t s = g.capacity;
    for (size_t k = 0; k < g.n; ++k)
        g.xHat[k * s + r.slot] = 0.0;
    for (size_t k = 0; k < g.m; ++k) {
        const double us =
            (u_initial_physical[k] - in.offset[k]) / in.scale[k];
        g.uPrev[k * s + r.slot] = us;
        // Until the first step, "the last command" is the hold at the
        // initial input (what a rejected first measurement would emit).
        g.uPhysOut[k * s + r.slot] = us * in.scale[k] + in.offset[k];
    }
    for (size_t k = 0; k < g.p; ++k)
        g.zInt[k * s + r.slot] = 0.0;
}

void
ControllerBank::setHeld(size_t lane, bool held)
{
    const LaneRef &r = ref(lane);
    groups_[r.group].held[r.slot] = held ? 1 : 0;
}

bool
ControllerBank::held(size_t lane) const
{
    const LaneRef &r = ref(lane);
    return groups_[r.group].held[r.slot] != 0;
}

void
ControllerBank::setMeasurement(size_t lane, const Matrix &y_physical)
{
    const LaneRef &r = ref(lane);
    Group &g = groups_[r.group];
    if (y_physical.rows() != g.p || y_physical.cols() != 1)
        fatal("ControllerBank::setMeasurement: expected ", g.p, " outputs");
    for (size_t k = 0; k < g.p; ++k)
        g.yPhys[k * g.capacity + r.slot] = y_physical[k];
}

double
ControllerBank::command(size_t lane, size_t input) const
{
    const LaneRef &r = ref(lane);
    const Group &g = groups_[r.group];
    if (input >= g.m)
        fatal("ControllerBank::command: input ", input, " out of range");
    return g.uPhysOut[input * g.capacity + r.slot];
}

void
ControllerBank::commandInto(size_t lane, Matrix &u_physical) const
{
    const LaneRef &r = ref(lane);
    const Group &g = groups_[r.group];
    u_physical.resizeShape(g.m, 1);
    for (size_t k = 0; k < g.m; ++k)
        u_physical[k] = g.uPhysOut[k * g.capacity + r.slot];
}

unsigned long
ControllerBank::watchdogTrips(size_t lane) const
{
    const LaneRef &r = ref(lane);
    return groups_[r.group].watchdogTrips[r.slot];
}

unsigned long
ControllerBank::rejectedMeasurements(size_t lane) const
{
    const LaneRef &r = ref(lane);
    return groups_[r.group].rejectedMeasurements[r.slot];
}

double
ControllerBank::lastInnovationNorm(size_t lane) const
{
    const LaneRef &r = ref(lane);
    return groups_[r.group].lastInnovationNorm[r.slot];
}

bool
ControllerBank::stateFinite(size_t lane) const
{
    const LaneRef &r = ref(lane);
    const Group &g = groups_[r.group];
    const size_t s = g.capacity;
    for (size_t k = 0; k < g.n; ++k) {
        if (!std::isfinite(g.xHat[k * s + r.slot]))
            return false;
    }
    for (size_t k = 0; k < g.m; ++k) {
        if (!std::isfinite(g.uPrev[k * s + r.slot]))
            return false;
    }
    for (size_t k = 0; k < g.p; ++k) {
        if (!std::isfinite(g.zInt[k * s + r.slot]))
            return false;
    }
    return true;
}

uint64_t
ControllerBank::fingerprint(size_t lane) const
{
    return groups_[ref(lane).group].fingerprint;
}

const LqgServoController &
ControllerBank::prototype(size_t lane) const
{
    return groups_[ref(lane).group].proto;
}

void
ControllerBank::stepAll()
{
    telemetry::Span span("bank-step", "bank", tmStepNs_, "lanes",
                         static_cast<int64_t>(lanes_.size()));
    tmStepCalls_->add(1);
    for (Group &g : groups_) {
        if (g.lanes > 0)
            stepGroup(g);
    }
}

/*
 * One lock-step over a design group. The phase sequence — and, per
 * lane, every arithmetic statement — is LqgServoController::step()
 * verbatim; see that function for the control rationale. Batched
 * phases compute candidates for *all* lanes (garbage for held/rejected
 * lanes is never committed); the commit applies the scalar step's
 * state updates per lane, masked by liveness and saturation. When
 * every lane is live and none saturated, the commit itself runs
 * batched (the steady-state fleet fast path) — same statements, lanes
 * interleaved, so the bits cannot differ.
 */
void
ControllerBank::stepGroup(Group &g)
{
    const size_t lanes = g.lanes;
    const size_t s = g.capacity;
    const size_t m = g.m, p = g.p;
    const SignalScaling &in_sc = g.proto.model().inputScaling;

    // Classify lanes; a rejected (non-finite) measurement re-issues
    // the held command and touches nothing else, like the scalar
    // early return.
    size_t live_count = 0;
    uint64_t held_count = 0, rejected_count = 0;
    uint64_t held_sum = 0;
    for (size_t l = 0; l < lanes; ++l)
        held_sum += g.held[l];
    if (held_sum == 0) {
        // Nobody held (the fleet steady state): classify branchlessly
        // so the scan vectorizes. y - y == 0.0 is exactly isfinite(y)
        // — finite gives +0.0, ±Inf and NaN give NaN, and no flag in
        // this build licenses folding x - x to 0.
        uint8_t *__restrict lv = g.live.data();
        if (p == 2) {
            // Count-only for the dominant fleet shape: when every
            // measurement is finite (the common case) the tiles run on
            // the all_live flag alone and never read g.live, so
            // nothing needs to be stored.
            const double *__restrict y0r = &g.yPhys[0];
            const double *__restrict y1r = &g.yPhys[s];
            size_t c = 0;
            for (size_t l = 0; l < lanes; ++l) {
                const double d0 = y0r[l] - y0r[l];
                const double d1 = y1r[l] - y1r[l];
                c += static_cast<size_t>((d0 == 0.0) & (d1 == 0.0));
            }
            live_count = c;
            if (live_count != lanes) {
                for (size_t l = 0; l < lanes; ++l) {
                    const double d0 = y0r[l] - y0r[l];
                    const double d1 = y1r[l] - y1r[l];
                    lv[l] = static_cast<uint8_t>((d0 == 0.0) &
                                                 (d1 == 0.0));
                }
            }
        } else {
            for (size_t l = 0; l < lanes; ++l)
                lv[l] = 1;
            for (size_t k = 0; k < p; ++k) {
                const double *__restrict yk = &g.yPhys[k * s];
                for (size_t l = 0; l < lanes; ++l) {
                    const double d = yk[l] - yk[l];
                    lv[l] &= static_cast<uint8_t>(d == 0.0);
                }
            }
            for (size_t l = 0; l < lanes; ++l)
                live_count += lv[l];
        }
        if (live_count != lanes) {
            // Rare: some measurement was non-finite; re-issue the held
            // command for those lanes, exactly like the scalar early
            // return.
            for (size_t l = 0; l < lanes; ++l) {
                if (lv[l])
                    continue;
                ++rejected_count;
                ++g.rejectedMeasurements[l];
                for (size_t k = 0; k < m; ++k) {
                    g.uPhysOut[k * s + l] =
                        g.uPrev[k * s + l] * in_sc.scale[k] +
                        in_sc.offset[k];
                }
            }
        }
    } else {
        for (size_t l = 0; l < lanes; ++l) {
            if (g.held[l]) {
                g.live[l] = 0;
                ++held_count;
                continue;
            }
            bool measurement_finite = true;
            for (size_t k = 0; k < p; ++k) {
                measurement_finite &=
                    std::isfinite(g.yPhys[k * s + l]) != 0;
            }
            if (!measurement_finite) {
                g.live[l] = 0;
                ++rejected_count;
                ++g.rejectedMeasurements[l];
                for (size_t k = 0; k < m; ++k) {
                    g.uPhysOut[k * s + l] =
                        g.uPrev[k * s + l] * in_sc.scale[k] +
                        in_sc.offset[k];
                }
            } else {
                g.live[l] = 1;
                ++live_count;
            }
        }
    }
    tmHeldSkips_->add(held_count);
    tmRejected_->add(rejected_count);
    tmLaneSteps_->add(live_count);
    if (live_count == 0)
        return;

    // Lane tiling: every batched phase plus the commit runs on one
    // tile of lanes before the next tile starts, so the slice of every
    // plane a tile touches (~60 rows x kLaneTile doubles) stays
    // cache-resident across the ~40 passes a step makes over it. At
    // fleet widths the untiled form streams several MB per step
    // through L3 and the step goes memory-bound. Tiling only changes
    // *which lanes* are processed when — each lane's statement
    // sequence, and therefore its bits, is identical.
    // Shape specialization: the dominant fleet design (4-state,
    // 2-input, 2-output — the paper's per-app controller) gets a
    // compile-time-dimensioned tile step whose gemv k-loops unroll and
    // vectorize; anything else takes the runtime-dimensioned generic.
    const bool shape422 = g.n == 4 && g.m == 2 && g.p == 2;
    const bool all_live = live_count == lanes;
    // Sample-then-clear the streak flag: a clean commit only re-zeroes
    // satStreak when some entry might be nonzero, and tiles re-raise
    // the flag when they bump a streak. A held lane can park a nonzero
    // streak no commit will touch, so the flag must survive it.
    const bool streaks_dirty = g.satStreakDirty;
    if (held_sum == 0)
        g.satStreakDirty = false;
#if MIMOARCH_BANK_AVX2_DISPATCH
    if (useAvx2_) {
        for (size_t l0 = 0; l0 < lanes; l0 += kLaneTile) {
            const size_t len = std::min(kLaneTile, lanes - l0);
            if (shape422)
                stepTileAvx2<4, 2, 2>(g, l0, len, all_live,
                                      streaks_dirty);
            else
                stepTileAvx2<0, 0, 0>(g, l0, len, all_live,
                                      streaks_dirty);
        }
        return;
    }
#endif
    for (size_t l0 = 0; l0 < lanes; l0 += kLaneTile) {
        const size_t len = std::min(kLaneTile, lanes - l0);
        if (shape422)
            stepTilePortable<4, 2, 2>(g, l0, len, all_live,
                                      streaks_dirty);
        else
            stepTilePortable<0, 0, 0>(g, l0, len, all_live,
                                      streaks_dirty);
    }
}

// Instantiate the tile step (see bank_step.inl): portable build, then
// the AVX2 function clone when dispatch is available.
#define MIMOARCH_BANK_STEP_FN stepTilePortable
#define MIMOARCH_BANK_STEP_ATTR
#include "control/bank_step.inl"
#undef MIMOARCH_BANK_STEP_FN
#undef MIMOARCH_BANK_STEP_ATTR

#if MIMOARCH_BANK_AVX2_DISPATCH
#define MIMOARCH_BANK_STEP_FN stepTileAvx2
#define MIMOARCH_BANK_STEP_ATTR __attribute__((target("avx2")))
#include "control/bank_step.inl"
#undef MIMOARCH_BANK_STEP_FN
#undef MIMOARCH_BANK_STEP_ATTR
#endif

} // namespace mimoarch
