#include "probes.hpp"

#include <bit>
#include <chrono>

#include "control/robust.hpp"
#include "sim/memhier.hpp"
#include "sysid/arx.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"
#include "workload/synthetic_stream.hpp"

namespace perfbench {

using namespace mimoarch;

namespace {

/**
 * Replays advance a stream's phase clock every kOpsPerEpoch ops, about
 * what a compute-bound app fetches per epoch at the Baseline setting,
 * so a drain walks the app's phases as a run does.
 */
constexpr uint64_t kOpsPerEpoch = 2048;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Matrices equal element for element, by bit pattern. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            if (std::bit_cast<uint64_t>(a(r, c)) !=
                std::bit_cast<uint64_t>(b(r, c)))
                return false;
    return true;
}

} // namespace

// ------------------------------------------------------ LatencyHistogram

void
LatencyHistogram::record(uint64_t ns)
{
    size_t idx = ns;
    if (ns >= kSub) {
        // Bucket by the top six bits: the leading one and five below it.
        const unsigned shift = std::bit_width(ns) - 6;
        idx = (shift + 1) * kSub + ((ns >> shift) & (kSub - 1));
    }
    ++buckets_[std::min(idx, kBuckets - 1)];
    ++count_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double
LatencyHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    uint64_t seen = 0;
    size_t idx = 0;
    for (; idx < kBuckets; ++idx) {
        seen += buckets_[idx];
        if (seen > rank)
            break;
    }
    if (idx < kSub)
        return static_cast<double>(idx);
    const unsigned shift = static_cast<unsigned>(idx / kSub) - 1;
    const double lower =
        static_cast<double>((kSub + idx % kSub) << shift);
    return lower + static_cast<double>(uint64_t{1} << shift) / 2.0;
}

// ------------------------------------------------------------- counts

void
SimCounts::add(const CoreCounters &s)
{
    ++epochs;
    cycles += s.cycles;
    committed += s.committed;
    fetched += s.fetched;
    issued += s.issued;
    robOccupancySum += s.robOccupancySum;
    robFullStallCycles += s.robFullStallCycles;
    l2Misses += s.l2Misses;
}

void
SimCounts::merge(const SimCounts &o)
{
    epochs += o.epochs;
    cycles += o.cycles;
    committed += o.committed;
    fetched += o.fetched;
    issued += o.issued;
    robOccupancySum += o.robOccupancySum;
    robFullStallCycles += o.robFullStallCycles;
    l2Misses += o.l2Misses;
}

void
LayerProbes::merge(const LayerProbes &o)
{
    plantNs += o.plantNs;
    plantCalls += o.plantCalls;
    sim.merge(o.sim);
    controlNs += o.controlNs;
    controlCalls += o.controlCalls;
    controlHist.merge(o.controlHist);
    loopNs += o.loopNs;
    loopEpochs += o.loopEpochs;
    loopPlantNs += o.loopPlantNs;
    loopControlNs += o.loopControlNs;
    epochHist.merge(o.epochHist);
}

// ---------------------------------------------------------- TimedPlant

TimedPlant::TimedPlant(Plant &inner, LayerProbes &probes, bool span_calls)
    : inner_(inner), sim_(dynamic_cast<const SimPlant *>(&inner)),
      probes_(probes), spanCalls_(span_calls)
{}

const KnobSpace &
TimedPlant::knobs() const
{
    return inner_.knobs();
}

const Matrix &
TimedPlant::step(const KnobSettings &settings)
{
    const uint64_t t0 = telemetry::nowNs();
    const Matrix &y = inner_.step(settings);
    const uint64_t dur = telemetry::nowNs() - t0;
    probes_.plantNs += dur;
    ++probes_.plantCalls;
    if (sim_)
        probes_.sim.add(sim_->lastEpoch().sample);
    if (spanCalls_ && telemetry::trace().enabled())
        telemetry::trace().complete("plant.step", "plant", t0, dur);
    return y;
}

KnobSettings
TimedPlant::currentSettings() const
{
    return inner_.currentSettings();
}

const Matrix &
TimedPlant::lastTrueOutputs() const
{
    return inner_.lastTrueOutputs();
}

void
TimedPlant::setL2Partition(uint32_t way_mask)
{
    inner_.setL2Partition(way_mask);
}

double
TimedPlant::lastL2Mpki() const
{
    return inner_.lastL2Mpki();
}

double
TimedPlant::lastIpc() const
{
    return inner_.lastIpc();
}

double
TimedPlant::lastEnergyJoules() const
{
    return inner_.lastEnergyJoules();
}

double
TimedPlant::totalEnergyJoules() const
{
    return inner_.totalEnergyJoules();
}

double
TimedPlant::elapsedSeconds() const
{
    return inner_.elapsedSeconds();
}

double
TimedPlant::totalInstructionsB() const
{
    return inner_.totalInstructionsB();
}

// ----------------------------------------------------- TimedController

TimedController::TimedController(ArchController &inner,
                                 LayerProbes &probes, bool span_calls)
    : inner_(inner), probes_(probes), spanCalls_(span_calls)
{}

KnobSettings
TimedController::update(const Observation &obs)
{
    const uint64_t t0 = telemetry::nowNs();
    const KnobSettings next = inner_.update(obs);
    const uint64_t dur = telemetry::nowNs() - t0;
    probes_.controlNs += dur;
    ++probes_.controlCalls;
    probes_.controlHist.record(dur);
    if (spanCalls_ && telemetry::trace().enabled())
        telemetry::trace().complete("control.update", "control", t0, dur);
    return next;
}

void
TimedController::setReference(double ips0, double power0)
{
    inner_.setReference(ips0, power0);
}

std::pair<double, double>
TimedController::reference() const
{
    return inner_.reference();
}

void
TimedController::initialize(const KnobSettings &initial)
{
    inner_.initialize(initial);
}

std::string
TimedController::name() const
{
    return inner_.name();
}

ControllerHealth
TimedController::health() const
{
    return inner_.health();
}

// ------------------------------------------------------------- replays

Replay
replayStreams(const std::vector<std::string> &apps, uint64_t seed_salt,
              uint64_t ops)
{
    Replay r;
    for (const std::string &name : apps) {
        SyntheticStream stream(Spec2006Suite::byName(name), seed_salt);
        const auto t0 = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < ops; ++i) {
            const MicroOp op = stream.next();
            r.checksum = r.checksum * 31 + (op.addr ^ op.pc) +
                static_cast<uint64_t>(op.cls) + op.srcDist0;
            if ((i + 1) % kOpsPerEpoch == 0)
                stream.nextEpoch();
        }
        r.seconds += secondsSince(t0);
        r.items += ops;
    }
    return r;
}

Replay
replayMemory(const std::vector<std::string> &apps, uint64_t seed_salt,
             uint64_t accesses)
{
    constexpr double kBaselineGhz = 1.3; // Table III frequency level 8
    struct Access
    {
        uint64_t addr;
        bool write;
    };
    std::vector<Access> trace;
    trace.reserve(accesses);
    Replay r;
    for (const std::string &name : apps) {
        trace.clear();
        SyntheticStream stream(Spec2006Suite::byName(name), seed_salt);
        for (uint64_t i = 0; trace.size() < accesses; ++i) {
            const MicroOp op = stream.next();
            if (op.cls == OpClass::Load || op.cls == OpClass::Store)
                trace.push_back({op.addr, op.cls == OpClass::Store});
            if ((i + 1) % kOpsPerEpoch == 0)
                stream.nextEpoch();
        }
        MemoryHierarchy mem;
        const auto t0 = std::chrono::steady_clock::now();
        for (const Access &a : trace) {
            const MemAccessResult res =
                mem.accessData(a.addr, a.write, kBaselineGhz);
            r.checksum = r.checksum * 31 + res.latencyCycles;
        }
        r.seconds += secondsSince(t0);
        r.items += trace.size();
    }
    return r;
}

std::vector<SysIdRecord>
replaySysId(const KnobSpace &knobs, const ExperimentConfig &cfg,
            Replay &timing)
{
    const MimoControllerDesign flow(knobs, cfg);
    std::vector<SysIdRecord> records;
    const auto t0 = std::chrono::steady_clock::now();
    for (const AppSpec &app : Spec2006Suite::trainingSet()) {
        SimPlant plant(app, knobs);
        records.push_back(flow.collectRecord(
            plant, cfg.sysidEpochsPerApp,
            sysidSeed("sysid-train", app.name)));
    }
    for (const AppSpec &app : Spec2006Suite::validationSet()) {
        SimPlant plant(app, knobs, {}, /*seed_salt=*/17);
        records.push_back(flow.collectRecord(
            plant, cfg.validationEpochsPerApp,
            sysidSeed("sysid-validate", app.name)));
    }
    timing.seconds = secondsSince(t0);
    timing.items = records.size();
    return records;
}

bool
replayFit(const KnobSpace &knobs, const ExperimentConfig &cfg,
          const std::vector<SysIdRecord> &records,
          const MimoDesignResult &reference, Replay &timing)
{
    const size_t n_train = Spec2006Suite::trainingSet().size();
    const std::vector<SysIdRecord> train(records.begin(),
                                         records.begin() + n_train);
    const std::vector<SysIdRecord> validate(records.begin() + n_train,
                                            records.end());

    const auto t0 = std::chrono::steady_clock::now();
    const SysIdRecord all = MimoControllerDesign::concatenate(
        MimoControllerDesign::alignOperatingPoints(train));
    StateSpaceModel model = identify(all.u, all.y, cfg.arxConfig());
    model.rn = model.rn * cfg.measurementNoiseInflation;
    const SysIdRecord vall = MimoControllerDesign::concatenate(validate);
    (void)validateModel(model, vall.u, vall.y);

    LqgWeights weights = cfg.lqgWeights(knobs.hasRob());
    const InputLimits limits{knobs.lowerLimits(), knobs.upperLimits()};
    const std::vector<double> w_scaled = MimoControllerDesign::
        scaledGuardbands(model, {cfg.ipsGuardband, cfg.powerGuardband});
    const RobustStabilityAnalyzer rsa;
    for (int attempt = 0; attempt <= reference.weightAdjustments;
         ++attempt) {
        if (attempt > 0)
            for (double &wi : weights.inputWeights)
                wi *= 2.0;
        auto ctrl = LqgServoController::tryMake(model, weights, limits);
        if (ctrl.ok())
            rsa.analyze(model, ctrl.value().controllerRealization(),
                        w_scaled);
    }
    timing.seconds = secondsSince(t0);
    timing.items = 1 + static_cast<uint64_t>(reference.weightAdjustments);

    return sameBits(model.a, reference.model.a) &&
        sameBits(model.b, reference.model.b) &&
        sameBits(model.c, reference.model.c) &&
        sameBits(model.rn, reference.model.rn) &&
        weights.inputWeights == reference.weights.inputWeights;
}

} // namespace perfbench
