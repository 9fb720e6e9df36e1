#include "workloads.hpp"

#include <chrono>
#include <memory>
#include <optional>

#include "exec/plant_factory.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace perfbench {

using namespace mimoarch;

namespace {

const std::vector<Workload> &
workloads()
{
    using F = PlantFidelity;
    // Cycle-level jobs run 2000 controlled epochs, the figure benches'
    // length, so the optimizer finishes its search. Analytic jobs run
    // longer because a surrogate epoch costs ~1/1000 of a cycle-level
    // one; the A/B loop there is the timed round itself.
    static const std::vector<Workload> all = {
        {"cycle_mem", F::CycleLevel, false,
         {"mcf", "omnetpp", "GemsFDTD", "lbm", "libquantum", "soplex"},
         2000, 1, 40, 3},
        {"cycle_compute", F::CycleLevel, true,
         {"gamess", "gromacs", "povray", "cactusADM", "sphinx3", "tonto"},
         2000, 1, 40, 3},
        {"analytic_mix", F::Analytic, false,
         {"mcf", "lbm", "gamess", "povray"},
         20000, 256, 20000, 12},
    };
    return all;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string out;
    for (const Workload &w : workloads())
        out += (out.empty() ? "" : "|") + w.name;
    return out;
}

ExperimentConfig
workloadConfig(const Workload &w)
{
    ExperimentConfig cfg; // the figure benches' reduced identification
    cfg.sysidEpochsPerApp = 800;
    cfg.validationEpochsPerApp = 400;
    cfg.fidelity = w.fidelity;
    return cfg;
}

KnobSettings
baselineSettings()
{
    KnobSettings s;
    s.freqLevel = 8;     // 1.3 GHz
    s.cacheSetting = 2;  // (6,3) associativity
    s.robPartitions = 3; // 48 entries
    return s;
}

std::vector<exec::JobKey>
jobKeys(const Workload &w)
{
    std::vector<exec::JobKey> keys;
    for (const char *controller : {"MIMO", "Baseline"})
        for (const std::string &app : w.apps)
            keys.push_back({app, controller, 0, 0});
    return keys;
}

JobResult
runJob(const JobSpec &spec, const exec::JobContext &ctx)
{
    const auto t0 = std::chrono::steady_clock::now();
    const Workload &w = spec.workload;
    const AppSpec &app = Spec2006Suite::byName(ctx.key.app);
    const KnobSpace knobs(w.rob);
    const bool mimo = ctx.key.controller == "MIMO";

    std::unique_ptr<Plant> plant =
        exec::makePlant(app, knobs, spec.config, {}, spec.seed);
    std::unique_ptr<ArchController> controller;
    if (mimo) {
        controller = MimoControllerDesign(knobs, spec.config)
                         .buildController(spec.design);
    } else {
        controller = std::make_unique<FixedController>(baselineSettings());
    }

    JobResult r;
    // Per-call spans only at the cycle tier: an analytic round steps
    // ~10^5 epochs, which would flood the trace buffer.
    const bool span_calls = w.fidelity == PlantFidelity::CycleLevel;
    std::optional<TimedPlant> timed_plant;
    std::optional<TimedController> timed_controller;
    Plant *p = plant.get();
    ArchController *c = controller.get();
    if (spec.probe) {
        r.probes = std::make_unique<LayerProbes>();
        p = &timed_plant.emplace(*plant, *r.probes, span_calls);
        c = &timed_controller.emplace(*controller, *r.probes, span_calls);
    }

    DriverConfig dcfg;
    dcfg.epochs = spec.epochs;
    dcfg.fidelity = spec.config.fidelity;
    dcfg.useOptimizer = mimo;
    dcfg.optimizer.metricExponent = 2;
    // The surrogate has no program phases, so the phase detector never
    // restarts the search; without a periodic restart an analytic job's
    // E x D would rest on one noisy search.
    dcfg.optimizerPeriodicRestart = w.fidelity == PlantFidelity::Analytic;
    dcfg.cancel = &ctx.cancel;
    EpochDriver driver(*p, *c, dcfg);

    telemetry::Span job_span("job", "exec");
    driver.begin(baselineSettings());
    const auto loop0 = std::chrono::steady_clock::now();
    if (!spec.probe) {
        for (size_t t = 0; t < spec.epochs; ++t)
            driver.stepEpoch();
    } else {
        LayerProbes &pr = *r.probes;
        for (size_t t = 0; t < spec.epochs; t += w.blockEpochs) {
            const size_t n = std::min(w.blockEpochs, spec.epochs - t);
            const uint64_t plant0 = pr.plantNs, control0 = pr.controlNs;
            const uint64_t b0 = telemetry::nowNs();
            for (size_t k = 0; k < n; ++k)
                driver.stepEpoch();
            const uint64_t dur = telemetry::nowNs() - b0;
            if (telemetry::trace().enabled())
                telemetry::trace().complete("epoch.block", "loop", b0, dur,
                                            "epochs",
                                            static_cast<int64_t>(n));
            pr.loopNs += dur;
            pr.loopEpochs += n;
            pr.loopPlantNs += pr.plantNs - plant0;
            pr.loopControlNs += pr.controlNs - control0;
            pr.epochHist.record(dur / n);
        }
    }
    r.loopSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - loop0)
                        .count();
    const RunSummary sum = driver.finish();

    r.digest = digest(sum);
    r.energyJ = sum.totalEnergyJ;
    r.timeS = sum.totalTimeS;
    r.instrB = sum.totalInstrB;
    r.exd = sum.exdMetric(2);
    r.epochs = dcfg.warmupEpochs + spec.epochs;
    r.hostSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return r;
}

LayerProbes
probeCycleLevel(const std::vector<std::string> &apps, uint64_t seed,
                size_t epochs, bool rob)
{
    LayerProbes probes;
    const KnobSpace knobs(rob);
    for (const std::string &name : apps) {
        SimPlant sim(Spec2006Suite::byName(name), knobs, {}, seed);
        TimedPlant plant(sim, probes, false);
        for (size_t e = 0; e < epochs; ++e)
            plant.step(baselineSettings());
    }
    return probes;
}

} // namespace perfbench
