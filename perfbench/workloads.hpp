/**
 * @file
 * The benchmark's workloads and the one job kind they run: a closed
 * MIMO + optimizer (k=2) loop or a fixed-setting Baseline loop on one
 * production app, for a fixed number of epochs. See README.md for why
 * each workload exists and which layer it isolates.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/design_flow.hpp"
#include "core/harness.hpp"
#include "exec/resilient.hpp"
#include "probes.hpp"

namespace perfbench {

struct Workload
{
    std::string name;
    mimoarch::PlantFidelity fidelity;
    bool rob;                      //!< 3-input knobs (Fig. 10).
    std::vector<std::string> apps; //!< Production apps only.
    size_t epochs;      //!< Controlled epochs per job (plus warm-up).
    size_t blockEpochs; //!< Epochs per loop timing block when traced.
    size_t abEpochs;    //!< Controlled epochs per job in the A/B loop.
    unsigned abPairs;   //!< Armed/disarmed round pairs in the A/B.
};

/** The workload called @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Names of all workloads, for usage text. */
std::string workloadNames();

/** The figure benches' configuration at the workload's plant tier. */
mimoarch::ExperimentConfig workloadConfig(const Workload &w);

/** Table III's best-static Baseline setting (also every start point). */
mimoarch::KnobSettings baselineSettings();

/**
 * One MIMO and one Baseline job per app: every MIMO job first, in app
 * order, then every Baseline job. The MIMO jobs are the longer ones, so
 * starting them first shortens the idle tail of a round.
 */
std::vector<mimoarch::exec::JobKey> jobKeys(const Workload &w);

/** One finished job. Default-constructed means "did not finish". */
struct JobResult
{
    uint64_t digest = 0; //!< digest(RunSummary).
    double energyJ = 0.0, timeS = 0.0, instrB = 0.0;
    double exd = 0.0;        //!< E x D per unit work (k = 2).
    uint64_t epochs = 0;     //!< Plant epochs stepped, warm-up included.
    double hostSeconds = 0.0; //!< The whole job.
    double loopSeconds = 0.0; //!< Its controlled epochs only.
    std::unique_ptr<LayerProbes> probes; //!< Only when run with probes.
};

/** Everything a job needs besides its key. */
struct JobSpec
{
    const Workload &workload;
    const mimoarch::ExperimentConfig &config;
    const mimoarch::MimoDesignResult &design;
    uint64_t seed;        //!< Every plant's seed_salt.
    size_t epochs;        //!< Controlled epochs.
    bool probe;           //!< Run through TimedPlant/TimedController.
};

JobResult runJob(const JobSpec &spec, const mimoarch::exec::JobContext &ctx);

/**
 * Step a Baseline SimPlant of each app for @p epochs through a
 * TimedPlant: the cycle-level counts of an analytic workload's apps.
 */
LayerProbes probeCycleLevel(const std::vector<std::string> &apps,
                            uint64_t seed, size_t epochs, bool rob);

} // namespace perfbench
