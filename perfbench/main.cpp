/**
 * @file
 * The repository benchmark (README.md): runs one workload's campaign
 * from a single process on a fixed number of SweepRunner workers and
 * prints, as the last line of standard output, one JSON object with the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * Every job is one operation; a job that throws, times out or returns a
 * non-finite or non-positive energy, time or instruction count fails,
 * and so does any digest that differs between repeated rounds or
 * between the traced and untraced runs. Exit status 0 means every
 * output was correct.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/fileio.hpp"
#include "common/hash.hpp"
#include "exec/design_cache.hpp"
#include "exec/sweep.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"
#include "workloads.hpp"

using namespace mimoarch;
using namespace perfbench;

namespace {

constexpr unsigned kMaxWorkers = 4;
constexpr int kSetupReps = 3;
constexpr double kJobTimeoutS = 150.0;
constexpr uint64_t kStreamOps = 2'000'000;    // per app
constexpr uint64_t kMemAccesses = 1'000'000;  // per app
constexpr size_t kCycleProbeEpochs = 300;     // per app, analytic tier

struct Args
{
    const Workload *workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload %s --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n",
                 why.c_str(), workloadNames().c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = findWorkload(v);
            if (!a.workload)
                usage("unknown workload '" + v + "'");
            have[0] = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have[1] = !v.empty() && *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            have[2] = !v.empty() && *end == '\0' && a.seconds > 0 &&
                a.seconds <= 600;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
            have[3] = true;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown argument " + flag);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required, "
              "with valid values");
    return a;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Quartiles by the exclusive method, as Python's statistics.quantiles
 * (v, n=4) gives them for three or more values (it extrapolates for
 * two; this clamps).
 */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const auto at = [&](double pos) { // 1-based, exclusive method
        pos = std::clamp(pos, 1.0, n);
        const size_t lo = static_cast<size_t>(pos);
        const double frac = pos - static_cast<double>(lo);
        const double a = v[lo - 1];
        return lo < v.size() ? a + frac * (v[lo] - a) : a;
    };
    return {at((n + 1) * 0.25), at((n + 1) * 0.75)};
}

/** One mapJobs() sweep over the workload's jobs. */
struct Round
{
    std::vector<JobResult> results;
    double wallS = 0.0;

    uint64_t
    epochs() const
    {
        uint64_t n = 0;
        for (const JobResult &r : results)
            n += r.epochs;
        return n;
    }

    double
    jobSeconds() const
    {
        double s = 0.0;
        for (const JobResult &r : results)
            s += r.hostSeconds;
        return s;
    }

    double
    loopSeconds() const
    {
        double s = 0.0;
        for (const JobResult &r : results)
            s += r.loopSeconds;
        return s;
    }
};

class Bench
{
  public:
    explicit Bench(const Args &args)
        : w_(*args.workload), cfg_(workloadConfig(w_)), knobs_(w_.rob),
          seed_(args.seed), keys_(jobKeys(w_)), runner_(sweepOptions())
    {}

    unsigned workers() const { return runner_.jobs(); }
    const KnobSpace &knobs() const { return knobs_; }
    const ExperimentConfig &config() const { return cfg_; }
    const Workload &workload() const { return w_; }
    const std::vector<exec::JobKey> &keys() const { return keys_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return problems_.empty(); }

    void
    problem(const std::string &what)
    {
        std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
        problems_.push_back(what);
    }

    /**
     * Set-up work as parallel jobs on the runner: the design flow when
     * @p design, each app's surrogate calibration when @p calibrate.
     * Returns host seconds.
     */
    double
    prepare(exec::DesignCache &cache, bool design, bool calibrate)
    {
        std::vector<exec::JobKey> keys;
        if (design)
            keys.push_back({"", "design", 0, 0});
        if (calibrate)
            for (const std::string &app : w_.apps)
                keys.push_back({app, "calibrate", 0, 0});
        const double t0 = now();
        const auto out = runner_.mapJobs<int>(
            keys, cfg_.fingerprint(), [&](const exec::JobContext &ctx) {
                if (ctx.key.controller == "design")
                    cache.design(knobs_, cfg_);
                else
                    cache.surrogate(Spec2006Suite::byName(ctx.key.app),
                                    knobs_, cfg_);
                return 1;
            });
        if (!out.report.complete())
            throw std::runtime_error("set-up job " +
                                     out.report.failures[0].key.label() +
                                     " failed: " +
                                     out.report.failures[0].message);
        return now() - t0;
    }

    /**
     * The cold set-up a user pays before the first epoch: the design
     * flow, plus surrogate calibration at the analytic tier.
     */
    double
    setup(exec::DesignCache &cache)
    {
        return prepare(cache, true,
                       w_.fidelity == PlantFidelity::Analytic);
    }

    void
    useDesign(std::shared_ptr<const MimoDesignResult> design)
    {
        design_ = std::move(design);
    }

    /** Run every job once for @p epochs controlled epochs. */
    Round
    round(size_t epochs, bool probe)
    {
        const JobSpec spec{w_, cfg_, *design_, seed_, epochs, probe};
        Round r;
        const double t0 = now();
        exec::SweepOutcome<JobResult> out = runner_.mapJobs<JobResult>(
            keys_, cfg_.fingerprint(),
            [&](const exec::JobContext &ctx) { return runJob(spec, ctx); },
            [](const JobResult &j) {
                const auto good = [](double v) {
                    return std::isfinite(v) && v > 0.0;
                };
                return good(j.energyJ) && good(j.timeS) && good(j.instrB);
            });
        r.wallS = now() - t0;
        r.results = std::move(out.results);
        attempted_ += keys_.size();
        failed_ += out.report.failures.size();
        for (const exec::JobFailure &f : out.report.failures)
            problem("job " + f.key.label() + " failed: " + f.message);
        return r;
    }

    /** Fail unless @p r digests like @p ref, job by job. */
    void
    expectSameDigests(const Round &ref, const Round &r, const char *what)
    {
        for (size_t i = 0; i < keys_.size(); ++i)
            if (r.results[i].digest != ref.results[i].digest)
                problem(std::string(what) + ": digest of " +
                        keys_[i].label() + " differs");
    }

    /** Geometric mean over apps of MIMO E x D / Baseline E x D. */
    double
    exdVsBaseline(const Round &r) const
    {
        const size_t n = w_.apps.size(); // MIMO jobs, then Baseline
        double log_sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            log_sum += std::log(r.results[i].exd / r.results[n + i].exd);
        return std::exp(log_sum / static_cast<double>(n));
    }

    /** Per-job and per-workload digests, with the seed. */
    void
    printDigests(const Round &r) const
    {
        Fnv64 h;
        h.str(w_.name).u64(seed_);
        for (size_t i = 0; i < keys_.size(); ++i) {
            const JobResult &j = r.results[i];
            std::printf("job %-22s digest %016llx exd %.9g host_s %.3f\n",
                        keys_[i].label().c_str(),
                        static_cast<unsigned long long>(j.digest), j.exd,
                        j.hostSeconds);
            h.u64(j.digest);
        }
        std::printf("workload %s seed %llu digest %016llx\n",
                    w_.name.c_str(), static_cast<unsigned long long>(seed_),
                    static_cast<unsigned long long>(h.value()));
    }

  private:
    static exec::SweepOptions
    sweepOptions()
    {
        exec::SweepOptions opt;
        opt.jobs = std::clamp(std::thread::hardware_concurrency(), 1u,
                              kMaxWorkers);
        opt.resilient.maxAttempts = 1;
        opt.resilient.jobTimeoutS = kJobTimeoutS;
        opt.resilient.maxFailures = UINT64_MAX;
        return opt;
    }

    const Workload &w_;
    const ExperimentConfig cfg_;
    const KnobSpace knobs_;
    const uint64_t seed_;
    const std::vector<exec::JobKey> keys_;
    exec::SweepRunner runner_;
    std::shared_ptr<const MimoDesignResult> design_;
    uint64_t attempted_ = 0, failed_ = 0;
    std::vector<std::string> problems_;
};

/** Metrics in print order, each with its unit. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    print(const Bench &b) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    b.correct() ? "true" : "false",
                    static_cast<unsigned long long>(b.attempted()),
                    static_cast<unsigned long long>(b.failed()));
        for (size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            const double v = std::isfinite(e.value) ? e.value : 0.0;
            std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                        i ? ", " : "", e.name.c_str(), v, e.unit);
        }
        std::printf("}}\n");
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Repeated rounds of the workload's jobs. Only the first round's
 * results are kept (every later one must digest like it); the rest is
 * folded into totals so memory does not grow with the round count.
 */
struct Phase
{
    Round first;
    size_t rounds = 0;
    double epochs = 0.0, wallS = 0.0, jobS = 0.0, jobSMax = 0.0;
    LayerProbes probes;     //!< Merged over every job and round.
    LayerProbes mimoProbes; //!< Merged over the MIMO jobs only.

    double epochsPerSecond() const { return epochs / wallS; }
};

/**
 * Add rounds to @p ph until @p seconds more host time have passed (at
 * least one round), or exactly @p rounds rounds when it is non-zero.
 * With a @p trace_capacity the phase's first round records into the
 * telemetry trace buffer.
 */
void
runRounds(Bench &b, Phase &ph, double seconds, size_t rounds, bool probe,
          size_t trace_capacity = 0)
{
    const size_t rounds0 = ph.rounds;
    const double wall0 = ph.wallS;
    while (rounds ? ph.rounds - rounds0 < rounds
                  : ph.rounds == rounds0 || ph.wallS - wall0 < seconds) {
        const bool arm = trace_capacity > 0 && ph.rounds == 0;
        if (arm)
            telemetry::trace().start(trace_capacity);
        Round r = b.round(b.workload().epochs, probe);
        if (arm)
            telemetry::trace().stop();
        ph.epochs += static_cast<double>(r.epochs());
        ph.wallS += r.wallS;
        ph.jobS += r.jobSeconds();
        for (size_t i = 0; i < r.results.size(); ++i) {
            const JobResult &j = r.results[i];
            ph.jobSMax = std::max(ph.jobSMax, j.hostSeconds);
            if (!j.probes)
                continue;
            ph.probes.merge(*j.probes);
            if (b.keys()[i].controller == "MIMO")
                ph.mimoProbes.merge(*j.probes);
        }
        if (ph.rounds++ == 0)
            ph.first = std::move(r);
        else
            b.expectSameDigests(ph.first, r, "repeated round");
    }
}

int
endToEnd(Bench &b, const Args &args)
{
    // Host speed on a shared machine drifts over tens of seconds, so
    // the three cold set-ups and three slices of the timed phase
    // alternate: both medians then span the whole run. The first set-up
    // fills the process cache the jobs read the design and surrogates
    // from; the others start from an empty cache of their own.
    std::vector<double> setups;
    Phase timed;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep == 0) {
            setups.push_back(b.setup(exec::DesignCache::instance()));
            b.useDesign(
                exec::DesignCache::instance().design(b.knobs(), b.config()));
        } else {
            exec::DesignCache fresh;
            setups.push_back(b.setup(fresh));
        }
        runRounds(b, timed, args.seconds / kSetupReps, 0, false);
    }
    b.printDigests(timed.first);
    std::printf("rounds %zu setup_s reps", timed.rounds);
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");

    Metrics m;
    m.add("epochs_per_s", timed.epochsPerSecond(), "1/s");
    m.add("setup_s", median(setups), "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("exd_vs_baseline", b.exdVsBaseline(timed.first), "ratio");
    m.print(b);
    return b.correct() ? 0 : 1;
}

/** Interleaved armed/disarmed rounds: ns per controlled epoch. */
std::vector<double>
telemetryAb(Bench &b, size_t capacity)
{
    const Workload &w = b.workload();
    std::vector<double> diffs;
    for (unsigned pair = 0; pair < w.abPairs; ++pair) {
        double loop_s[2] = {0.0, 0.0}; // [disarmed, armed]
        for (int side = 0; side < 2; ++side) {
            const bool armed = (pair % 2 == 0) == (side == 1);
            if (armed)
                telemetry::trace().start(capacity);
            loop_s[armed] = b.round(w.abEpochs, false).loopSeconds();
            if (armed)
                telemetry::trace().stop();
        }
        const double epochs =
            static_cast<double>(w.abEpochs * b.keys().size());
        diffs.push_back((loop_s[1] - loop_s[0]) / epochs * 1e9);
    }
    return diffs;
}

int
traced(Bench &b, const Args &args)
{
    const Workload &w = b.workload();
    const ExperimentConfig &cfg = b.config();
    const KnobSpace &knobs = b.knobs();
    const bool analytic = w.fidelity == PlantFidelity::Analytic;

    // Set-up, split by layer: identification experiments, the fit, and
    // surrogate calibration, each on its own.
    Replay sysid, fit;
    const std::vector<SysIdRecord> records = replaySysId(knobs, cfg, sysid);
    const double d0 = now();
    auto design = exec::DesignCache::instance().design(knobs, cfg);
    const double design_s = now() - d0;
    const bool fit_matches = replayFit(knobs, cfg, records, *design, fit);
    b.useDesign(design);
    exec::DesignCache throwaway;
    const double calibration_s = b.prepare(
        analytic ? exec::DesignCache::instance() : throwaway, false, true);
    std::printf("setup design_s %.4f sysid_sim_s %.4f fit_s %.4f "
                "calibration_s %.4f fit_replay_matches_design %s\n",
                design_s, sysid.seconds, fit.seconds, calibration_s,
                fit_matches ? "yes" : "no");
    if (!fit_matches)
        std::fprintf(stderr, "perfbench: warning: the fit replay no longer "
                             "reproduces design(); setup.fit_s is stale\n");

    // Untraced rounds, then the armed/disarmed A/B, then as many traced
    // rounds; the first traced round records the telemetry trace.
    Phase plain;
    runRounds(b, plain, args.seconds / 2, 0, false);
    const size_t events_per_epoch = analytic ? 1 : 4;
    const size_t capacity = telemetry::traceCapacityForEpochs(
        events_per_epoch * plain.first.epochs());
    const std::vector<double> ab = telemetryAb(b, capacity);
    Phase probed;
    runRounds(b, probed, 0.0, plain.rounds, true, capacity);
    b.expectSameDigests(plain.first, probed.first, "traced round");
    std::printf("trace events %zu dropped %llu\n", telemetry::trace().size(),
                static_cast<unsigned long long>(telemetry::trace().dropped()));
    if (!args.traceOut.empty() &&
        !writeFileAtomic(args.traceOut,
                         telemetry::renderChromeTrace(telemetry::trace())))
        b.problem("cannot write the trace to " + args.traceOut);
    b.printDigests(plain.first);

    // The exact counts of one round (every round repeats them).
    const LayerProbes &all = probed.probes;
    LayerProbes counted;
    if (analytic) {
        counted = probeCycleLevel(w.apps, args.seed, kCycleProbeEpochs, w.rob);
    } else {
        for (const JobResult &j : probed.first.results)
            if (j.probes)
                counted.merge(*j.probes);
    }
    const SimCounts &sim = counted.sim;
    std::printf("sim epochs %llu cycles %llu committed %llu fetched %llu "
                "issued %llu rob_occupancy_sum %llu rob_full_stall_cycles "
                "%llu l2_misses %llu\n",
                static_cast<unsigned long long>(sim.epochs),
                static_cast<unsigned long long>(sim.cycles),
                static_cast<unsigned long long>(sim.committed),
                static_cast<unsigned long long>(sim.fetched),
                static_cast<unsigned long long>(sim.issued),
                static_cast<unsigned long long>(sim.robOccupancySum),
                static_cast<unsigned long long>(sim.robFullStallCycles),
                static_cast<unsigned long long>(sim.l2Misses));

    const Replay streams = replayStreams(w.apps, args.seed, kStreamOps);
    const Replay memory = replayMemory(w.apps, args.seed, kMemAccesses);
    std::printf("replay stream checksum %016llx memhier checksum %016llx\n",
                static_cast<unsigned long long>(streams.checksum),
                static_cast<unsigned long long>(memory.checksum));

    const auto per = [](auto num, auto den) {
        return static_cast<double>(num) / static_cast<double>(den);
    };
    const double plant_share = per(all.loopPlantNs, all.loopNs);
    std::printf("isolation plant_share_of_step_epoch %.4f\n", plant_share);
    const auto [ab_q1, ab_q3] = quartiles(ab);

    Metrics m;
    m.add("exec.job_s_max", plain.jobSMax, "s");
    m.add("exec.worker_busy_frac", plain.jobS / (b.workers() * plain.wallS),
          "ratio");
    m.add("loop.epoch_us_p50", all.epochHist.quantile(0.50) / 1e3, "us");
    m.add("loop.epoch_us_p99", all.epochHist.quantile(0.99) / 1e3, "us");
    m.add("loop.self_ns_per_epoch",
          per(all.loopNs - all.loopPlantNs - all.loopControlNs,
              all.loopEpochs),
          "ns");
    m.add("plant.step_us", per(all.plantNs, all.plantCalls) / 1e3, "us");
    m.add("plant.ns_per_sim_cycle", per(counted.plantNs, sim.cycles), "ns");
    m.add("sim.ipc", per(sim.committed, sim.cycles), "ratio");
    m.add("sim.issued_per_cycle", per(sim.issued, sim.cycles), "ratio");
    m.add("sim.rob_occupancy_mean", per(sim.robOccupancySum, sim.cycles),
          "entries");
    m.add("sim.l2_mpki", 1e3 * per(sim.l2Misses, sim.committed),
          "1/kinstr");
    m.add("sim.rob_full_stall_frac", per(sim.robFullStallCycles, sim.cycles),
          "ratio");
    m.add("stream.ns_per_op", 1e9 * streams.seconds / streams.items, "ns");
    m.add("memhier.ns_per_access", 1e9 * memory.seconds / memory.items,
          "ns");
    m.add("control.update_ns_p50",
          probed.mimoProbes.controlHist.quantile(0.50), "ns");
    m.add("control.update_ns_p99",
          probed.mimoProbes.controlHist.quantile(0.99), "ns");
    m.add("setup.sysid_sim_s", sysid.seconds, "s");
    m.add("setup.fit_s", fit.seconds, "s");
    m.add("setup.calibration_s", calibration_s, "s");
    m.add("telemetry.armed_ns_per_epoch", median(ab), "ns");
    m.add("telemetry.armed_ns_per_epoch_q1", ab_q1, "ns");
    m.add("telemetry.armed_ns_per_epoch_q3", ab_q3, "ns");
    m.add("trace.overhead_frac",
          plain.epochsPerSecond() / probed.epochsPerSecond() - 1.0, "ratio");
    m.print(b);
    return b.correct() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        Bench bench(args);
        std::printf("perfbench workload %s seed %llu workers %u jobs %zu\n",
                    args.workload->name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    bench.workers(), bench.keys().size());
        return args.trace ? traced(bench, args) : endToEnd(bench, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
