#include "exec/sweep.hpp"

#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::exec {

namespace {

/**
 * Legacy trace capacity a --telemetry run arms the global buffer with
 * when the caller does not size it (SweepOptions::traceEpochs == 0):
 * room for the per-epoch events of a full 23-app x 4-arch x
 * 2000-epoch figure sweep. Overflow drops (and counts) rather than
 * reallocating. Sized runs use telemetry::traceCapacityForEpochs()
 * instead, keeping telemetry-ON RSS proportional to the workload.
 */
constexpr size_t kTraceCapacity = size_t{1} << 19;

unsigned
parseJobCount(const char *text, const char *flag)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > 4096)
        fatal(flag, ": expected a job count in [1, 4096], got '", text,
              "'");
    return static_cast<unsigned>(v);
}

uint64_t
parseU64(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        fatal(flag, ": expected a non-negative integer, got '", text,
              "'");
    return static_cast<uint64_t>(v);
}

double
parseSeconds(const char *text, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0))
        fatal(flag, ": expected seconds >= 0, got '", text, "'");
    return v;
}

double
parseRate(const char *text, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0) || v > 1.0)
        fatal(flag, ": expected a probability in [0, 1], got '", text,
              "'");
    return v;
}

void
requireChaosBuild(const char *flag)
{
#if !MIMOARCH_CHAOS
    fatal(flag, ": this build prunes the chaos injector "
          "(MIMOARCH_CHAOS=0; use a Debug/RelWithDebInfo or sanitizer "
          "build for fault-injection campaigns)");
#else
    (void)flag;
#endif
}

/** Flag value: "--flag VALUE" or "--flag=VALUE". Null when @p arg is
 *  not @p flag; fatal when the value is missing. */
const char *
flagValue(const char *arg, const char *flag, int argc, char **argv,
          int &i)
{
    const size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return nullptr;
    if (arg[n] == '=')
        return arg + n + 1;
    if (arg[n] != '\0')
        return nullptr;
    if (i + 1 >= argc)
        fatal(flag, ": missing value");
    return argv[++i];
}

} // namespace

SweepOptions
parseSweepArgs(int argc, char **argv)
{
    SweepOptions opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *v = nullptr;
        if (std::strcmp(arg, "-j") == 0) {
            if (i + 1 >= argc)
                fatal(arg, ": missing job count");
            opt.jobs = parseJobCount(argv[++i], arg);
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            opt.jobs = parseJobCount(arg + 2, "-j");
        } else if ((v = flagValue(arg, "--jobs", argc, argv, i))) {
            opt.jobs = parseJobCount(v, "--jobs");
        } else if ((v = flagValue(arg, "--telemetry", argc, argv, i))) {
            opt.telemetry = v;
        } else if ((v = flagValue(arg, "--trace-epochs", argc, argv,
                                  i))) {
            opt.traceEpochs = static_cast<size_t>(
                parseU64(v, "--trace-epochs"));
        } else if (std::strcmp(arg, "--progress") == 0) {
            opt.progress = true;
        } else if ((v = flagValue(arg, "--fidelity", argc, argv, i))) {
            if (std::strcmp(v, "cycle") == 0)
                opt.fidelity = PlantFidelity::CycleLevel;
            else if (std::strcmp(v, "analytic") == 0)
                opt.fidelity = PlantFidelity::Analytic;
            else
                fatal("--fidelity: expected 'cycle' or 'analytic', "
                      "got '", v, "'");
        } else if ((v = flagValue(arg, "--retries", argc, argv, i))) {
            opt.resilient.maxAttempts =
                1 + static_cast<unsigned>(parseU64(v, "--retries"));
        } else if ((v = flagValue(arg, "--job-timeout", argc, argv,
                                  i))) {
            opt.resilient.jobTimeoutS = parseSeconds(v, "--job-timeout");
        } else if ((v = flagValue(arg, "--max-failures", argc, argv,
                                  i))) {
            opt.resilient.maxFailures = parseU64(v, "--max-failures");
        } else if (std::strcmp(arg, "--fail-fast") == 0) {
            opt.resilient.failFast = true;
        } else if ((v = flagValue(arg, "--resume", argc, argv, i))) {
            opt.resilient.resumePath = v;
        } else if ((v = flagValue(arg, "--failure-report", argc, argv,
                                  i))) {
            opt.resilient.failureReportPath = v;
        } else if ((v = flagValue(arg, "--chaos-seed", argc, argv, i))) {
            requireChaosBuild("--chaos-seed");
            opt.resilient.chaos.seed = parseU64(v, "--chaos-seed");
        } else if ((v = flagValue(arg, "--chaos-exception-rate", argc,
                                  argv, i))) {
            requireChaosBuild("--chaos-exception-rate");
            opt.resilient.chaos.exceptionRate =
                parseRate(v, "--chaos-exception-rate");
        } else if ((v = flagValue(arg, "--chaos-delay-rate", argc, argv,
                                  i))) {
            requireChaosBuild("--chaos-delay-rate");
            opt.resilient.chaos.delayRate =
                parseRate(v, "--chaos-delay-rate");
        } else if ((v = flagValue(arg, "--chaos-invalid-rate", argc,
                                  argv, i))) {
            requireChaosBuild("--chaos-invalid-rate");
            opt.resilient.chaos.invalidRate =
                parseRate(v, "--chaos-invalid-rate");
        } else if ((v = flagValue(arg, "--chaos-delay-ms", argc, argv,
                                  i))) {
            requireChaosBuild("--chaos-delay-ms");
            opt.resilient.chaos.delayMs =
                static_cast<uint32_t>(parseU64(v, "--chaos-delay-ms"));
        } else {
            fatal("unknown argument '", arg,
                  "' (benches accept --jobs N, --telemetry OUT.json, "
                  "--trace-epochs N, --progress, "
                  "--fidelity cycle|analytic, --retries N, "
                  "--job-timeout S, "
                  "--max-failures N, --fail-fast, --resume PATH, "
                  "--failure-report PATH, and --chaos-* flags in "
                  "fault-injection builds)");
        }
    }
    return opt;
}

SweepRunner::SweepRunner(const SweepOptions &options)
    : jobs_(options.jobs > 0 ? options.jobs
                             : ThreadPool::hardwareThreads()),
      progress_(options.progress), telemetryPath_(options.telemetry),
      resilient_(options.resilient)
{
    if (!telemetryPath_.empty() && !telemetry::trace().enabled()) {
        const size_t capacity =
            options.traceEpochs > 0
                ? telemetry::traceCapacityForEpochs(options.traceEpochs)
                : kTraceCapacity;
        telemetry::trace().start(capacity);
        armedTrace_ = true;
    }
    if (jobs_ > 1)
        pool_ = std::make_unique<ThreadPool>(jobs_);
}

SweepRunner::~SweepRunner()
{
    // Reports are written after the pool is gone: workers have joined,
    // so the trace buffer and registry are quiescent (and the pool's
    // shutdown-time utilization gauges are in).
    pool_.reset();
    if (!telemetryPath_.empty())
        telemetry::writeReports(telemetryPath_);
    else if (armedTrace_)
        telemetry::trace().stop();
}

} // namespace mimoarch::exec
