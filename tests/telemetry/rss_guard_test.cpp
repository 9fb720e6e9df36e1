/**
 * @file
 * Telemetry peak-RSS guard: arming the trace buffer for a multi-app
 * sweep must not balloon resident memory. The TraceBuffer is sized
 * from the configured sweep length (telemetry::traceCapacityForEpochs)
 * rather than a fixed worst-case preallocation, so the armed sweep's
 * peak RSS must stay within 2x the disarmed sweep's — the ROADMAP
 * guard for "telemetry that scales with the workload". The wall-time
 * cost of arming is measured by perfbench's
 * telemetry.armed_ns_per_epoch over interleaved armed/disarmed pairs;
 * this tier-1 test only pins the memory bound.
 *
 * Ordering is load-bearing: getrusage() peak RSS is monotonic over a
 * process's life, so the disarmed sweep MUST run first — if the armed
 * sweep ran first, its peak would be charged to the disarmed
 * measurement too and the ratio would be vacuously 1.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "core/controllers.hpp"
#include "core/harness.hpp"
#include "exec/sweep.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One 6-app fixed-knob sweep (the hotpath bench's shape, shorter). */
void
runSixAppSweep(size_t epochs)
{
    const std::vector<std::string> apps = {"perlbench", "bzip2",
                                           "gcc",       "mcf",
                                           "milc",      "namd"};
    exec::SweepOptions opt;
    opt.jobs = 1;
    exec::SweepRunner runner(opt);
    std::vector<exec::JobKey> keys;
    for (const std::string &app : apps)
        keys.push_back({app, "rss-guard", 0, 0});
    KnobSettings fixed_at;
    fixed_at.freqLevel = 8;
    fixed_at.cacheSetting = 2;
    const auto out = runner.mapJobs<double>(
        keys, /*fingerprint=*/0x55D33Au,
        [&](const exec::JobContext &ctx) {
            const KnobSpace knobs(false);
            SimPlant plant(Spec2006Suite::byName(ctx.key.app), knobs);
            FixedController ctrl(fixed_at);
            DriverConfig dcfg;
            dcfg.epochs = epochs;
            dcfg.cancel = &ctx.cancel;
            EpochDriver driver(plant, ctrl, dcfg);
            return driver.run(KnobSettings{}).exdMetric(2);
        });
    ASSERT_EQ(out.results.size(), apps.size());
}

TEST(TelemetryRssGuard, ArmedSweepPeakRssWithinTwiceDisarmed)
{
    ASSERT_FALSE(telemetry::trace().enabled())
        << "another test left the trace buffer armed";
    const size_t epochs = 150;
    const size_t total_epochs = 6 * epochs;

    // Disarmed first (see the file comment: peak RSS is monotonic).
    runSixAppSweep(epochs);
    const double peak_off = peakRssMb();
    ASSERT_GT(peak_off, 0.0);

    // Armed, buffer sized from the configured sweep length.
    telemetry::trace().start(
        telemetry::traceCapacityForEpochs(total_epochs));
    runSixAppSweep(epochs);
    const double peak_on = peakRssMb();
    const size_t captured = telemetry::trace().size();
    telemetry::trace().stop();
    telemetry::trace().clear();

    // Non-vacuous: the armed sweep really traced something.
    EXPECT_GT(captured, 0u) << "armed sweep captured no trace events";

    EXPECT_LE(peak_on, 2.0 * peak_off)
        << "telemetry-armed sweep peaked at " << peak_on
        << " MB vs " << peak_off << " MB disarmed ("
        << total_epochs << " epochs, buffer capacity "
        << telemetry::traceCapacityForEpochs(total_epochs) << ")";
}

} // namespace
} // namespace mimoarch
