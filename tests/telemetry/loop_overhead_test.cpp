/**
 * @file
 * End-to-end telemetry overhead guard: the same epoch loop (SimPlant +
 * FixedController) timed with the trace disarmed and armed. The per-epoch instrumentation is a handful
 * of counter adds and one Span, so the armed loop must stay within a
 * generous multiple of the disarmed one — this only exists to catch a
 * regression that puts a lock, allocation, or syscall on the per-epoch
 * path, not to measure the real overhead (perfbench's
 * telemetry.armed_ns_per_epoch measures that over interleaved
 * armed/disarmed pairs).
 */

#include <gtest/gtest.h>

#include <chrono>

#include "core/controllers.hpp"
#include "core/harness.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/spec_suite.hpp"

namespace mimoarch {
namespace {

/** Wall seconds for one serial fixed-knob run of @p epochs epochs. */
double
loopSeconds(unsigned epochs)
{
    const KnobSpace knobs(false);
    KnobSettings fixed_at;
    fixed_at.freqLevel = 8;
    fixed_at.cacheSetting = 2;
    FixedController ctrl(fixed_at);
    SimPlant plant(Spec2006Suite::byName("namd"), knobs);
    DriverConfig dcfg;
    dcfg.epochs = epochs;
    EpochDriver driver(plant, ctrl, dcfg);
    const auto t0 = std::chrono::steady_clock::now();
    (void)driver.run(KnobSettings{});
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

TEST(TelemetryOverhead, ArmedEpochLoopStaysWithinTheBudget)
{
    ASSERT_FALSE(telemetry::trace().enabled());
    constexpr unsigned kEpochs = 20000;
    loopSeconds(2000); // Warm the suite and code paths once.

    const double off_s = loopSeconds(kEpochs);

    telemetry::trace().start(size_t{1} << 20);
    const double on_s = loopSeconds(kEpochs);
    telemetry::trace().stop();
    telemetry::trace().clear();

    // Generous: 4x the disarmed loop plus 250 ms of absolute slack so
    // a loaded CI machine cannot flake this; the real ratio is a few
    // percent.
    EXPECT_LT(on_s, 4.0 * off_s + 0.25)
        << "telemetry-armed loop took " << on_s << " s vs " << off_s
        << " s disarmed over " << kEpochs << " epochs";
}

} // namespace
} // namespace mimoarch
