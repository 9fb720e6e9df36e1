/**
 * @file
 * SweepRunner and job-seeding unit tests: flag parsing, index-ordered
 * results at any worker count, exception routing, and the stability
 * properties jobSeed() promises.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hpp"

namespace mimoarch::exec {
namespace {

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return argv;
}

/** @p n distinct job keys; a job's index doubles as its rep. */
std::vector<JobKey>
keysFor(size_t n)
{
    std::vector<JobKey> keys;
    for (size_t i = 0; i < n; ++i)
        keys.push_back({"", "sweep", 0, i});
    return keys;
}

TEST(ParseSweepArgs, DefaultsToHardwareConcurrency)
{
    std::vector<std::string> args = {"bench"};
    auto argv = argvOf(args);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.jobs, 0u); // 0 = resolve to hardware concurrency
    EXPECT_FALSE(opt.progress);
}

TEST(ParseSweepArgs, AcceptsEveryJobsSpelling)
{
    const std::vector<std::vector<std::string>> cases = {
        {"bench", "--jobs", "4"},
        {"bench", "--jobs=4"},
        {"bench", "-j", "4"},
        {"bench", "-j4"},
    };
    for (std::vector<std::string> args : cases) {
        auto argv = argvOf(args);
        const SweepOptions opt =
            parseSweepArgs(static_cast<int>(argv.size()), argv.data());
        EXPECT_EQ(opt.jobs, 4u) << args[1];
    }
}

TEST(ParseSweepArgs, RejectsOutOfRangeJobCounts)
{
    const std::vector<std::vector<std::string>> cases = {
        {"bench", "--jobs", "0"},    {"bench", "--jobs", "-1"},
        {"bench", "--jobs", "4097"}, {"bench", "--jobs", "abc"},
        {"bench", "-j0"},
    };
    for (std::vector<std::string> args : cases) {
        auto argv = argvOf(args);
        EXPECT_EXIT(
            parseSweepArgs(static_cast<int>(argv.size()), argv.data()),
            ::testing::ExitedWithCode(1), "job count in \\[1, 4096\\]")
            << args.back();
    }
}

TEST(ParseSweepArgs, ParsesResilienceFlags)
{
    std::vector<std::string> args = {
        "bench",        "--retries=4",    "--job-timeout", "2.5",
        "--max-failures", "3",            "--fail-fast",
        "--resume",     "ckpt.journal",   "--failure-report=rep.json"};
    auto argv = argvOf(args);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.resilient.maxAttempts, 5u); // 1 try + 4 retries
    EXPECT_DOUBLE_EQ(opt.resilient.jobTimeoutS, 2.5);
    EXPECT_EQ(opt.resilient.maxFailures, 3u);
    EXPECT_TRUE(opt.resilient.failFast);
    EXPECT_EQ(opt.resilient.resumePath, "ckpt.journal");
    EXPECT_EQ(opt.resilient.failureReportPath, "rep.json");
}

TEST(ParseSweepArgs, ParsesChaosFlags)
{
    std::vector<std::string> args = {
        "bench", "--chaos-seed=9", "--chaos-exception-rate", "0.25",
        "--chaos-delay-rate=0.1", "--chaos-invalid-rate=0.05",
        "--chaos-delay-ms", "20"};
    auto argv = argvOf(args);
    const SweepOptions opt =
        parseSweepArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opt.resilient.chaos.seed, 9u);
    EXPECT_DOUBLE_EQ(opt.resilient.chaos.exceptionRate, 0.25);
    EXPECT_DOUBLE_EQ(opt.resilient.chaos.delayRate, 0.1);
    EXPECT_DOUBLE_EQ(opt.resilient.chaos.invalidRate, 0.05);
    EXPECT_EQ(opt.resilient.chaos.delayMs, 20u);
    EXPECT_TRUE(opt.resilient.chaos.any());
}

TEST(SweepRunner, ReportsAtLeastOneJob)
{
    SweepOptions opt;
    opt.jobs = 0;
    SweepRunner runner(opt);
    EXPECT_GE(runner.jobs(), 1u);
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepOptions opt;
        opt.jobs = jobs;
        SweepRunner runner(opt);
        const SweepOutcome<size_t> out = runner.mapJobs<size_t>(
            keysFor(100), 0,
            [](const JobContext &ctx) { return ctx.index * ctx.index; });
        ASSERT_EQ(out.results.size(), 100u);
        for (size_t i = 0; i < out.results.size(); ++i)
            EXPECT_EQ(out.results[i], i * i) << "jobs=" << jobs;
    }
}

TEST(SweepRunner, EmptySweepIsANoOp)
{
    SweepOptions opt;
    opt.jobs = 4;
    SweepRunner runner(opt);
    const SweepOutcome<int> out = runner.mapJobs<int>(
        keysFor(0), 0, [](const JobContext &) { return 1; });
    EXPECT_TRUE(out.results.empty());
    EXPECT_EQ(out.report.jobs, 0u);
}

TEST(SweepRunner, SerialRunnerExecutesInOrderOnThisThread)
{
    SweepOptions opt;
    opt.jobs = 1;
    SweepRunner runner(opt);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<size_t> order;
    (void)runner.mapJobs<int>(keysFor(10), 0, [&](const JobContext &ctx) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(ctx.index);
        return 0;
    });
    ASSERT_EQ(order.size(), 10u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepRunner, LowestIndexExceptionWins)
{
    SweepOptions opt;
    opt.jobs = 4;
    opt.resilient.maxAttempts = 1;
    SweepRunner runner(opt);
    std::atomic<int> completed{0};
    try {
        (void)runner.mapJobs<int>(
            keysFor(64), 0, [&](const JobContext &ctx) {
                if (ctx.index == 37 || ctx.index == 53)
                    throw std::runtime_error(std::to_string(ctx.index));
                completed.fetch_add(1);
                return 0;
            });
        FAIL() << "expected the job exception to propagate";
    } catch (const SweepError &e) {
        // First-failure context: the error names the lowest failing
        // job alongside its original message.
        ASSERT_EQ(e.failures().size(), 2u);
        EXPECT_EQ(e.failures().front().index, 37u);
        EXPECT_EQ(e.failures().front().message, "37");
        EXPECT_NE(std::string(e.what()).find("(job 37) failed after 1 "
                                             "attempt(s): exception: 37"),
                  std::string::npos)
            << e.what();
    }
    // Every non-throwing job still ran to completion.
    EXPECT_EQ(completed.load(), 62);
}

TEST(JobSeed, IsAPureFunctionOfTheKey)
{
    const JobKey key{"mcf", "MIMO", 3, 7};
    EXPECT_EQ(jobSeed(key), jobSeed(key));
    EXPECT_EQ(jobSeed(key), jobSeed(JobKey{"mcf", "MIMO", 3, 7}));
}

TEST(JobSeed, EveryKeyFieldChangesTheSeed)
{
    const JobKey base{"mcf", "MIMO", 3, 7};
    const std::vector<JobKey> variants = {
        {"lbm", "MIMO", 3, 7},
        {"mcf", "Heuristic", 3, 7},
        {"mcf", "MIMO", 4, 7},
        {"mcf", "MIMO", 3, 8},
    };
    for (const JobKey &k : variants)
        EXPECT_NE(jobSeed(k), jobSeed(base))
            << k.app << "/" << k.controller << "/" << k.config << "/"
            << k.rep;
}

TEST(JobSeed, FieldBoundariesAreUnambiguous)
{
    // Length-prefixed string hashing: moving a character across the
    // app/controller boundary must change the seed.
    EXPECT_NE(jobSeed(JobKey{"ab", "c", 0, 0}),
              jobSeed(JobKey{"a", "bc", 0, 0}));
}

TEST(JobSeed, SpreadsAcrossTheAppSweep)
{
    // No collisions over a realistic sweep's key set.
    std::set<uint64_t> seeds;
    for (int app = 0; app < 32; ++app)
        for (int arch = 0; arch < 4; ++arch)
            for (uint64_t rep = 0; rep < 8; ++rep)
                seeds.insert(jobSeed(JobKey{"app" + std::to_string(app),
                                            "arch" + std::to_string(arch),
                                            0, rep}));
    EXPECT_EQ(seeds.size(), 32u * 4u * 8u);
}

} // namespace
} // namespace mimoarch::exec
