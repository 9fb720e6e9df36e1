/**
 * @file
 * The fault-tolerant job layer under SweepRunner: job isolation,
 * watchdog + deterministic retry, checkpoint/resume, and graceful
 * degradation (see DESIGN.md §11).
 *
 * Failure model. A sweep job can fail four ways, and each is captured
 * as a structured JobFailure instead of tearing down the pool:
 *
 *   Exception     — the job threw (its own bug, a chaos injection).
 *   Timeout       — the watchdog deadlined the attempt and the job
 *                   unwound via its CancellationToken.
 *   InvalidResult — the job returned, but its result failed validation
 *                   (non-finite metrics, chaos-declared invalid).
 *   Canceled      — the sweep aborted (fail-fast / failure budget
 *                   exhausted) before or during this job's attempt.
 *
 * Retry determinism. A failed attempt is retried up to maxAttempts
 * times with a deterministic, seed-derived backoff. Because every job
 * derives all randomness from jobSeed(JobKey) (the SweepRunner
 * contract), the attempt that eventually succeeds is bit-identical to
 * a first-try success: a sweep that suffered faults digests exactly
 * like a clean run. Wall-clock effects (backoff, chaos delays,
 * timeouts) never touch results, only scheduling.
 *
 * Degradation policy. By default any job that exhausts its attempts
 * makes the sweep throw SweepError after the other jobs finish — the
 * pre-resilience semantics, now with full job identity attached.
 * --max-failures N tolerates up to N failed jobs and completes with
 * partial results plus a machine-readable failure report;
 * --fail-fast cancels everything outstanding on the first exhausted
 * job instead of letting the sweep run on.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/hash.hpp"
#include "exec/chaos.hpp"

namespace mimoarch::exec {

class ThreadPool;

/** Stable identity of one sweep job (hash input for its RNG seed). */
struct JobKey
{
    std::string app;        //!< Workload name ("" when not app-keyed).
    std::string controller; //!< Architecture/controller label.
    uint64_t config = 0;    //!< Knob-config / variant discriminator.
    uint64_t rep = 0;       //!< Seed / repetition index.

    /** "app/controller/config/rep" for log and error text. */
    std::string label() const;
};

/**
 * The job's deterministic RNG seed: a pure hash of the key. Stable
 * across runs, platforms, thread counts, and job orderings. Doubles as
 * the job's journal record key.
 */
inline uint64_t
jobSeed(const JobKey &key)
{
    Fnv64 h;
    h.str(key.app).str(key.controller).u64(key.config).u64(key.rep);
    return h.value();
}

/** Why a job (or one attempt of it) failed. */
enum class FailureCause : uint8_t {
    Exception,
    Timeout,
    InvalidResult,
    Canceled,
};

/** Lower-case stable name ("exception", "timeout", ...). */
const char *failureCauseName(FailureCause cause);

/** One permanently failed job, with full identity and history. */
struct JobFailure
{
    JobKey key;
    size_t index = 0;       //!< Position in the sweep's job list.
    unsigned attempts = 0;  //!< Attempts actually consumed.
    FailureCause cause = FailureCause::Exception; //!< Final attempt's.
    std::string message;    //!< Final attempt's error text.
};

/**
 * Thrown by a job's result validator (and by chaos Invalid
 * injections); the engine classifies it as FailureCause::InvalidResult.
 */
class InvalidResultError : public std::runtime_error
{
  public:
    explicit InvalidResultError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * A sweep that could not deliver complete results. what() carries the
 * lowest-index failure's full identity — app, controller, config, rep,
 * attempts, cause — so a failed bench names its culprit precisely.
 */
class SweepError : public std::runtime_error
{
  public:
    SweepError(const std::string &what, std::vector<JobFailure> failures)
        : std::runtime_error(what), failures_(std::move(failures))
    {}

    /** Every permanent failure, sorted by job index. */
    const std::vector<JobFailure> &failures() const { return failures_; }

  private:
    std::vector<JobFailure> failures_;
};

/** Per-attempt context handed to the job function. */
struct JobContext
{
    const JobKey &key;
    size_t index;                   //!< Position in the job list.
    unsigned attempt;               //!< 1-based.
    const CancellationToken &cancel; //!< Poll and unwind when set.
};

/** Retry / watchdog / checkpoint / degradation policy for one sweep. */
struct ResilientPolicy
{
    /** Total tries per job (1 = no retry). */
    unsigned maxAttempts = 3;
    /** Watchdog deadline per attempt in seconds; 0 disables it. */
    double jobTimeoutS = 0.0;
    /** Failed jobs tolerated before the sweep throws SweepError. */
    uint64_t maxFailures = 0;
    /** Cancel the whole sweep on the first exhausted job. */
    bool failFast = false;
    /** Base retry backoff in seconds (doubled per attempt, jittered
     *  deterministically from the job seed, capped at 2 s). */
    double retryBackoffS = 0.010;
    /** Execution-layer fault injection (pruned in Release builds). */
    ChaosConfig chaos{};
    /** Non-empty: journal completed jobs here and skip jobs the
     *  journal already holds (the --resume flag). */
    std::string resumePath;
    /** Non-empty: write a machine-readable failure/completion report
     *  here (atomic tmp+rename), always — even for a clean sweep. */
    std::string failureReportPath;
};

/** What a resilient sweep did (one entry per permanent failure). */
struct SweepReport
{
    size_t jobs = 0;
    size_t completed = 0;          //!< Jobs with a delivered result.
    size_t resumedFromJournal = 0; //!< Completed without running.
    uint64_t retries = 0;          //!< Re-attempts scheduled.
    uint64_t timeouts = 0;         //!< Watchdog deadline trips.
    uint64_t chaosInjections = 0;  //!< Chaos actions that fired.
    std::vector<JobFailure> failures; //!< Sorted by job index.

    bool complete() const { return failures.empty(); }
};

/** Type-erased resilient job (built by SweepRunner::mapJobs). */
struct ResilientJob
{
    JobKey key;
    /** Run one attempt: compute and store the result into the job's
     *  own slot; throw to fail the attempt. */
    std::function<void(const JobContext &)> run;
    /** Snapshot the stored result for the journal (null when the
     *  result type is not journalable). */
    std::function<std::vector<unsigned char>()> save;
    /** Restore the stored result from journal bytes; false = reject
     *  (size mismatch, stale layout) and re-run the job. */
    std::function<bool(const std::vector<unsigned char> &)> load;
};

/**
 * Execute @p jobs under @p policy on @p pool (null = serial, in index
 * order, on the calling thread — the deterministic reference
 * schedule). @p fingerprint keys the journal to the experiment
 * configuration. Throws SweepError when failures exceed the policy's
 * tolerance; otherwise returns the report (failures ≤ maxFailures).
 */
SweepReport runResilient(ThreadPool *pool, std::vector<ResilientJob> jobs,
                         const ResilientPolicy &policy,
                         uint64_t fingerprint, bool progress);

} // namespace mimoarch::exec
