/**
 * @file
 * SweepRunner: shards (app x controller x knob-config x seed) jobs
 * across a work-stealing ThreadPool with a determinism contract.
 *
 * The contract, which every bench and test sweep in this repo relies
 * on:
 *
 *   1. Each job derives all of its randomness from jobSeed(JobKey) —
 *      a pure function of the job's stable identity — never from
 *      global state, thread ids, time, or submission order.
 *   2. Each job builds its own plant and controller and writes only
 *      its own result slot; shared inputs (design results, models)
 *      are immutable.
 *   3. Results are collected per job and emitted by the caller in job
 *      order after the sweep, never interleaved as jobs complete.
 *
 * Under this contract a sweep's outputs are bit-identical regardless
 * of --jobs and OS scheduling (see tests/exec/parallel_equivalence) —
 * and, because retries re-derive everything from the same seed, they
 * stay bit-identical under faults, chaos injection, and resume from a
 * checkpoint journal (see tests/exec/chaos_equivalence). The
 * fault-tolerance machinery itself lives in exec/resilient.hpp; the
 * mapJobs() entry point below is how benches reach it.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/fidelity.hpp"
#include "exec/resilient.hpp"
#include "exec/thread_pool.hpp"

namespace mimoarch::exec {

/** Sweep-wide execution options (the bench command-line surface). */
struct SweepOptions
{
    unsigned jobs = 0;     //!< Worker threads; 0 = hardware concurrency.
    bool progress = false; //!< Per-job completion ticks on stderr.
    /**
     * Non-empty arms the global telemetry trace buffer for the
     * runner's lifetime and, at destruction, writes a Chrome trace to
     * this path plus a flat metrics sidecar next to it (see
     * src/telemetry/export.hpp).
     */
    std::string telemetry;
    /**
     * Expected total epochs (or bank steps) across the sweep. When
     * > 0 and this runner arms the trace buffer, the buffer is sized
     * via telemetry::traceCapacityForEpochs() instead of the fixed
     * legacy worst-case preallocation, so telemetry-ON memory scales
     * with the workload. 0 keeps the legacy capacity.
     */
    size_t traceEpochs = 0;
    /**
     * Plant tier the bench should sweep at (--fidelity cycle|analytic,
     * DESIGN.md §13). Benches that honour it copy this into their
     * ExperimentConfig (folding it into the sweep fingerprint) and
     * build plants through exec::makePlant(); benches that are
     * inherently cycle-level simply ignore it.
     */
    PlantFidelity fidelity = PlantFidelity::CycleLevel;
    /** Retry / watchdog / checkpoint / chaos policy for mapJobs(). */
    ResilientPolicy resilient;
};

/**
 * Parse sweep flags from a bench's argv. Execution: --jobs N / -jN,
 * --telemetry PATH, --trace-epochs N, --progress,
 * --fidelity cycle|analytic. Resilience:
 * --retries N,
 * --job-timeout S, --max-failures N, --fail-fast, --resume PATH,
 * --failure-report PATH. Chaos (fault-injection builds only):
 * --chaos-seed N, --chaos-exception-rate X, --chaos-delay-rate X,
 * --chaos-invalid-rate X, --chaos-delay-ms N. Unknown arguments are
 * fatal (benches take no other arguments), as are --chaos-* flags in
 * builds that prune the injector (MIMOARCH_CHAOS=0).
 */
SweepOptions parseSweepArgs(int argc, char **argv);

/** Results plus the execution report from one mapJobs() sweep. */
template <typename R>
struct SweepOutcome
{
    std::vector<R> results; //!< In key order; failed slots are R{}.
    SweepReport report;
};

/** Runs job lists across a pool; owns the pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(const SweepOptions &options = {});
    ~SweepRunner();

    /** Effective worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** The policy mapJobs() executes under (from SweepOptions). */
    const ResilientPolicy &policy() const { return resilient_; }

    /**
     * The resilient sweep entry point: run one job per @p key under
     * the runner's ResilientPolicy — isolation, watchdog + retry,
     * checkpoint/resume keyed by @p fingerprint, chaos injection —
     * and return results in key order plus the execution report.
     *
     * @p fn computes one job's result from its JobContext (key,
     * attempt, cancellation token); it must honour the determinism
     * contract above. @p validate (optional) rejects a returned
     * result — a rejection counts as FailureCause::InvalidResult and
     * is retried like any other failure.
     *
     * When R is trivially copyable, completed results are journaled
     * under --resume and restored on the next run; other result types
     * re-run (the engine warns once).
     *
     * Throws SweepError when failures exceed the policy's tolerance;
     * under --max-failures the sweep completes and failed slots hold
     * default-constructed values (identified by report.failures).
     */
    template <typename R>
    SweepOutcome<R>
    mapJobs(const std::vector<JobKey> &keys, uint64_t fingerprint,
            const std::function<R(const JobContext &)> &fn,
            const std::function<bool(const R &)> &validate = nullptr)
    {
        SweepOutcome<R> out;
        out.results.resize(keys.size());
        std::vector<ResilientJob> jobs(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
            R *slot = &out.results[i];
            jobs[i].key = keys[i];
            jobs[i].run = [slot, &fn,
                           &validate](const JobContext &ctx) {
                R r = fn(ctx);
                if (validate && !validate(r)) {
                    throw InvalidResultError(
                        "result failed the bench's validator");
                }
                *slot = std::move(r);
            };
            if constexpr (std::is_trivially_copyable_v<R>) {
                jobs[i].save = [slot] {
                    std::vector<unsigned char> bytes(sizeof(R));
                    std::memcpy(bytes.data(), slot, sizeof(R));
                    return bytes;
                };
                jobs[i].load =
                    [slot](const std::vector<unsigned char> &bytes) {
                        if (bytes.size() != sizeof(R))
                            return false;
                        std::memcpy(slot, bytes.data(), sizeof(R));
                        return true;
                    };
            }
        }
        out.report = runResilient(pool_.get(), std::move(jobs),
                                  resilient_, fingerprint, progress_);
        // Tolerated failures leave their slots at a well-defined
        // default (an Invalid injection may have written real data
        // before the attempt was failed).
        for (const JobFailure &f : out.report.failures)
            out.results[f.index] = R{};
        return out;
    }

  private:
    unsigned jobs_;
    bool progress_;
    std::string telemetryPath_; //!< Empty = no report on destruction.
    bool armedTrace_ = false;   //!< This runner started the trace.
    ResilientPolicy resilient_;
    std::unique_ptr<ThreadPool> pool_; //!< Null when jobs_ == 1.
};

} // namespace mimoarch::exec
