#include "exec/resilient.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fileio.hpp"
#include "common/logging.hpp"
#include "exec/journal.hpp"
#include "exec/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::exec {

std::string
JobKey::label() const
{
    return (app.empty() ? std::string("-") : app) + "/" +
           (controller.empty() ? std::string("-") : controller) +
           "/config=" + std::to_string(config) +
           "/rep=" + std::to_string(rep);
}

const char *
failureCauseName(FailureCause cause)
{
    switch (cause) {
      case FailureCause::Exception: return "exception";
      case FailureCause::Timeout: return "timeout";
      case FailureCause::InvalidResult: return "invalid-result";
      case FailureCause::Canceled: return "canceled";
    }
    return "unknown";
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
}

/** The retry/watchdog/journal state machine behind runResilient(). */
class Engine
{
  public:
    Engine(ThreadPool *pool, std::vector<ResilientJob> jobs,
           const ResilientPolicy &policy, uint64_t fingerprint,
           bool progress)
        : pool_(pool), jobs_(std::move(jobs)), policy_(policy),
          progress_(progress), chaos_(policy.chaos),
          done_(jobs_.size(), 0), flights_(jobs_.size())
    {
        tokens_.resize(jobs_.size());
        if (!policy_.resumePath.empty()) {
            journal_ = std::make_unique<SweepJournal>(policy_.resumePath,
                                                      fingerprint);
        }
        telemetry::Registry &reg = telemetry::registry();
        tmRetries_ = &reg.counter("exec.job_retries");
        tmTimeouts_ = &reg.counter("exec.job_timeouts");
        tmFailures_ = &reg.counter("exec.job_failures");
        tmResumed_ = &reg.counter("exec.jobs_resumed");
        tmChaos_ = &reg.counter("exec.chaos_injections");
    }

    SweepReport
    run()
    {
        const size_t n = jobs_.size();
        if (journal_)
            resumeFromJournal();

        std::vector<size_t> todo;
        for (size_t i = 0; i < n; ++i)
            if (!done_[i])
                todo.push_back(i);

        std::thread watchdog;
        if (policy_.jobTimeoutS > 0.0 && !todo.empty())
            watchdog = std::thread([this] { watchdogLoop(); });

        if (pool_ != nullptr) {
            for (const size_t i : todo)
                pool_->submit([this, i] { runJob(i, 1); });
            pool_->wait();
        } else {
            for (const size_t i : todo)
                runJob(i, 1);
        }

        if (watchdog.joinable()) {
            {
                std::lock_guard<std::mutex> lk(wdMutex_);
                wdStop_ = true;
            }
            wdCv_.notify_all();
            watchdog.join();
        }

        return finalize();
    }

  private:
    struct Flight
    {
        bool active = false;
        bool timedOut = false;
        uint64_t deadlineNs = 0; //!< 0 = no deadline armed.
    };

    void
    resumeFromJournal()
    {
        size_t unjournalable = 0;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            const ResilientJob &job = jobs_[i];
            if (!job.save || !job.load) {
                ++unjournalable;
                continue;
            }
            const std::vector<unsigned char> *bytes =
                journal_->find(jobSeed(job.key));
            if (bytes != nullptr && job.load(*bytes)) {
                done_[i] = 1;
                ++resumed_;
                ++completed_;
                ++resolved_;
                tmResumed_->add(1);
                telemetry::TraceBuffer &tb = telemetry::trace();
                if (tb.enabled())
                    tb.instant("job-resumed", "sweep", telemetry::nowNs(),
                               "job", static_cast<int64_t>(i));
            }
        }
        if (unjournalable > 0) {
            warn("sweep: ", unjournalable,
                 " job(s) have a result type the journal cannot store; "
                 "they re-run on every resume");
        }
        if (resumed_ > 0) {
            inform("sweep: resumed ", resumed_, "/", jobs_.size(),
                   " job(s) from ", journal_->path());
        }
    }

    /** Task body: attempt (and, on retry, re-attempt) job @p i. */
    void
    runJob(size_t i, unsigned attempt)
    {
        for (;;) {
            if (attempt > 1)
                backoffSleep(i, attempt);
            if (!attemptOnce(i, attempt))
                return; // resolved (success or permanent failure)
            ++attempt;
            if (pool_ != nullptr) {
                // Re-queue so the worker stays fair to other jobs; the
                // nested submit lands on this worker's own deque.
                pool_->submit([this, i, attempt] { runJob(i, attempt); });
                return;
            }
        }
    }

    /** One attempt. Returns true when a retry should be scheduled. */
    bool
    attemptOnce(size_t i, unsigned attempt)
    {
        if (aborting_.load(std::memory_order_relaxed)) {
            finishFailure(i, attempt - 1, FailureCause::Canceled,
                          "canceled before attempt " +
                              std::to_string(attempt) +
                              " (sweep aborting)");
            return false;
        }

        CancellationToken *token;
        {
            std::lock_guard<std::mutex> lk(wdMutex_);
            tokens_[i] = std::make_unique<CancellationToken>();
            token = tokens_[i].get();
            Flight &f = flights_[i];
            f.active = true;
            f.timedOut = false;
            f.deadlineNs =
                policy_.jobTimeoutS > 0.0
                    ? telemetry::nowNs() +
                          static_cast<uint64_t>(policy_.jobTimeoutS * 1e9)
                    : 0;
        }

        const ChaosAction act =
            chaos_.sample(jobSeed(jobs_[i].key), attempt);
        if (act != ChaosAction::None) {
            chaosInjections_.fetch_add(1, std::memory_order_relaxed);
            tmChaos_->add(1);
        }

        bool failed = false;
        FailureCause cause = FailureCause::Exception;
        std::string message;
        try {
            telemetry::Span span("job", "sweep", nullptr, "job",
                                 static_cast<int64_t>(i));
            if (act == ChaosAction::Throw)
                throw ChaosError("chaos: injected exception");
            if (act == ChaosAction::Delay)
                cancellableSleep(chaos_.delayMs(), *token);
            const JobContext ctx{jobs_[i].key, i, attempt, *token};
            jobs_[i].run(ctx);
            if (act == ChaosAction::Invalid) {
                throw InvalidResultError(
                    "chaos: result declared invalid");
            }
        } catch (const InvalidResultError &e) {
            failed = true;
            cause = FailureCause::InvalidResult;
            message = e.what();
        } catch (const CanceledError &e) {
            failed = true;
            cause = FailureCause::Canceled;
            message = e.what();
        } catch (const std::exception &e) {
            failed = true;
            cause = FailureCause::Exception;
            message = e.what();
        } catch (...) {
            failed = true;
            cause = FailureCause::Exception;
            message = "non-exception throw";
        }

        bool timed_out = false;
        {
            std::lock_guard<std::mutex> lk(wdMutex_);
            timed_out = flights_[i].timedOut;
            flights_[i].active = false;
        }
        if (failed && cause == FailureCause::Canceled && timed_out)
            cause = FailureCause::Timeout;

        if (!failed) {
            finishSuccess(i);
            return false;
        }

        if (cause == FailureCause::Timeout) {
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            tmTimeouts_->add(1);
            telemetry::TraceBuffer &tb = telemetry::trace();
            if (tb.enabled())
                tb.instant("job-timeout", "sweep", telemetry::nowNs(),
                           "job", static_cast<int64_t>(i));
        }

        const bool retry = attempt < policy_.maxAttempts &&
                           cause != FailureCause::Canceled &&
                           !aborting_.load(std::memory_order_relaxed);
        if (retry) {
            retries_.fetch_add(1, std::memory_order_relaxed);
            tmRetries_->add(1);
            telemetry::TraceBuffer &tb = telemetry::trace();
            if (tb.enabled())
                tb.instant("job-retry", "sweep", telemetry::nowNs(),
                           "job", static_cast<int64_t>(i));
            return true;
        }
        finishFailure(i, attempt, cause, std::move(message));
        return false;
    }

    void
    finishSuccess(size_t i)
    {
        if (journal_ && jobs_[i].save) {
            const std::vector<unsigned char> bytes = jobs_[i].save();
            journal_->append(jobSeed(jobs_[i].key), bytes.data(),
                             bytes.size());
        }
        size_t resolved;
        {
            std::lock_guard<std::mutex> lk(stateMutex_);
            ++completed_;
            resolved = ++resolved_;
        }
        tick(resolved);
    }

    void
    finishFailure(size_t i, unsigned attempts, FailureCause cause,
                  std::string message)
    {
        tmFailures_->add(1);
        telemetry::TraceBuffer &tb = telemetry::trace();
        if (tb.enabled())
            tb.instant("job-failed", "sweep", telemetry::nowNs(), "job",
                       static_cast<int64_t>(i));
        size_t resolved;
        {
            std::lock_guard<std::mutex> lk(stateMutex_);
            failures_.push_back(JobFailure{jobs_[i].key, i, attempts,
                                           cause, std::move(message)});
            resolved = ++resolved_;
        }
        // Exceeding --max-failures does NOT abort: the default policy
        // lets every healthy job finish (results the caller may still
        // want journaled) and throws from finalize(). Only --fail-fast
        // trades that completeness for an immediate stop.
        if (policy_.failFast)
            beginAbort();
        tick(resolved);
    }

    /** First (and only effective) call cancels everything in flight;
     *  queued attempts then resolve as Canceled without running. */
    void
    beginAbort()
    {
        bool expected = false;
        if (!aborting_.compare_exchange_strong(expected, true))
            return;
        std::lock_guard<std::mutex> lk(wdMutex_);
        for (size_t i = 0; i < flights_.size(); ++i) {
            if (flights_[i].active && tokens_[i])
                tokens_[i]->requestCancel();
        }
    }

    /** Chaos delay: sleeps in small slices so cancellation (watchdog
     *  deadline, fail-fast abort) cuts the stall short. */
    void
    cancellableSleep(uint32_t ms, const CancellationToken &token)
    {
        const uint64_t until = telemetry::nowNs() + uint64_t{ms} * 1000000;
        while (telemetry::nowNs() < until) {
            if (token.canceled())
                throw CanceledError("canceled during chaos delay");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    /**
     * Deterministic retry backoff: base * 2^(attempt-2), jittered into
     * [0.5x, 1x] by a pure hash of (job seed, attempt), capped at 2 s.
     * Timing never feeds results, but a seed-derived schedule keeps
     * chaos campaigns exactly reproducible end to end.
     */
    void
    backoffSleep(size_t i, unsigned attempt)
    {
        if (policy_.retryBackoffS <= 0.0)
            return;
        double scaled = policy_.retryBackoffS;
        for (unsigned k = 2; k < attempt; ++k)
            scaled *= 2.0;
        scaled = std::min(scaled, 2.0);
        Fnv64 h;
        h.u64(jobSeed(jobs_[i].key)).u64(attempt).u64(0xBACC0FF);
        const double jitter =
            0.5 + 0.5 * static_cast<double>(h.value() >> 11) *
                      (1.0 / 9007199254740992.0);
        const uint64_t until =
            telemetry::nowNs() + static_cast<uint64_t>(scaled * jitter * 1e9);
        while (telemetry::nowNs() < until &&
               !aborting_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    void
    watchdogLoop()
    {
        const auto granule = std::chrono::milliseconds(std::max<long>(
            1, std::min<long>(
                   50, static_cast<long>(policy_.jobTimeoutS * 250.0))));
        std::unique_lock<std::mutex> lk(wdMutex_);
        while (!wdStop_) {
            wdCv_.wait_for(lk, granule);
            if (wdStop_)
                return;
            const uint64_t now = telemetry::nowNs();
            for (size_t i = 0; i < flights_.size(); ++i) {
                Flight &f = flights_[i];
                if (f.active && !f.timedOut && f.deadlineNs != 0 &&
                    now > f.deadlineNs && tokens_[i]) {
                    f.timedOut = true;
                    tokens_[i]->requestCancel();
                }
            }
        }
    }

    void
    tick(size_t resolved)
    {
        if (progress_) {
            std::fprintf(stderr, "# sweep: %zu/%zu jobs done\n",
                         resolved, jobs_.size());
        }
    }

    SweepReport
    finalize()
    {
        SweepReport report;
        report.jobs = jobs_.size();
        report.completed = completed_;
        report.resumedFromJournal = resumed_;
        report.retries = retries_.load(std::memory_order_relaxed);
        report.timeouts = timeouts_.load(std::memory_order_relaxed);
        report.chaosInjections =
            chaosInjections_.load(std::memory_order_relaxed);
        report.failures = std::move(failures_);
        std::sort(report.failures.begin(), report.failures.end(),
                  [](const JobFailure &a, const JobFailure &b) {
                      return a.index < b.index;
                  });

        writeFailureReport(report);

        const bool aborted = aborting_.load(std::memory_order_relaxed);
        if (!aborted && report.failures.size() <= policy_.maxFailures) {
            if (!report.failures.empty()) {
                warn("sweep: completed with ", report.failures.size(),
                     " failed job(s) out of ", report.jobs,
                     " (within --max-failures ", policy_.maxFailures,
                     "); failed slots carry default values");
            }
            return report;
        }

        // Prefer the lowest-index *root cause* failure for the error
        // text; Canceled entries are collateral of the abort.
        const JobFailure *first = nullptr;
        for (const JobFailure &f : report.failures) {
            if (f.cause != FailureCause::Canceled) {
                first = &f;
                break;
            }
        }
        if (first == nullptr)
            first = &report.failures.front();
        std::string what = "sweep job " + first->key.label() + " (job " +
                           std::to_string(first->index) + ") failed after " +
                           std::to_string(first->attempts) +
                           " attempt(s): " +
                           failureCauseName(first->cause) + ": " +
                           first->message;
        if (report.failures.size() > 1) {
            what += " [+" +
                    std::to_string(report.failures.size() - 1) +
                    " more failed/canceled job(s)";
            if (!policy_.failureReportPath.empty())
                what += "; see " + policy_.failureReportPath;
            what += "]";
        }
        throw SweepError(what, std::move(report.failures));
    }

    void
    writeFailureReport(const SweepReport &report) const
    {
        if (policy_.failureReportPath.empty()) {
            if (!report.failures.empty()) {
                warn("sweep: ", report.failures.size(),
                     " job(s) failed; pass --failure-report PATH for a "
                     "machine-readable report");
            }
            return;
        }
        std::string out;
        out += "{\n\"schema\": 3,\n";
        out += "\"jobs\": " + std::to_string(report.jobs) + ",\n";
        out += "\"completed\": " + std::to_string(report.completed) +
               ",\n";
        out += "\"resumed_from_journal\": " +
               std::to_string(report.resumedFromJournal) + ",\n";
        out += "\"retries\": " + std::to_string(report.retries) + ",\n";
        out += "\"timeouts\": " + std::to_string(report.timeouts) +
               ",\n";
        out += "\"chaos_injections\": " +
               std::to_string(report.chaosInjections) + ",\n";
        out += "\"failures\": [";
        for (size_t i = 0; i < report.failures.size(); ++i) {
            const JobFailure &f = report.failures[i];
            out += i == 0 ? "\n" : ",\n";
            out += "{\"app\": \"";
            appendEscaped(out, f.key.app);
            out += "\", \"controller\": \"";
            appendEscaped(out, f.key.controller);
            out += "\", \"config\": " + std::to_string(f.key.config);
            out += ", \"rep\": " + std::to_string(f.key.rep);
            out += ", \"index\": " + std::to_string(f.index);
            out += ", \"attempts\": " + std::to_string(f.attempts);
            out += ", \"cause\": \"";
            out += failureCauseName(f.cause);
            out += "\", \"message\": \"";
            appendEscaped(out, f.message);
            out += "\"}";
        }
        out += "\n]\n}\n";
        if (!writeFileAtomic(policy_.failureReportPath, out)) {
            warn("sweep: could not write failure report to ",
                 policy_.failureReportPath);
        }
    }

    ThreadPool *pool_;
    std::vector<ResilientJob> jobs_;
    const ResilientPolicy policy_;
    const bool progress_;
    ChaosInjector chaos_;
    std::unique_ptr<SweepJournal> journal_;

    std::vector<char> done_; //!< Resolved before execution (resume).

    // Watchdog state: one flight + token per job, all under wdMutex_.
    std::mutex wdMutex_;
    std::condition_variable wdCv_;
    bool wdStop_ = false;
    std::vector<Flight> flights_;
    std::vector<std::unique_ptr<CancellationToken>> tokens_;

    // Sweep accounting.
    std::mutex stateMutex_;
    std::vector<JobFailure> failures_;
    size_t completed_ = 0;
    size_t resumed_ = 0;
    size_t resolved_ = 0;
    std::atomic<bool> aborting_{false};
    std::atomic<uint64_t> retries_{0};
    std::atomic<uint64_t> timeouts_{0};
    std::atomic<uint64_t> chaosInjections_{0};

    telemetry::Counter *tmRetries_;
    telemetry::Counter *tmTimeouts_;
    telemetry::Counter *tmFailures_;
    telemetry::Counter *tmResumed_;
    telemetry::Counter *tmChaos_;
};

} // namespace

SweepReport
runResilient(ThreadPool *pool, std::vector<ResilientJob> jobs,
             const ResilientPolicy &policy, uint64_t fingerprint,
             bool progress)
{
    Engine engine(pool, std::move(jobs), policy, fingerprint, progress);
    return engine.run();
}

} // namespace mimoarch::exec
