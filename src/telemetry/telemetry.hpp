/**
 * @file
 * Epoch-granular telemetry: metrics, spans, and trace events for the
 * control loop, the supervisor ladder, and the sweep engine.
 *
 * Design constraints (see DESIGN.md §10):
 *
 *   - Allocation-free in steady state. Registering a metric allocates
 *     (setup phase, under a mutex); *recording* into one is a handful
 *     of relaxed atomic operations on preallocated storage. The trace
 *     buffer is sized once at start(); a full buffer drops events and
 *     counts the drops instead of growing.
 *   - Thread-safe writes. Sweep workers hammer the same counters and
 *     histograms concurrently; every write path is lock-free.
 *   - Off the numeric path. Telemetry only *observes*: no clock
 *     reading or metric value ever feeds back into the controller, so
 *     golden digests and sweep checksums are identical with the trace
 *     armed or disarmed.
 */

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mimoarch::telemetry {

/** Nanoseconds since the first call in this process (steady clock). */
uint64_t nowNs();

/** Small dense id for the calling thread (0, 1, 2, ... per process). */
uint32_t threadId();

// ----------------------------------------------------------- metrics

/**
 * Write-path shard count for the hot metrics. Writers hash their dense
 * threadId() into one of kMetricShards cache-line-isolated slots, so
 * sweep workers hammering the same counter or histogram never ping the
 * same line back and forth; readers sum the slots, which is exact
 * (addition commutes) and only runs at snapshot/export time. A power
 * of two so the slot pick is a mask, not a division.
 */
constexpr size_t kMetricShards = 8;

/** Monotonic event count. Lock-free, write-contended freely: each
 *  thread lands on its own padded slot (see kMetricShards). */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        slots_[threadId() & (kMetricShards - 1)].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t total = 0;
        for (const Slot &s : slots_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    void
    reset()
    {
        for (Slot &s : slots_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> v{0};
    };
    Slot slots_[kMetricShards];
};

/** Last-write-wins double value (worker count, RSS, utilization). */
class Gauge
{
  public:
    void
    set(double v)
    {
        bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
    }

    double
    value() const
    {
        return std::bit_cast<double>(
            bits_.load(std::memory_order_relaxed));
    }

    void reset() { set(0.0); }

  private:
    std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/**
 * Mergeable copy of a histogram's state. Merging snapshots is exact
 * (bucket-wise sums), so per-worker histograms can be combined after a
 * sweep with no loss relative to one shared histogram.
 */
struct HistogramSnapshot
{
    /**
     * Bucket i counts values whose bit width is i: bucket 0 holds
     * exactly 0, bucket i (i >= 1) holds [2^(i-1), 2^i). Log-scale
     * with fixed boundaries, so merge needs no bucket alignment.
     */
    static constexpr size_t kBuckets = 65;

    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = UINT64_MAX; //!< UINT64_MAX when empty.
    uint64_t max = 0;
    uint64_t buckets[kBuckets] = {};

    /** Bucket index for @p v (== std::bit_width). */
    static size_t
    bucketOf(uint64_t v)
    {
        return static_cast<size_t>(std::bit_width(v));
    }

    /** Largest value bucket @p i can hold (2^i - 1; 0 for bucket 0). */
    static uint64_t
    bucketUpperBound(size_t i)
    {
        return i == 0 ? 0
                      : (i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1);
    }

    /** Exact bucket-wise sum; associative and commutative. */
    void merge(const HistogramSnapshot &other);

    /**
     * Upper-bound estimate of the @p q quantile (q in [0, 1]): the
     * upper bound of the first bucket whose cumulative count reaches
     * ceil(q * count), clamped into [min, max]. Monotone in q; returns
     * 0 when empty.
     */
    uint64_t quantile(double q) const;
};

/**
 * Fixed-bucket log-scale histogram of non-negative integer samples
 * (latencies in ns, error magnitudes in basis points, queue depths).
 * record() is a few relaxed atomics on the caller's own shard (see
 * kMetricShards) — no locks, no allocation, no cross-thread line
 * sharing. min/max stay global CAS slots: after the first few samples
 * they only write on a new extreme, so they see almost no traffic.
 * snapshot() sums the shards, which is exact bucket-wise addition —
 * identical output to the old single-shard layout.
 */
class Histogram
{
  public:
    void
    record(uint64_t v)
    {
        Shard &s = shards_[threadId() & (kMetricShards - 1)];
        s.buckets[HistogramSnapshot::bucketOf(v)].fetch_add(
            1, std::memory_order_relaxed);
        s.count.fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
        atomicMin(min_, v);
        atomicMax(max_, v);
    }

    HistogramSnapshot snapshot() const;
    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> buckets[HistogramSnapshot::kBuckets] = {};
    };

    static void
    atomicMin(std::atomic<uint64_t> &slot, uint64_t v)
    {
        uint64_t cur = slot.load(std::memory_order_relaxed);
        while (v < cur &&
               !slot.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
        }
    }

    static void
    atomicMax(std::atomic<uint64_t> &slot, uint64_t v)
    {
        uint64_t cur = slot.load(std::memory_order_relaxed);
        while (v > cur &&
               !slot.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
        }
    }

    Shard shards_[kMetricShards];
    alignas(64) std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
};

// ---------------------------------------------------------- registry

/**
 * Named metric store. Registration (counter/gauge/histogram) is
 * mutex-guarded, idempotent by name, and may allocate — do it once at
 * component construction and keep the returned reference, which stays
 * valid for the registry's lifetime. Reads for export are snapshots
 * taken under the same mutex.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Name-sorted snapshots for the exporters. */
    std::vector<std::pair<std::string, uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const;

    /** Zero every metric's value; registrations are kept. */
    void reset();

  private:
    template <typename T>
    struct Entry
    {
        std::string name;
        std::unique_ptr<T> metric; //!< unique_ptr: stable addresses.
    };

    template <typename T>
    static T &find(std::vector<Entry<T>> &entries,
                   const std::string &name);

    mutable std::mutex mutex_;
    std::vector<Entry<Counter>> counters_;
    std::vector<Entry<Gauge>> gauges_;
    std::vector<Entry<Histogram>> histograms_;
};

/** The process-wide registry every instrumented component records to. */
Registry &registry();

// ------------------------------------------------------------- trace

/** Chrome-trace event kinds we emit ("ph" values "X" and "i"). */
enum class EventType : uint8_t { Complete, Instant };

/**
 * One trace event. Names and categories are NOT owned: pass string
 * literals (or otherwise immortal strings) only, so recording never
 * copies or allocates.
 */
struct TraceEvent
{
    const char *name = "";
    const char *category = "";
    const char *argKey = nullptr; //!< Optional numeric argument.
    int64_t argValue = 0;
    uint64_t tsNs = 0;
    uint64_t durNs = 0; //!< Complete events only.
    uint32_t tid = 0;
    EventType type = EventType::Instant;
};

/**
 * Fixed-capacity event sink. start(capacity) allocates the whole
 * buffer once; record() claims a slot with one fetch_add and writes in
 * place, so concurrent recorders never contend on a lock or touch the
 * heap. When the buffer is full further events are dropped (and
 * counted) rather than grown. Read the events only after the writers
 * have quiesced (after ThreadPool::wait() / join).
 */
class TraceBuffer
{
  public:
    /** Arm the buffer: allocate @p capacity slots and start recording. */
    void start(size_t capacity);

    /** Stop recording (events and drop count are kept for export). */
    void stop();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    complete(const char *name, const char *category, uint64_t ts_ns,
             uint64_t dur_ns, const char *arg_key = nullptr,
             int64_t arg_value = 0)
    {
        TraceEvent e;
        e.name = name;
        e.category = category;
        e.argKey = arg_key;
        e.argValue = arg_value;
        e.tsNs = ts_ns;
        e.durNs = dur_ns;
        e.tid = threadId();
        e.type = EventType::Complete;
        record(e);
    }

    void
    instant(const char *name, const char *category, uint64_t ts_ns,
            const char *arg_key = nullptr, int64_t arg_value = 0)
    {
        TraceEvent e;
        e.name = name;
        e.category = category;
        e.argKey = arg_key;
        e.argValue = arg_value;
        e.tsNs = ts_ns;
        e.tid = threadId();
        e.type = EventType::Instant;
        record(e);
    }

    /** Events recorded so far (valid once writers are quiet). */
    size_t size() const;
    const TraceEvent &operator[](size_t i) const { return events_[i]; }

    uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Drop all events and the drop count; keeps capacity and state. */
    void clear();

  private:
    void record(const TraceEvent &e);

    std::vector<TraceEvent> events_;
    std::atomic<size_t> next_{0};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<bool> enabled_{false};
};

/** The process-wide trace buffer (disarmed until start()). */
TraceBuffer &trace();

/**
 * RAII stage timer: measures construction-to-destruction, records the
 * duration into an optional histogram, and emits a Complete trace
 * event when the global trace buffer is armed. When neither sink is
 * active the constructor skips the clock read entirely.
 */
class Span
{
  public:
    Span(const char *name, const char *category,
         Histogram *latency = nullptr, const char *arg_key = nullptr,
         int64_t arg_value = 0)
        : name_(name), category_(category), latency_(latency),
          argKey_(arg_key), argValue_(arg_value),
          tracing_(trace().enabled()),
          t0_(tracing_ || latency ? nowNs() : 0)
    {}

    ~Span()
    {
        if (!tracing_ && latency_ == nullptr)
            return;
        const uint64_t dur = nowNs() - t0_;
        if (latency_ != nullptr)
            latency_->record(dur);
        if (tracing_)
            trace().complete(name_, category_, t0_, dur, argKey_,
                             argValue_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *category_;
    Histogram *latency_;
    const char *argKey_;
    int64_t argValue_;
    bool tracing_;
    uint64_t t0_;
};

/**
 * Trace slots to arm for a run expected to record about
 * @p total_epochs epoch events. An epoch contributes one span slot;
 * the 25% headroom absorbs surrounding spans (jobs, warm-up, design
 * solves) and supervisor instants, and the fixed slack covers
 * setup/teardown events on tiny runs. Sizing the buffer from the
 * workload instead of a fixed worst-case preallocation keeps the
 * armed RSS proportional to the sweep actually being run
 * (tests/telemetry/rss_guard_test holds it to <= 2x the disarmed run).
 */
constexpr size_t
traceCapacityForEpochs(size_t total_epochs)
{
    return total_epochs + total_epochs / 4 + 4096;
}

} // namespace mimoarch::telemetry
