/**
 * @file
 * The two telemetry exporters (schemas pinned byte-for-byte by
 * tests/telemetry/exporter_golden_test.cpp):
 *
 *   - renderChromeTrace: a chrome://tracing / Perfetto JSON object
 *     with one Complete ("ph":"X") or Instant ("ph":"i") event per
 *     recorded TraceEvent, timestamps in microseconds at nanosecond
 *     resolution.
 *   - renderMetricsJson: a flat, name-sorted metrics document
 *     (counters, gauges, histogram summaries) that benches write as a
 *     sidecar and diff across runs.
 *
 * Exporting allocates freely — it runs after the instrumented work has
 * quiesced, never on the hot path.
 */

#pragma once

#include <string>

#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {

/** Chrome trace JSON for @p buffer's events (stable byte-for-byte). */
std::string renderChromeTrace(const TraceBuffer &buffer);

/** Flat metrics JSON for @p reg (name-sorted, stable byte-for-byte). */
std::string renderMetricsJson(const Registry &reg);

/**
 * Write the global trace to @p path and the global registry's metrics
 * to "<path base>.metrics.json" (e.g. out.json -> out.metrics.json).
 * Stops the trace buffer first so late events cannot tear the export.
 */
void writeReports(const std::string &path);

} // namespace mimoarch::telemetry
