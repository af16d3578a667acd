// Versioned machine-readable run report.
//
// A run report is the export format for everything the paper's Section VII
// measures: per-matcher totals (compdists, verified vehicles, pruning
// hits), per-request latency histograms, and the unified metrics registry
// (engine phase timings, oracle batching stats, thread-pool queue stats).
// The JSON schema is documented in DESIGN.md "Observability"; bump
// kReportSchemaVersion on any incompatible change.
//
// Layering: obs knows nothing about the simulator, so the report consumes
// a neutral mirror of MatcherAggregate (MatcherReport). sim/run_report.h
// converts RunStats into a RunReport.

#ifndef PTAR_OBS_REPORT_H_
#define PTAR_OBS_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/windows.h"

namespace ptar::obs {

/// Version history:
///   1 — initial schema (tool/served/unserved/shared, matchers, metrics).
///   2 — adds the "robustness" object (shed_requests, partial_skylines,
///       ladder_requests). Purely additive: readers must treat a missing
///       object as all-zero, which ParseReportSummary does.
///   3 — adds the "pipeline" object (waves, conflicts, rematches,
///       serial_rematches) emitted by the request-parallel engine. Also
///       additive; missing (v1/v2, or a serial Run) means all-zero.
///   4 — adds the "timeseries" object (window_seconds plus one flattened
///       entry per sim-time window: request/served/shed/conflict counts,
///       ladder occupancy, commit-latency count/p50/p99). Additive;
///       missing (v1-v3, or a producer with telemetry disabled) parses as
///       an empty timeseries.
inline constexpr int kReportSchemaVersion = 4;

/// Per-matcher slice of the report; field-for-field what Section VII's
/// tables need (totals plus the sums means are derived from).
struct MatcherReport {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t options_sum = 0;
  std::uint64_t verified_vehicles = 0;
  std::uint64_t compdists = 0;
  std::uint64_t scanned_cells = 0;
  std::uint64_t pruned_cells = 0;
  std::uint64_t pruned_vehicles = 0;
  double elapsed_micros = 0.0;
  double precision_sum = 0.0;
  double recall_sum = 0.0;
  LatencyHistogram latency_ms;  ///< Per-request matching latency.
};

struct RunReport {
  std::string tool;  ///< Producing surface, e.g. "ptar_cli simulate".
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shared = 0;
  /// Robustness block (schema v2): overload-shed requests, committing
  /// results truncated by a work budget, and per-degradation-level request
  /// counts (index = sim DegradeLevel: full / ssa / grid_scan / shed).
  std::uint64_t shed_requests = 0;
  std::uint64_t partial_skylines = 0;
  std::array<std::uint64_t, 4> ladder_requests{};
  /// Pipeline block (schema v3): request-parallel engine wave and
  /// conflict/re-match accounting. All-zero for serial Run waves of one.
  std::uint64_t waves = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t serial_rematches = 0;
  /// Timeseries block (schema v4): per-sim-time-window deltas from the
  /// engine's WindowedTelemetry. window_seconds == 0 (telemetry disabled)
  /// omits the block from the JSON.
  TimeseriesExport timeseries;
  std::vector<MatcherReport> matchers;
  MetricsRegistry metrics;
};

/// Renders the report (schema_version and git describe included).
std::string RunReportToJson(const RunReport& report);

/// Writes the report's fields (tool .. metrics, no schema envelope) into an
/// already-open JSON object. Lets multi-row emitters (the bench harness)
/// embed one report per row under a single schema header.
void WriteRunReportFieldsJson(class JsonWriter& writer,
                              const RunReport& report);

Status WriteRunReport(const RunReport& report, const std::string& path);

/// Headline fields a consumer can pull back out of a serialized report
/// without a JSON library.
struct ReportSummary {
  int schema_version = 0;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shared = 0;
  std::uint64_t shed_requests = 0;
  std::uint64_t partial_skylines = 0;
  std::array<std::uint64_t, 4> ladder_requests{};
  std::uint64_t waves = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t serial_rematches = 0;
};

/// Extracts the summary from report JSON produced by RunReportToJson.
/// Back-compat: v1 reports (no "robustness" object) parse with the
/// robustness fields zero. Fails on a missing/garbled schema_version or a
/// version newer than kReportSchemaVersion. This is a targeted scanner for
/// the report's own layout, not a general JSON parser.
StatusOr<ReportSummary> ParseReportSummary(const std::string& json);

/// One parsed window of the v4 "timeseries" block — mirrors what the
/// writer flattens out of a WindowExport.
struct WindowSummary {
  double start = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shed = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t partial = 0;
  std::array<std::uint64_t, 4> ladder{};
  std::uint64_t commit_count = 0;
  double commit_p50_us = 0.0;
  double commit_p99_us = 0.0;
};

struct TimeseriesSummary {
  double window_seconds = 0.0;  ///< 0 = block absent (pre-v4 or disabled).
  std::vector<WindowSummary> windows;
};

/// Extracts the "timeseries" block from report JSON. A report without the
/// block (v1-v3, or telemetry disabled) parses OK as an empty summary —
/// same additive-evolution contract as ParseReportSummary's blocks.
StatusOr<TimeseriesSummary> ParseTimeseries(const std::string& json);

/// Serializes one histogram as an object ({count, sum, min, max, mean,
/// p50, p95, p99, buckets: [[index, count], ...]}). Shared with the bench
/// emitter.
void WriteHistogramJson(class JsonWriter& writer,
                        const LatencyHistogram& histogram);

/// Serializes a registry as {"counters": {...}, "histograms": {...}}.
void WriteMetricsJson(class JsonWriter& writer,
                      const MetricsRegistry& metrics);

}  // namespace ptar::obs

#endif  // PTAR_OBS_REPORT_H_
