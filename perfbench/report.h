#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// A metric the benchmark reports: name, unit, and whether a larger value
/// is better. The two tables below are the whole schema; BENCHMARK.json
/// lists the same names, and run.py checks that the printed result has
/// exactly the set for its mode.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by an untraced run (`--trace 0`).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed by a traced run (`--trace 1`).
const std::vector<MetricSpec>& PerLayerMetrics();

/// Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-].
bool ValidMetricName(std::string_view name);
/// Units: 1 to 16 of [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

/// One run's result: every metric of the mode's schema (zero until Set),
/// plus the output checks. Printed as the single JSON line the benchmark
/// ends with.
class Report {
 public:
  explicit Report(const std::vector<MetricSpec>& schema);

  /// Sets a metric of the schema; a value that is not finite fails the
  /// run. A name outside the schema is a bug in the benchmark and aborts.
  void Set(std::string_view name, double value);

  /// Records an output check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  /// Human-readable metric table (one "name value unit" line each).
  std::string Table() const;
  /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
  std::string ResultJson(uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    MetricSpec spec;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> failures_;
};

/// One named part of a measured total (a stage of the offline job, or a
/// layer's share of the verdict latency).
struct Stage {
  std::string name;
  double value = 0.0;
};

double SumStages(const std::vector<Stage>& stages);

/// OK when the stages sum to `total` within `tolerance` (a share of
/// `total`): a breakdown whose parts do not add up is refused.
titant::Status CheckStageSum(const std::vector<Stage>& stages, double total, double tolerance);

/// OK when the stages account for at least `min_share` of `total`.
titant::Status CheckCoverage(const std::vector<Stage>& stages, double total, double min_share);

/// The named online layers of a verdict's latency, from medians in
/// microseconds: `net.socket_p50_us` (the client round trip beyond the
/// gateway's wire time), `serving.queue_p50_us` (wire time beyond the
/// router's), and `serving.router_p50_us`. They add up to the client round
/// trip. Sender lag belongs to the load generator and is no layer, so a
/// verdict latency made up of lag is not covered.
std::vector<Stage> OnlineLayers(double rtt_p50_us, double wire_p50_us, double router_p50_us);

/// Build facts every result is stamped with. Refuses (FailedPrecondition)
/// a Debug, unoptimized, or sanitizer build: such numbers are not kept.
struct BuildStamp {
  std::string build_type;
  std::string compiler;
  bool optimized = false;
  bool sanitized = false;
};
BuildStamp ThisBuild();
titant::Status CheckRecordableBuild(const BuildStamp& build);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
