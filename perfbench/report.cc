#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},     {"verdict_p50_us", "us"},
      {"verdict_p99_us", "us"},  {"rows_per_s", "1/s"},     {"cpu_us_per_row", "us"},
      {"served_frac", "frac"},   {"fresh_frac", "frac"},    {"cells_per_s", "1/s"},
      {"put_p99_us", "us"},      {"day_job_s", "s"},        {"model_auc", "auc"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"net.socket_p50_us", "us"},
      {"net.wire_p50_us", "us"},
      {"net.wire_p99_us", "us"},
      {"net.codec_ns_per_row", "ns"},
      {"net.shed", "count"},
      {"net.expired", "count"},
      {"net.client_retries", "count"},
      {"serving.router_p50_us", "us"},
      {"serving.router_p99_us", "us"},
      {"serving.queue_p50_us", "us"},
      {"serving.coalesce_rows_per_dispatch", "rows"},
      {"serving.score_ns_per_row.b1", "ns"},
      {"serving.score_ns_per_row.b16", "ns"},
      {"serving.degraded", "count"},
      {"serving.load_model_ms", "ms"},
      {"kvstore.multiget_calls", "count"},
      {"kvstore.probes_per_call", "count"},
      {"kvstore.multiget_p50_us", "us"},
      {"kvstore.multiget_p99_us", "us"},
      {"kvstore.multiget_busy_s", "s"},
      {"kvstore.cache_hit_frac", "frac"},
      {"kvstore.putbatch_calls", "count"},
      {"kvstore.putbatch_p99_us", "us"},
      {"kvstore.flushes", "count"},
      {"kvstore.compactions", "count"},
      {"kvstore.maintenance_mb", "MB"},
      {"kvstore.flush_ms", "ms"},
      {"kvstore.upload_ms", "ms"},
      {"ml.gbdt_score_ns_per_row.b1", "ns"},
      {"ml.gbdt_score_ns_per_row.b16", "ns"},
      {"ml.gbdt_train_ms", "ms"},
      {"streaming.applied", "count"},
      {"streaming.shed_frac", "frac"},
      {"streaming.deduped", "count"},
      {"streaming.cells_published", "count"},
      {"replication.shipped", "count"},
      {"replication.end_lag", "count"},
      {"replication.failovers", "count"},
      {"graph.network_ms", "ms"},
      {"graph.walks_ms", "ms"},
      {"graph.walk_tokens", "count"},
      {"nrl.word2vec_ms", "ms"},
      {"nrl.word2vec_tokens_per_s", "1/s"},
      {"core.city_stats_ms", "ms"},
      {"core.build_matrix_ms", "ms"},
      {"maxcompute.log_load_ms", "ms"},
      {"maxcompute.label_sql_ms", "ms"},
      {"loadgen.send_lag_p50_us", "us"},
      {"loadgen.send_lag_p99_us", "us"},
      {"loadgen.verdict_samples", "count"},
      {"loadgen.trace_overhead_frac", "frac"},
      {"loadgen.coverage_frac", "frac"},
      {"loadgen.stage_sum_frac", "frac"},
  };
  return kMetrics;
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::abort();
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  for (const char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-') return false;
  }
  return true;
}

Report::Report(const std::vector<MetricSpec>& schema) {
  for (const MetricSpec& spec : schema) {
    if (!ValidMetricName(spec.name)) Die(std::string("bad metric name: ") + spec.name);
    if (!ValidUnit(spec.unit)) Die(std::string("bad unit for ") + spec.name);
    for (const Entry& e : entries_) {
      if (std::string_view(e.spec.name) == spec.name) {
        Die(std::string("duplicate metric: ") + spec.name);
      }
    }
    entries_.push_back({spec, 0.0});
  }
}

void Report::Set(std::string_view name, double value) {
  for (Entry& e : entries_) {
    if (name == e.spec.name) {
      e.value = value;
      Check(std::isfinite(value), "metric " + std::string(name) + " is not finite");
      return;
    }
  }
  Die("metric outside the schema: " + std::string(name));
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::string Report::Table() const {
  std::string out;
  char line[160];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "  %-36s %14.4f %s\n", e.spec.name, e.value, e.spec.unit);
    out += line;
  }
  return out;
}

std::string Report::ResultJson(uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no NaN or infinity; a non-finite value is reported as 0, and
    // Set has already failed the run for it.
    std::snprintf(number, sizeof(number), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + std::string(e.spec.name) + "\": {\"value\": " + number + ", \"unit\": \"" +
           e.spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

double SumStages(const std::vector<Stage>& stages) {
  double sum = 0.0;
  for (const Stage& s : stages) sum += s.value;
  return sum;
}

titant::Status CheckStageSum(const std::vector<Stage>& stages, double total, double tolerance) {
  const double sum = SumStages(stages);
  if (!(total > 0.0) || !std::isfinite(sum) || std::fabs(sum - total) > tolerance * total) {
    char message[160];
    std::snprintf(message, sizeof(message),
                  "stages sum to %.6g, total is %.6g (allowed gap %.1f%%)", sum, total,
                  100.0 * tolerance);
    return titant::Status::FailedPrecondition(message);
  }
  return titant::Status::OK();
}

titant::Status CheckCoverage(const std::vector<Stage>& stages, double total, double min_share) {
  const double sum = SumStages(stages);
  if (!(total > 0.0) || !std::isfinite(sum) || sum < min_share * total) {
    char message[160];
    std::snprintf(message, sizeof(message), "layers cover %.6g of %.6g (need %.0f%%)", sum,
                  total, 100.0 * min_share);
    return titant::Status::FailedPrecondition(message);
  }
  return titant::Status::OK();
}

std::vector<Stage> OnlineLayers(double rtt_p50_us, double wire_p50_us, double router_p50_us) {
  return {{"net.socket_p50_us", rtt_p50_us - wire_p50_us},
          {"serving.queue_p50_us", wire_p50_us - router_p50_us},
          {"serving.router_p50_us", router_p50_us}};
}

BuildStamp ThisBuild() {
  BuildStamp stamp;
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.compiler = __VERSION__;
#ifdef __OPTIMIZE__
  stamp.optimized = true;
#endif
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  stamp.sanitized = true;
#endif
  return stamp;
}

titant::Status CheckRecordableBuild(const BuildStamp& build) {
  if (build.sanitized) {
    return titant::Status::FailedPrecondition("sanitizer build: results are not recorded");
  }
  if (!build.optimized || build.build_type == "Debug") {
    return titant::Status::FailedPrecondition("unoptimized (" + build.build_type +
                                              ") build: results are not recorded");
  }
  return titant::Status::OK();
}

}  // namespace perfbench
