#ifndef PERFBENCH_TIMING_STORE_H_
#define PERFBENCH_TIMING_STORE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/histogram.h"
#include "kvstore/store.h"
#include "loadgen.h"

namespace perfbench {

/// Traced runs only: a KvTable that times every call the live serving path
/// makes into the store. It sits between the router (and the streaming
/// ingestor) and the store front they would otherwise hold, so the store's
/// share of each request is measured inside the running system from
/// benchmark code, with no change to the store.
class TimingStore final : public titant::kvstore::KvTable {
 public:
  struct Totals {
    uint64_t multiget_calls = 0;
    uint64_t probes = 0;
    int64_t multiget_busy_ns = 0;
    titant::Histogram multiget_us;
    uint64_t putbatch_calls = 0;
    titant::Histogram putbatch_us;
  };

  /// `inner` must outlive this decorator.
  explicit TimingStore(titant::kvstore::KvTable* inner) : inner_(inner) {}

  void MultiGetView(const titant::kvstore::ColumnProbeView* probes, std::size_t n,
                    titant::kvstore::ReadPin* pin, titant::StatusOr<std::string_view>* out,
                    uint64_t snapshot = UINT64_MAX) const override {
    const int64_t start = NowNs();
    inner_->MultiGetView(probes, n, pin, out, snapshot);
    const int64_t elapsed = NowNs() - start;
    std::lock_guard<std::mutex> lock(mu_);
    ++totals_.multiget_calls;
    totals_.probes += n;
    totals_.multiget_busy_ns += elapsed;
    totals_.multiget_us.Add(static_cast<double>(elapsed) / 1e3);
  }

  titant::Status PutBatch(const std::vector<titant::kvstore::Cell>& cells) override {
    const int64_t start = NowNs();
    titant::Status status = inner_->PutBatch(cells);
    const int64_t elapsed = NowNs() - start;
    std::lock_guard<std::mutex> lock(mu_);
    ++totals_.putbatch_calls;
    totals_.putbatch_us.Add(static_cast<double>(elapsed) / 1e3);
    return status;
  }

  bool degraded_reads() const override { return inner_->degraded_reads(); }

  /// Starts a fresh window (the traced phase's recorded part).
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    totals_ = Totals();
  }

  Totals totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

 private:
  titant::kvstore::KvTable* inner_;
  mutable std::mutex mu_;
  mutable Totals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_STORE_H_
