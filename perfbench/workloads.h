#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "datagen/world.h"
#include "kvstore/store.h"
#include "loadgen.h"
#include "report.h"
#include "serving/request.h"
#include "txn/window.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and tables; the run owns and clears it.
  std::string workdir;
};

/// Operations a run attempted and how many of them failed (the result
/// line's `attempted` / `failed`).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// score_mixed_disk (score.cc).
Tally RunScoreWorkload(const RunArgs& args, Report* report);
/// offline_day (offline.cc).
Tally RunOfflineWorkload(const RunArgs& args, Report* report);

/// A failed set-up step is a broken benchmark, not a measurement: the run
/// stops without a result line.
inline void OrDie(const titant::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T OrDie(titant::StatusOr<T> value, const char* what) {
  OrDie(value.status(), what);
  return std::move(value).value();
}

/// The T+1 test day every workload scores and trains for (the paper's
/// first test day); the world starts 104 days earlier so the 90-day
/// network window and 14 training days precede it.
inline titant::txn::Day TestDay() { return titant::txn::DateToDay("2017-04-10"); }

inline titant::datagen::WorldOptions WorldFor(int users, int days, uint64_t seed) {
  titant::datagen::WorldOptions options;
  options.num_users = users;
  options.num_days = days;
  options.first_day = TestDay() - 104;
  options.seed = seed;
  return options;
}

/// The test day's transfers as score requests.
std::vector<titant::serving::TransferRequest> TestDayRequests(
    const titant::datagen::World& world, const titant::txn::DatasetWindow& window);

/// Cells per live-counter write frame (the streaming publisher's shape).
inline constexpr int kCounterCellsPerFrame = 64;

/// Fills `cells` with write frame `frame` of live-counter cells: rows of a
/// user range disjoint from every generated world, so writes load the
/// store without changing what the scorers read.
void FillCounterCells(uint64_t frame, std::vector<titant::kvstore::Cell>* cells);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
