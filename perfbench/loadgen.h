#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/histogram.h"

namespace perfbench {

/// Monotonic nanoseconds (the steady clock, CLOCK_MONOTONIC on Linux).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until the absolute NowNs() instant `due_ns`; returns at once
/// when it has passed.
inline void SleepUntilNs(int64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// The kernel rounds timed sleeps up by the thread's timer slack (50 us
/// by default), which would show up as sender lag; a sender thread asks
/// for the finest slack before it starts its schedule.
inline void UseFineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Process CPU time (user + system, all threads) in seconds.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of the process, in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Median of `values` (0 when empty).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Prints `what` with the seconds since the process started to standard
/// error (progress of a run; standard output carries the result).
inline void Progress(const char* what) {
  static const int64_t origin = NowNs();
  std::fprintf(stderr, "perfbench: %7.2f s  %s\n", static_cast<double>(NowNs() - origin) / 1e9,
               what);
}

/// A timed sleep wakes a few microseconds late, more on a busy host; that
/// would show as sender lag. A sender sleeps until this long before a due
/// time and spins the rest of the way.
inline constexpr int64_t kSpinNs = 15'000;

/// What one open-loop sender measured, in microseconds per round trip.
struct OpenLoopStats {
  /// Completion minus the scheduled send time: the latency a user sees,
  /// including any wait a stall imposed on calls queued behind it.
  titant::Histogram latency_us;
  /// Completion minus the actual send time (the client round trip).
  titant::Histogram rtt_us;
  /// Actual send time minus the scheduled one: how late the sender ran.
  titant::Histogram lag_us;
  uint64_t calls = 0;
  /// Time spent spinning before due times: CPU the load generator burns,
  /// which is not the program's.
  int64_t spin_ns = 0;

  void Merge(const OpenLoopStats& other) {
    latency_us.Merge(other.latency_us);
    rtt_us.Merge(other.rtt_us);
    lag_us.Merge(other.lag_us);
    calls += other.calls;
    spin_ns += other.spin_ns;
  }
};

/// Open-loop schedule: call k is due at `start_ns + k * interval_ns`, for
/// every k whose due time is before `end_ns`, whether or not earlier calls
/// have returned on time. `call(k)` performs round trip k synchronously;
/// a call that runs late delays the ones after it, and their latency is
/// charged from their due time, so the stall is counted once per waiting
/// request instead of once.
template <typename Call>
void RunOpenLoop(int64_t start_ns, int64_t end_ns, int64_t interval_ns, OpenLoopStats* stats,
                 Call&& call) {
  for (int64_t k = 0;; ++k) {
    const int64_t due = start_ns + k * interval_ns;
    if (due >= end_ns) break;
    SleepUntilNs(due - kSpinNs);
    int64_t sent = NowNs();
    if (sent < due) {
      const int64_t spin_start = sent;
      while (sent < due) sent = NowNs();
      stats->spin_ns += sent - spin_start;
    }
    call(k);
    const int64_t done = NowNs();
    stats->latency_us.Add(static_cast<double>(done - due) / 1e3);
    stats->rtt_us.Add(static_cast<double>(done - sent) / 1e3);
    stats->lag_us.Add(static_cast<double>(sent - due) / 1e3);
    ++stats->calls;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
