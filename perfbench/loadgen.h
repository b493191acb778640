/// \file loadgen.h
/// \brief The benchmark's open-loop load generator.
///
/// Arrivals follow a precomputed schedule (Poisson, from the workload
/// seed). Each client thread owns one keep-alive connection and takes the
/// next due job only when its previous one finished, so a job whose due
/// time passed while every connection was busy waits in the generator's
/// queue. Latency is always measured from the job's *due* time, never
/// from the moment it was sent: a stall therefore shows in the latency
/// of every request queued behind it. The generator's own lateness
/// (send time minus the later of due time and pick-up time) is reported
/// separately as lag, which tells whether the run measured the program
/// or the generator.

#ifndef XSUM_PERFBENCH_LOADGEN_H_
#define XSUM_PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "util/rng.h"

namespace xsum::perfbench {

/// One scheduled job: due `due_ns` after the phase start; `item` indexes
/// the workload's request (or session) list.
struct Shot {
  int64_t due_ns = 0;
  uint32_t item = 0;
};

/// One answered request.
struct Sample {
  double latency_ms = 0.0;  ///< from due time to full response
  bool ok = false;          ///< 200 and byte-identical to the reference
};

/// Poisson arrivals over [0, seconds) conditioned on their count: exactly
/// \p count arrivals at independent uniform times, so every run of a phase
/// offers the same number of jobs (seconds = 0 puts them all at once).
/// \p pick draws the item of each arrival, in time order, from \p rng.
inline std::vector<Shot> PoissonSchedule(
    size_t count, double seconds, Rng* rng,
    const std::function<uint32_t(Rng*)>& pick) {
  std::vector<int64_t> due(count);
  for (int64_t& d : due) {
    d = static_cast<int64_t>(rng->UniformDouble() * seconds * 1e9);
  }
  std::sort(due.begin(), due.end());
  std::vector<Shot> shots;
  shots.reserve(count);
  for (int64_t d : due) shots.push_back({d, pick(rng)});
  return shots;
}

/// Outcome of one open-loop phase.
struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<double> lag_ms;  ///< one per started job
  size_t unsent = 0;           ///< jobs not started before the cutoff
  double wall_s = 0.0;         ///< phase start to last completion
  double cpu_us = 0.0;         ///< process CPU over the phase
};

/// \brief Runs \p shots open-loop on \p clients threads. \p job(client,
/// shot, due_abs_ns, out) performs one job on client \p client's
/// connection and appends its samples (a session job appends several).
/// Jobs not started within \p cutoff_s of the phase start are left unsent.
inline PhaseResult RunOpenLoop(
    size_t clients, const std::vector<Shot>& shots, double cutoff_s,
    const std::function<void(size_t, const Shot&, int64_t,
                             std::vector<Sample>*)>& job) {
  PhaseResult result;
  std::atomic<size_t> next{0};
  std::atomic<size_t> started{0};
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<std::vector<double>> lags(clients);
  const double cpu0 = CpuUs();
  const int64_t start = NowNs() + 2'000'000;  // let every thread start
  const int64_t cutoff = start + static_cast<int64_t>(cutoff_s * 1e9);
  std::vector<int64_t> finished(clients, start);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= shots.size()) return;
        const int64_t picked = NowNs();
        if (picked > cutoff) return;
        started.fetch_add(1, std::memory_order_relaxed);
        const int64_t due = start + shots[i].due_ns;
        if (due > picked) {
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(due)));
        }
        const int64_t sent = NowNs();
        lags[c].push_back(NsToMs(sent - std::max(due, picked)));
        job(c, shots[i], due, &samples[c]);
        finished[c] = NowNs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < clients; ++c) {
    result.samples.insert(result.samples.end(), samples[c].begin(),
                          samples[c].end());
    result.lag_ms.insert(result.lag_ms.end(), lags[c].begin(), lags[c].end());
  }
  int64_t last = start;
  for (int64_t f : finished) last = std::max(last, f);
  result.unsent = shots.size() - started.load();
  result.wall_s = static_cast<double>(last - start) * 1e-9;
  result.cpu_us = CpuUs() - cpu0;
  return result;
}

}  // namespace xsum::perfbench

#endif  // XSUM_PERFBENCH_LOADGEN_H_
