// The three workloads and what they share: options, repeated set-up, and
// the per-layer metrics every traced run reports.
//
//   refactor        write path only: decompose, interleave, encode,
//                   lossless, store. Never plans, never touches the DNN or
//                   the service.
//   retrieve        one client, one-shot Reconstructor::Retrieve with the
//                   theory estimator and with E-MGARD: DNN-heavy planning
//                   next to a decode/recompose-heavy read.
//   session-ladder  nproc closed-loop clients refining sessions through
//                   RetrievalScheduler and a shared SegmentCache; theory
//                   estimator only, so the DNN is bypassed.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "harness.h"
#include "replay.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;  // pool threads and, for session-ladder, clients
};

// Set-up runs this many times per untraced run; setup_s is the median.
constexpr int kSetupRepeats = 3;

// A traced run's per-layer self times must add up to its traced end-to-end
// time within this share; a blocking step the replay misses shows as a gap.
constexpr double kAccountingMargin = 0.20;

// Runs `setup` (a callable returning the workload state) `repeats` times,
// dropping each result before building the next so memory does not stack
// up, and returns the last one. `seconds` receives every set-up time.
template <typename Setup>
auto RepeatedSetup(int repeats, Setup&& setup, std::vector<double>* seconds) {
  std::optional<decltype(setup())> state;
  seconds->clear();
  for (int i = 0; i < std::max(repeats, 1); ++i) {
    state.reset();
    const auto start = Clock::now();
    state.emplace(setup());
    seconds->push_back(SecondsSince(start));
  }
  return std::move(*state);
}

// What a traced run measured, per operation of each kind.
struct TracedLayers {
  LayerTimes write_n;  // write-path replays at nproc threads
  LayerTimes write_1;  // the same replays at 1 thread
  std::size_t write_ops = 0;
  LayerTimes read;     // read-path replays as the program runs them
  std::size_t read_ops = 0;
  LayerTimes read_n;   // read replays at nproc threads ...
  LayerTimes read_1;   // ... and the same at 1 thread (recompose.speedup)
  double untraced_ms = 0;  // the workload's operations, untraced
  double traced_ms = 0;    // the same operations, replayed or decorated
  double accounted_ms = 0; // sum of layer self times within traced_ms
};

// Adds the per_layer metrics of BENCHMARK.json and checks the accounting
// margin.
void ReportLayers(const TracedLayers& layers, Results* results);

void RunRefactor(const RunOptions& options, Results* results);
void RunRetrieve(const RunOptions& options, Results* results);
void RunSessionLadder(const RunOptions& options, Results* results);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
