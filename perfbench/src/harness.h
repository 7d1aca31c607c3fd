// Measurement scaffolding shared by the benchmark's workloads: clocks,
// the percentile reporting rule, machine context, and the two output lines
// (a report object for people and CI, then the one-line result).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Median with linear interpolation; 0 for an empty sample.
double Median(const std::vector<double>& samples);

// Percentile `pct` (0..100) with linear interpolation.
double Percentile(const std::vector<double>& samples, double pct);

// The reporting rule for a latency: besides the median, the highest of the
// percentiles {50, 75, 90, 95, 99} that has at least ten samples strictly
// beyond it, i.e. n - ceil(n * pct / 100) >= 10. Returns 0 when even the
// median does not qualify (fewer than 20 samples).
int TailPercentile(std::size_t num_samples);

// Peak resident set size of this process, from getrusage.
double PeakRssMb();

struct MachineContext {
  int nproc = 0;
  std::string cpu_model;
  long l2_bytes = 0;
  long l3_bytes = 0;
  long ram_bytes = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  int pool_threads = 0;
  std::uint64_t seed = 0;

  static MachineContext Probe(std::string commit, std::uint64_t seed);
  std::string ToJson() const;
};

// One reported value. `samples` is 0 for values that are not sample
// statistics (ratios, counts, throughputs over a whole run).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// Everything one invocation reports. `declared` holds the metrics of the
// final result line (the names BENCHMARK.json declares); `detail` holds the
// finer breakdown that only the report line carries.
struct Results {
  std::string workload;
  bool trace = false;
  std::vector<Metric> declared;
  std::vector<Metric> detail;
  std::vector<std::string> notes;
  std::vector<std::string> failures;  // correctness-gate failures
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void Add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
  void Detail(std::string name, double value, std::string unit,
              std::size_t samples = 0);
  // Records one checked operation; a false `ok` is a failure with `what`.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && attempted > 0; }
};

// Prints the report line and then the result line to stdout.
void PrintResults(const Results& results, const MachineContext& machine);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
