// The repository's end-to-end benchmark.
//
//   perfbench --workload refactor|retrieve|session-ladder --seed N
//             --seconds S --trace 0|1 [--commit SHA]
//
// --trace 0 measures the end-to-end metrics with nothing in the way;
// --trace 1 replays the same operations layer by layer and reports the
// per-layer metrics. Both print a report line and then the one-line
// result; the exit code is non-zero when any correctness check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "util/parallel.h"
#include "workload.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "refactor|retrieve|session-ladder --seed N --seconds S "
               "--trace 0|1 [--commit SHA]\n",
               msg);
  return 2;
}

std::string FitNote(const char* what, double bytes, long l3_bytes) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s field is %.1f MB and %s the %.1f MB L3",
                what, bytes / 1e6,
                l3_bytes > 0 && bytes <= static_cast<double>(l3_bytes)
                    ? "fits in"
                    : "does not fit in",
                static_cast<double>(l3_bytes) / 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, commit;
  RunOptions o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      o.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const RunOptions&, Results*) = nullptr;
  if (workload == "refactor") {
    run = RunRefactor;
  } else if (workload == "retrieve") {
    run = RunRetrieve;
  } else if (workload == "session-ladder") {
    run = RunSessionLadder;
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  o.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  mgardp::SetGlobalThreadCount(o.nproc);

  Results results;
  results.workload = workload;
  results.trace = o.trace;
  run(o, &results);
  mgardp::SetGlobalThreadCount(o.nproc);

  const MachineContext machine = MachineContext::Probe(commit, o.seed);
  results.notes.push_back(FitNote("a 129^3", 129.0 * 129 * 129 * 8,
                                  machine.l3_bytes));
  results.notes.push_back(FitNote("the 257^3", 257.0 * 257 * 257 * 8,
                                  machine.l3_bytes));
  results.notes.push_back(
      "byte counts (lossless.bytes_in/out, storage.bytes_read, byte_ratio) "
      "are computed from buffer sizes, not measured memory traffic");
  PrintResults(results, machine);
  return results.correct() ? 0 : 1;
}
