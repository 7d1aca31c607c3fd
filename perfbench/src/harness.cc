#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/parallel.h"
#include "util/stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

double Percentile(const std::vector<double>& samples, double pct) {
  if (samples.empty()) {
    return 0.0;
  }
  return mgardp::Quantile(samples, pct / 100.0);
}

int TailPercentile(std::size_t num_samples) {
  int best = 0;
  for (int pct : {50, 75, 90, 95, 99}) {
    const auto at = static_cast<std::size_t>(
        std::ceil(static_cast<double>(num_samples) * pct / 100.0));
    if (num_samples >= at && num_samples - at >= 10) {
      best = pct;
    }
  }
  return best;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

long SysconfOrZero(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

}  // namespace

MachineContext MachineContext::Probe(std::string commit, std::uint64_t seed) {
  MachineContext m;
  m.nproc = static_cast<int>(std::thread::hardware_concurrency());
  m.cpu_model = CpuModel();
  m.l2_bytes = SysconfOrZero(_SC_LEVEL2_CACHE_SIZE);
  m.l3_bytes = SysconfOrZero(_SC_LEVEL3_CACHE_SIZE);
  m.ram_bytes = SysconfOrZero(_SC_PHYS_PAGES) * SysconfOrZero(_SC_PAGESIZE);
  m.compiler = std::string("gcc ") + __VERSION__;
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.commit = commit.empty() ? "unknown" : std::move(commit);
  m.pool_threads = mgardp::GlobalThreadCount();
  m.seed = seed;
  return m;
}

std::string MachineContext::ToJson() const {
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
     << JsonEscape(cpu_model) << "\", \"l2_bytes\": " << l2_bytes
     << ", \"l3_bytes\": " << l3_bytes << ", \"ram_bytes\": " << ram_bytes
     << ", \"compiler\": \"" << JsonEscape(compiler)
     << "\", \"build_type\": \"" << JsonEscape(build_type)
     << "\", \"commit\": \"" << JsonEscape(commit)
     << "\", \"pool_threads\": " << pool_threads << ", \"seed\": " << seed
     << "}";
  return os.str();
}

void Results::Add(std::string name, double value, std::string unit,
                  std::size_t samples) {
  declared.push_back({std::move(name), value, std::move(unit), samples});
}

void Results::Detail(std::string name, double value, std::string unit,
                     std::size_t samples) {
  detail.push_back({std::move(name), value, std::move(unit), samples});
}

void Results::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the report bounded when something fails systematically.
    if (failures.size() < 20) {
      failures.push_back(what);
    }
  }
}

namespace {

// Finite numbers print with all their digits; JSON has no inf/nan.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricList(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << "{\"name\": \"" << JsonEscape(m.name)
       << "\", \"value\": " << Num(m.value) << ", \"unit\": \""
       << JsonEscape(m.unit) << "\", \"samples\": " << m.samples << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace

void PrintResults(const Results& r, const MachineContext& machine) {
  std::ostringstream report;
  report << "{\"report\": {\"workload\": \"" << JsonEscape(r.workload)
         << "\", \"trace\": " << (r.trace ? 1 : 0)
         << ", \"machine\": " << machine.ToJson()
         << ", \"error_rate\": "
         << Num(r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 1.0)
         << ", \"metrics\": " << MetricList(r.declared)
         << ", \"detail\": " << MetricList(r.detail) << ", \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    report << (i ? ", " : "") << "\"" << JsonEscape(r.notes[i]) << "\"";
  }
  report << "], \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    report << (i ? ", " : "") << "\"" << JsonEscape(r.failures[i]) << "\"";
  }
  report << "]}}";
  std::printf("%s\n", report.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (r.correct() ? "true" : "false")
         << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.declared.size(); ++i) {
    const Metric& m = r.declared[i];
    result << (i ? ", " : "") << "\"" << JsonEscape(m.name)
           << "\": {\"value\": " << Num(m.value) << ", \"unit\": \""
           << JsonEscape(m.unit) << "\"}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
