// refactor: Refactorer::Refactor with default options (codec "auto") over
// Gray-Scott D_u 129^3 frames and one WarpX E_x 257^3 frame, each at nproc
// threads and again at 1 thread. The 129^3 frames (17 MB) fit in a large
// L3, the 257^3 frame (136 MB) does not; smooth Gray-Scott next to
// oscillatory WarpX moves the codec mix between rice and pipeline.

#include <algorithm>
#include <string>
#include <vector>

#include "inputs.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using mgardp::Array3Dd;
using mgardp::RefactoredField;

constexpr int kGrayScottFrames = 3;

struct Inputs {
  std::vector<Array3Dd> fields;  // Gray-Scott 129^3 frames, then WarpX 257^3
  std::vector<std::string> labels;
};

Inputs Generate(std::uint64_t seed) {
  Inputs in;
  in.fields = GrayScottDu(seed, 129, kGrayScottFrames);
  for (int i = 0; i < kGrayScottFrames; ++i) {
    in.labels.push_back("gray-scott D_u 129^3 #" + std::to_string(i));
  }
  in.fields.push_back(std::move(WarpXEx(seed, 257, 1)[0]));
  in.labels.push_back("warpx E_x 257^3");
  return in;
}

// The artifact must reconstruct at full prefix within the error floor the
// theory bound certifies for it.
void CheckRoundTrip(const RefactoredField& field, const Array3Dd& original,
                    const Array3Dd* reconstructed, const std::string& label,
                    Results* r) {
  const std::vector<int> full = FullPrefix(field);
  const double bound = mgardp::TheoryEstimator().Estimate(field, full);
  const double err =
      reconstructed == nullptr
          ? -1.0
          : mgardp::MaxAbsError(original.vector(), reconstructed->vector());
  r->Check(reconstructed != nullptr && err >= 0.0 && err <= bound,
           label + ": full-prefix round trip error " + std::to_string(err) +
               " exceeds certified floor " + std::to_string(bound));
}

// Throughput over a fixed mix of fields, from each field's median time, so
// one disturbed call does not move it.
double MixMbps(const Inputs& in, const std::vector<std::vector<double>>& ms) {
  double mb = 0, s = 0;
  for (std::size_t i = 0; i < in.fields.size(); ++i) {
    if (!ms[i].empty()) {
      mb += RawMb(in.fields[i]);
      s += Median(ms[i]) / 1e3;
    }
  }
  return s > 0 ? mb / s : 0.0;
}

void Untraced(const RunOptions& o, const Inputs& in,
              const mgardp::Refactorer& refactorer, Results* r) {
  // Per field, call times at nproc threads (every round) and at 1 thread
  // (the first round only: the 1-thread 257^3 refactor alone takes seconds).
  std::vector<std::vector<double>> ms_n(in.fields.size());
  std::vector<std::vector<double>> ms_1(in.fields.size());
  std::size_t raw_bytes = 0, stored_bytes = 0;
  std::vector<RefactoredField> first_n(in.fields.size());
  std::vector<RefactoredField> first_1(in.fields.size());
  const auto start = Clock::now();
  int rounds = 0;
  do {
    for (std::size_t i = 0; i < in.fields.size(); ++i) {
      for (int threads : {o.nproc, 1}) {
        const bool nproc = threads == o.nproc;
        if (!nproc && rounds > 0) {
          continue;
        }
        mgardp::SetGlobalThreadCount(threads);
        const auto t0 = Clock::now();
        auto field = refactorer.Refactor(in.fields[i]);
        const double ms = MsBetween(t0, Clock::now());
        r->Check(field.ok(), in.labels[i] + ": refactor failed: " +
                                 field.status().message());
        if (!field.ok()) {
          continue;
        }
        (nproc ? ms_n : ms_1)[i].push_back(ms);
        if (rounds == 0) {
          if (nproc) {
            raw_bytes += in.fields[i].size() * sizeof(double);
            stored_bytes += field.value().segments.TotalBytes();
          }
          (nproc ? first_n : first_1)[i] = std::move(field).value();
        }
      }
    }
    ++rounds;
  } while (SecondsSince(start) < o.seconds);
  mgardp::SetGlobalThreadCount(o.nproc);

  // Gate: thread-count determinism and a full-prefix round trip per field.
  for (std::size_t i = 0; i < in.fields.size(); ++i) {
    const std::string diff = DiffFields(first_n[i], first_1[i]);
    r->Check(diff.empty(),
             in.labels[i] + ": nproc and 1-thread artifacts differ: " + diff);
    auto back = mgardp::ReconstructFromPrefix(first_n[i],
                                              FullPrefix(first_n[i]));
    CheckRoundTrip(first_n[i], in.fields[i], back.ok() ? &back.value() : nullptr,
                   in.labels[i], r);
  }

  std::vector<double> small_n, small_1;
  for (std::size_t i = 0; i + 1 < in.fields.size(); ++i) {
    small_n.insert(small_n.end(), ms_n[i].begin(), ms_n[i].end());
    small_1.insert(small_1.end(), ms_1[i].begin(), ms_1[i].end());
  }
  const std::vector<double>& large_n = ms_n.back();
  const std::vector<double>& large_1 = ms_1.back();
  const double mbps = MixMbps(in, ms_n);
  const double ratio = raw_bytes > 0 ? static_cast<double>(stored_bytes) /
                                           static_cast<double>(raw_bytes)
                                     : 0.0;
  const std::size_t n = small_n.size() + large_n.size();
  r->Add("mbps", mbps, "MB/s", n);
  r->Add("p50_ms", Median(small_n), "ms", small_n.size());
  r->Add("byte_ratio", ratio, "ratio");
  r->Detail("refactor_mbps", mbps, "MB/s", n);
  r->Detail("refactor_mbps_1t", MixMbps(in, ms_1), "MB/s",
            small_1.size() + large_1.size());
  r->Detail("stored_ratio", ratio, "ratio");
  r->Detail("refactor_129_p50_ms", Median(small_n), "ms", small_n.size());
  r->Detail("refactor_129_1t_p50_ms", Median(small_1), "ms", small_1.size());
  r->Detail("refactor_257_p50_ms", Median(large_n), "ms", large_n.size());
  r->Detail("refactor_257_1t_p50_ms", Median(large_1), "ms", large_1.size());
  r->Detail("rounds", rounds, "count");
}

void Traced(const RunOptions& o, const Inputs& in,
            const mgardp::Refactorer& refactorer, Results* r) {
  TracedLayers layers;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < in.fields.size(); ++i) {
      const std::string& label = in.labels[i];
      mgardp::SetGlobalThreadCount(o.nproc);
      auto t0 = Clock::now();
      auto program = refactorer.Refactor(in.fields[i]);
      layers.untraced_ms += MsBetween(t0, Clock::now());
      LayerTimes write;
      t0 = Clock::now();
      auto replay = ReplayRefactor(in.fields[i], refactorer.options(), &write);
      layers.traced_ms += MsBetween(t0, Clock::now());
      layers.accounted_ms += write.WriteMs();
      layers.write_n += write;
      ++layers.write_ops;
      r->Check(program.ok() && replay.ok(), label + ": refactor failed");
      if (!program.ok() || !replay.ok()) {
        continue;
      }
      std::string diff = DiffFields(program.value(), replay.value());
      r->Check(diff.empty(), label + ": replay differs from Refactor: " + diff);

      mgardp::SetGlobalThreadCount(1);
      auto replay_1 =
          ReplayRefactor(in.fields[i], refactorer.options(), &layers.write_1);
      diff = replay_1.ok() ? DiffFields(program.value(), replay_1.value())
                           : replay_1.status().message();
      r->Check(diff.empty(),
               label + ": 1-thread replay differs from Refactor: " + diff);

      // The round-trip gate, replayed through the read path.
      const RefactoredField& field = program.value();
      const std::vector<int> full = FullPrefix(field);
      LayerTimes read_1;
      auto back_1 = ReplayReconstruct(field, field.segments, full, &read_1);
      mgardp::SetGlobalThreadCount(o.nproc);
      auto reference = mgardp::ReconstructFromPrefix(field, full);
      LayerTimes read;
      auto back = ReplayReconstruct(field, field.segments, full, &read);
      r->Check(reference.ok() && back.ok() && back_1.ok() &&
                   ArraysIdentical(reference.value(), back.value()) &&
                   ArraysIdentical(reference.value(), back_1.value()),
               label + ": read replay differs from ReconstructFromPrefix");
      CheckRoundTrip(field, in.fields[i], back.ok() ? &back.value() : nullptr,
                     label, r);
      layers.read += read;
      layers.read_n += read;
      layers.read_1 += read_1;
      ++layers.read_ops;
    }
  } while (SecondsSince(start) < o.seconds);
  mgardp::SetGlobalThreadCount(o.nproc);
  ReportLayers(layers, r);
  r->Detail("refactor.untraced_ms_per_field",
            layers.untraced_ms / std::max<std::size_t>(layers.write_ops, 1),
            "ms", layers.write_ops);
  r->Detail("refactor.traced_ms_per_field",
            layers.traced_ms / std::max<std::size_t>(layers.write_ops, 1),
            "ms", layers.write_ops);
}

}  // namespace

void RunRefactor(const RunOptions& o, Results* r) {
  std::vector<double> setup_s;
  Inputs in = RepeatedSetup(o.trace ? 1 : kSetupRepeats,
                            [&] { return Generate(o.seed); }, &setup_s);
  const mgardp::Refactorer refactorer;  // default options, codec "auto"
  if (o.trace) {
    Traced(o, in, refactorer, r);
  } else {
    r->Add("setup_s", Median(setup_s), "s", setup_s.size());
    Untraced(o, in, refactorer, r);
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
  }
}

}  // namespace perfbench
