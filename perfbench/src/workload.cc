#include "workload.h"

#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

double PerOp(double total, std::size_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double Speedup(double one_thread, double n_threads) {
  return n_threads > 0 ? one_thread / n_threads : 0.0;
}

}  // namespace

void ReportLayers(const TracedLayers& l, Results* r) {
  const std::size_t w = l.write_ops;
  const std::size_t rd = l.read_ops;
  // Write path, per refactored field at nproc threads.
  r->Add("decompose.decompose_ms", PerOp(l.write_n.decompose_ms, w), "ms", w);
  r->Add("decompose.extract_ms", PerOp(l.write_n.extract_ms, w), "ms", w);
  r->Add("encode.encode_ms", PerOp(l.write_n.encode_ms, w), "ms", w);
  r->Add("encode.sketch_ms", PerOp(l.write_n.sketch_ms, w), "ms", w);
  r->Add("lossless.compress_ms", PerOp(l.write_n.compress_ms, w), "ms", w);
  r->Add("lossless.bytes_in",
         PerOp(static_cast<double>(l.write_n.bytes_in), w), "B", w);
  r->Add("lossless.bytes_out",
         PerOp(static_cast<double>(l.write_n.bytes_out), w), "B", w);
  r->Add("lossless.planes_rice",
         PerOp(static_cast<double>(l.write_n.planes_rice), w), "count", w);
  r->Add("lossless.planes_pipeline",
         PerOp(static_cast<double>(l.write_n.planes_pipeline), w), "count",
         w);
  r->Add("lossless.planes_raw",
         PerOp(static_cast<double>(l.write_n.planes_raw), w), "count", w);
  r->Add("storage.put_ms", PerOp(l.write_n.put_ms, w), "ms", w);
  // Read path, per reconstruction.
  r->Add("storage.get_ms", PerOp(l.read.get_ms, rd), "ms", rd);
  r->Add("storage.gets", PerOp(static_cast<double>(l.read.gets), rd),
         "count", rd);
  r->Add("storage.bytes_read",
         PerOp(static_cast<double>(l.read.bytes_read), rd), "B", rd);
  r->Add("lossless.decompress_ms", PerOp(l.read.decompress_ms, rd), "ms", rd);
  r->Add("encode.decode_ms", PerOp(l.read.decode_ms, rd), "ms", rd);
  r->Add("encode.planes_decoded",
         PerOp(static_cast<double>(l.read.planes_decoded), rd), "count", rd);
  r->Add("decompose.deposit_ms", PerOp(l.read.deposit_ms, rd), "ms", rd);
  r->Add("decompose.recompose_ms", PerOp(l.read.recompose_ms, rd), "ms", rd);
  // Thread scaling: 1-thread time over nproc time for the same replays.
  r->Add("decompose.speedup",
         Speedup(l.write_1.decompose_ms, l.write_n.decompose_ms), "x", w);
  r->Add("encode.speedup", Speedup(l.write_1.encode_ms, l.write_n.encode_ms),
         "x", w);
  r->Add("lossless.speedup",
         Speedup(l.write_1.compress_ms, l.write_n.compress_ms), "x", w);
  r->Add("recompose.speedup",
         Speedup(l.read_1.recompose_ms, l.read_n.recompose_ms), "x");
  r->Add("trace_overhead_pct",
         l.untraced_ms > 0 ? 100.0 * (l.traced_ms / l.untraced_ms - 1.0) : 0.0,
         "%");
  const double accounted =
      l.traced_ms > 0 ? l.accounted_ms / l.traced_ms : 0.0;
  r->Add("accounted_pct", 100.0 * accounted, "%");
  std::ostringstream what;
  what << "per-layer self times account for " << 100.0 * accounted
       << "% of the traced time (margin " << 100.0 * kAccountingMargin
       << "%)";
  r->Check(std::fabs(accounted - 1.0) <= kAccountingMargin, what.str());
}

}  // namespace perfbench
