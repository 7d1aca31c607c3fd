// The traced run: times each layer from outside the library by calling the
// same public functions the program calls, in the same order, and checks
// that the result is bit-identical to the program's own output.
//
//   write path  Refactorer::Refactor      -> ReplayRefactor
//   read path   ReconstructFromSegments   -> ReplayReconstruct
//   planner     ErrorEstimator            -> TimedEstimator (decorator)
//   fetches     StorageBackend            -> TimedBackend (decorator)
//
// The library's own tracer stays off; these spans live in the benchmark.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "progressive/error_estimator.h"
#include "progressive/reconstructor.h"
#include "progressive/refactored_field.h"
#include "progressive/refactorer.h"
#include "storage/storage_backend.h"
#include "util/array3d.h"
#include "util/status.h"

namespace perfbench {

// Self time (ms) and work counts per layer, accumulated over replays.
struct LayerTimes {
  // write path
  double summarize_ms = 0, decompose_ms = 0, extract_ms = 0, encode_ms = 0,
         sketch_ms = 0, compress_ms = 0, put_ms = 0;
  std::uint64_t bytes_in = 0, bytes_out = 0;  // lossless raw / compressed
  std::uint64_t planes_rice = 0, planes_pipeline = 0, planes_raw = 0;
  // read path
  double get_ms = 0, decompress_ms = 0, decode_ms = 0, deposit_ms = 0,
         recompose_ms = 0;
  std::uint64_t gets = 0, bytes_read = 0, planes_decoded = 0;

  double WriteMs() const {
    return summarize_ms + decompose_ms + extract_ms + encode_ms + sketch_ms +
           compress_ms + put_ms;
  }
  double ReadMs() const {
    return get_ms + decompress_ms + decode_ms + deposit_ms + recompose_ms;
  }
  LayerTimes& operator+=(const LayerTimes& o);
};

// Mirrors Refactorer::Refactor stage by stage.
mgardp::Result<mgardp::RefactoredField> ReplayRefactor(
    const mgardp::Array3Dd& data, const mgardp::RefactorOptions& options,
    LayerTimes* times);

// Mirrors ReconstructFromSegments stage by stage.
mgardp::Result<mgardp::Array3Dd> ReplayReconstruct(
    const mgardp::RefactoredField& field, const mgardp::SegmentStore& segments,
    const std::vector<int>& prefix, LayerTimes* times);

// Counts and times every Estimate call of the wrapped estimator. Safe to
// share across threads.
class TimedEstimator : public mgardp::ErrorEstimator {
 public:
  explicit TimedEstimator(const mgardp::ErrorEstimator* inner)
      : inner_(inner) {}

  double Estimate(const mgardp::RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  mgardp::Result<double> TryEstimate(
      const mgardp::RefactoredField& field,
      const std::vector<int>& prefix) const override;
  std::string name() const override { return inner_->name(); }

  std::uint64_t calls() const { return calls_.load(); }
  double ms() const { return static_cast<double>(ns_.load()) * 1e-6; }

 private:
  const mgardp::ErrorEstimator* inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> ns_{0};
};

// Counts and times every Get of the wrapped backend. Safe to share across
// threads as far as the inner backend's reads are.
class TimedBackend : public mgardp::StorageBackend {
 public:
  explicit TimedBackend(mgardp::StorageBackend* inner) : inner_(inner) {}

  mgardp::Result<std::string> Get(int level, int plane) override;
  mgardp::Status Put(int level, int plane, std::string payload) override {
    return inner_->Put(level, plane, std::move(payload));
  }
  bool Contains(int level, int plane) const override {
    return inner_->Contains(level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return inner_->Keys();
  }
  std::string name() const override { return "timed+" + inner_->name(); }

  std::uint64_t gets() const { return gets_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }
  double ms() const { return static_cast<double>(ns_.load()) * 1e-6; }

 private:
  mgardp::StorageBackend* inner_;
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> ns_{0};
};

// Bit-identity of two artifacts: metadata, error matrices, sketches, plane
// sizes and every segment payload. Empty string when identical, else the
// first difference.
std::string DiffFields(const mgardp::RefactoredField& a,
                       const mgardp::RefactoredField& b);

bool ArraysIdentical(const mgardp::Array3Dd& a, const mgardp::Array3Dd& b);

// Every plane of every level: the full prefix.
std::vector<int> FullPrefix(const mgardp::RefactoredField& field);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
