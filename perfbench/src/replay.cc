#include "replay.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "encode/bitplane.h"
#include "harness.h"
#include "lossless/codec.h"
#include "progressive/padding.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace perfbench {

using mgardp::Array3Dd;
using mgardp::RefactoredField;
using mgardp::Result;
using mgardp::Status;

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  summarize_ms += o.summarize_ms;
  decompose_ms += o.decompose_ms;
  extract_ms += o.extract_ms;
  encode_ms += o.encode_ms;
  sketch_ms += o.sketch_ms;
  compress_ms += o.compress_ms;
  put_ms += o.put_ms;
  bytes_in += o.bytes_in;
  bytes_out += o.bytes_out;
  planes_rice += o.planes_rice;
  planes_pipeline += o.planes_pipeline;
  planes_raw += o.planes_raw;
  get_ms += o.get_ms;
  decompress_ms += o.decompress_ms;
  decode_ms += o.decode_ms;
  deposit_ms += o.deposit_ms;
  recompose_ms += o.recompose_ms;
  gets += o.gets;
  bytes_read += o.bytes_read;
  planes_decoded += o.planes_decoded;
  return *this;
}

Result<RefactoredField> ReplayRefactor(const Array3Dd& input,
                                       const mgardp::RefactorOptions& options,
                                       LayerTimes* times) {
  using namespace mgardp;
  LayerTimes t;
  Array3Dd data = input;  // Refactor takes its input by value
  const Dims3 original_dims = data.dims();
  const Dims3 padded_dims = NextValidDims(original_dims);
  if (!(padded_dims == original_dims)) {
    MGARDP_ASSIGN_OR_RETURN(data, PadToDims(data, padded_dims));
  }
  HierarchyOptions hopts;
  hopts.target_steps = options.target_steps;
  MGARDP_ASSIGN_OR_RETURN(GridHierarchy hierarchy,
                          GridHierarchy::Create(data.dims(), hopts));
  RefactoredField field;
  field.hierarchy = hierarchy;
  field.original_dims = original_dims;
  field.num_planes = options.num_planes;
  field.use_correction = options.use_correction;

  auto mark = Clock::now();
  auto lap = [&mark](double* into) {
    const auto now = Clock::now();
    *into += MsBetween(mark, now);
    mark = now;
  };
  field.data_summary = Summarize(data.vector());
  lap(&t.summarize_ms);

  DecomposeOptions dopts;
  dopts.use_correction = options.use_correction;
  Decomposer decomposer(hierarchy, dopts);
  MGARDP_RETURN_NOT_OK(decomposer.Decompose(&data));
  lap(&t.decompose_ms);
  std::vector<std::vector<double>> levels =
      Interleaver(hierarchy).Extract(data);
  lap(&t.extract_ms);

  BitplaneEncoder encoder(options.num_planes);
  const int L = hierarchy.num_levels();
  field.level_exponents.resize(L);
  field.level_errors.resize(L);
  field.plane_sizes.resize(L);
  field.level_sketches.resize(L);
  std::vector<BitplaneSet> sets(L);
  for (int l = 0; l < L; ++l) {
    mark = Clock::now();
    MGARDP_ASSIGN_OR_RETURN(sets[l],
                            encoder.Encode(levels[l], &field.level_errors[l]));
    field.level_exponents[l] = sets[l].exponent;
    lap(&t.encode_ms);
    field.level_sketches[l] = AbsQuantileSketch(
        levels[l], static_cast<std::size_t>(options.sketch_bins));
    lap(&t.sketch_ms);
  }

  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    first_plane[l + 1] = first_plane[l] + sets[l].planes.size();
  }
  std::vector<std::string> compressed(first_plane[L]);
  Status compress_status;
  std::mutex status_mu;
  mark = Clock::now();
  ParallelFor(0, first_plane[L], 1, [&](std::size_t lo, std::size_t hi) {
    int l = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      while (i >= first_plane[l + 1]) {
        ++l;
      }
      Result<std::string> blob = lossless::CompressWith(
          sets[l].planes[i - first_plane[l]], options.codec);
      if (blob.ok()) {
        compressed[i] = std::move(blob).value();
      } else {
        std::lock_guard<std::mutex> lock(status_mu);
        compress_status = blob.status();
      }
    }
  });
  lap(&t.compress_ms);
  MGARDP_RETURN_NOT_OK(compress_status);

  for (int l = 0; l < L; ++l) {
    field.plane_sizes[l].resize(sets[l].planes.size());
    for (int p = 0; p < static_cast<int>(sets[l].planes.size()); ++p) {
      std::string& blob = compressed[first_plane[l] + p];
      t.bytes_in += sets[l].planes[p].size();
      t.bytes_out += blob.size();
      field.plane_sizes[l][p] = blob.size();
      field.segments.Put(l, p, std::move(blob));
    }
  }
  lap(&t.put_ms);

  // Codec mix, read back the way the store reports it.
  for (int l = 0; l < L; ++l) {
    for (int p = 0; p < static_cast<int>(sets[l].planes.size()); ++p) {
      const std::uint8_t id = field.segments.CodecOf(l, p);
      if (id >= lossless::kFirstRegisteredCodecId) {
        ++t.planes_rice;
      } else if (id == 0x00) {
        ++t.planes_raw;  // pipeline container with no stage applied
      } else {
        ++t.planes_pipeline;
      }
    }
  }
  *times += t;
  return field;
}

Result<Array3Dd> ReplayReconstruct(const RefactoredField& field,
                                   const mgardp::SegmentStore& segments,
                                   const std::vector<int>& prefix,
                                   LayerTimes* times) {
  using namespace mgardp;
  const int L = field.num_levels();
  if (static_cast<int>(prefix.size()) != L) {
    return Status::Invalid("prefix size does not match level count");
  }
  LayerTimes t;
  BitplaneEncoder encoder(field.num_planes);
  std::vector<int> plane_counts(L);
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    plane_counts[l] = std::clamp(prefix[l], 0, field.num_planes);
    first_plane[l + 1] = first_plane[l] + plane_counts[l];
  }
  auto mark = Clock::now();
  auto lap = [&mark](double* into) {
    const auto now = Clock::now();
    *into += MsBetween(mark, now);
    mark = now;
  };
  std::vector<std::string> compressed(first_plane[L]);
  for (int l = 0; l < L; ++l) {
    for (int p = 0; p < plane_counts[l]; ++p) {
      MGARDP_ASSIGN_OR_RETURN(compressed[first_plane[l] + p],
                              segments.Get(l, p));
      ++t.gets;
      t.bytes_read += compressed[first_plane[l] + p].size();
    }
  }
  lap(&t.get_ms);

  std::vector<std::string> payloads(first_plane[L]);
  std::vector<Status> decode_status(first_plane[L]);
  ParallelFor(0, first_plane[L], 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      Result<std::string> payload = lossless::Decompress(compressed[i]);
      if (payload.ok()) {
        payloads[i] = std::move(payload).value();
      } else {
        decode_status[i] = payload.status();
      }
    }
  });
  lap(&t.decompress_ms);
  for (const Status& st : decode_status) {
    MGARDP_RETURN_NOT_OK(st);
  }

  std::vector<std::vector<double>> levels(L);
  for (int l = 0; l < L; ++l) {
    BitplaneSet set;
    set.num_planes = field.num_planes;
    set.exponent = field.level_exponents[l];
    set.count = field.hierarchy.LevelSize(l);
    set.planes.assign(payloads.begin() + first_plane[l],
                      payloads.begin() + first_plane[l + 1]);
    MGARDP_ASSIGN_OR_RETURN(levels[l], encoder.Decode(set, plane_counts[l]));
    t.planes_decoded += plane_counts[l];
  }
  lap(&t.decode_ms);

  Array3Dd data(field.hierarchy.dims());
  MGARDP_RETURN_NOT_OK(Interleaver(field.hierarchy).Deposit(levels, &data));
  lap(&t.deposit_ms);
  DecomposeOptions dopts;
  dopts.use_correction = field.use_correction;
  MGARDP_RETURN_NOT_OK(Decomposer(field.hierarchy, dopts).Recompose(&data));
  if (field.original_dims.size() > 0 &&
      !(field.original_dims == field.hierarchy.dims())) {
    MGARDP_ASSIGN_OR_RETURN(data, CropToDims(data, field.original_dims));
  }
  lap(&t.recompose_ms);
  *times += t;
  return data;
}

double TimedEstimator::Estimate(const RefactoredField& field,
                                const std::vector<int>& prefix) const {
  const auto start = Clock::now();
  const double v = inner_->Estimate(field, prefix);
  ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  ++calls_;
  return v;
}

Result<double> TimedEstimator::TryEstimate(
    const RefactoredField& field, const std::vector<int>& prefix) const {
  const auto start = Clock::now();
  Result<double> v = inner_->TryEstimate(field, prefix);
  ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  ++calls_;
  return v;
}

Result<std::string> TimedBackend::Get(int level, int plane) {
  const auto start = Clock::now();
  Result<std::string> r = inner_->Get(level, plane);
  ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  ++gets_;
  if (r.ok()) {
    bytes_ += r.value().size();
  }
  return r;
}

namespace {

bool SummariesEqual(const mgardp::FieldSummary& a,
                    const mgardp::FieldSummary& b) {
  return a.count == b.count && a.min == b.min && a.max == b.max &&
         a.mean == b.mean && a.stddev == b.stddev &&
         a.skewness == b.skewness && a.kurtosis == b.kurtosis &&
         a.abs_mean == b.abs_mean && a.abs_max == b.abs_max &&
         a.l2_norm == b.l2_norm;
}

}  // namespace

std::string DiffFields(const RefactoredField& a, const RefactoredField& b) {
  if (!(a.hierarchy.dims() == b.hierarchy.dims()) ||
      a.num_levels() != b.num_levels() ||
      !(a.original_dims == b.original_dims)) {
    return "hierarchy differs";
  }
  if (a.num_planes != b.num_planes || a.use_correction != b.use_correction) {
    return "encoding parameters differ";
  }
  if (a.level_exponents != b.level_exponents) {
    return "level exponents differ";
  }
  for (int l = 0; l < a.num_levels(); ++l) {
    if (a.level_errors[l].max_abs != b.level_errors[l].max_abs ||
        a.level_errors[l].mse != b.level_errors[l].mse) {
      return "error matrix differs at level " + std::to_string(l);
    }
  }
  if (a.plane_sizes != b.plane_sizes) {
    return "plane sizes differ";
  }
  if (a.level_sketches != b.level_sketches) {
    return "level sketches differ";
  }
  if (!SummariesEqual(a.data_summary, b.data_summary)) {
    return "data summary differs";
  }
  if (a.segments.Keys() != b.segments.Keys()) {
    return "segment keys differ";
  }
  for (const auto& [level, plane] : a.segments.Keys()) {
    auto pa = a.segments.Get(level, plane);
    auto pb = b.segments.Get(level, plane);
    if (!pa.ok() || !pb.ok() || pa.value() != pb.value()) {
      return "segment (" + std::to_string(level) + ", " +
             std::to_string(plane) + ") differs";
    }
  }
  return "";
}

bool ArraysIdentical(const Array3Dd& a, const Array3Dd& b) {
  return a.dims() == b.dims() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<int> FullPrefix(const RefactoredField& field) {
  return std::vector<int>(field.num_levels(), field.num_planes);
}

}  // namespace perfbench
