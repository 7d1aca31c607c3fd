#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "sim/dataset.h"

namespace perfbench {

namespace {

// The pulse sits inside the domain from here on; later timesteps move it,
// which changes how compressible the frame is, so the seed does not.
constexpr int kFirstTimestep = 5;

}  // namespace

double RawMb(const mgardp::Array3Dd& field) {
  return static_cast<double>(field.size() * sizeof(double)) / 1e6;
}

std::vector<mgardp::Array3Dd> GrayScottDu(std::uint64_t seed, int n,
                                          int count) {
  mgardp::GrayScottDatasetOptions opts;
  opts.dims = mgardp::Dims3{static_cast<std::size_t>(n),
                            static_cast<std::size_t>(n),
                            static_cast<std::size_t>(n)};
  opts.num_timesteps = count;
  opts.steps_per_dump = 10;
  // Patterns need ~100 steps to form; the seed shifts the first dump by a
  // few steps, little enough that the work per frame stays comparable.
  opts.warmup_steps = 100 + static_cast<int>(seed % 4);
  opts.params.seed = seed;
  std::vector<mgardp::FieldSeries> series = mgardp::GenerateGrayScott(opts);
  return std::move(series[0].frames);  // D_u
}

std::vector<mgardp::Array3Dd> WarpXEx(std::uint64_t seed, int n, int count) {
  mgardp::WarpXParams params;
  params.seed = seed;
  mgardp::WarpXSimulator sim(
      mgardp::Dims3{static_cast<std::size_t>(n), static_cast<std::size_t>(n),
                    static_cast<std::size_t>(n)},
      params);
  std::vector<mgardp::Array3Dd> frames;
  for (int t = 0; t < count; ++t) {
    frames.push_back(sim.Field(mgardp::WarpXField::kEx, kFirstTimestep + t));
  }
  return frames;
}

double JitteredTolerance(mgardp::Rng* rng, double rel) {
  return rel * rng->Uniform(0.95, 1.05);
}

Zipf::Zipf(int n, double s) {
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

int Zipf::Index(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

double GoldenSequence::Next() {
  u_ += 0.6180339887498949;
  u_ -= std::floor(u_);
  return u_;
}

}  // namespace perfbench
