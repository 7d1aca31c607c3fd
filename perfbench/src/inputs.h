// Seeded workload inputs. Everything the library is handed -- simulation
// frames, tolerances, Zipf draws -- derives from the --seed argument, so a
// seed reproduces a run's inputs exactly.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "util/array3d.h"
#include "util/rng.h"

namespace perfbench {

// Raw size of a field in MB (1e6 bytes), the unit of every MB/s figure.
double RawMb(const mgardp::Array3Dd& field);

// `count` consecutive Gray-Scott D_u dumps on an n^3 grid. The seed moves
// the solver's initial perturbation and the first dumped timestep.
std::vector<mgardp::Array3Dd> GrayScottDu(std::uint64_t seed, int n,
                                          int count);

// `count` WarpX E_x frames on an n^3 grid at consecutive timesteps; the
// seed moves the perturbation modes.
std::vector<mgardp::Array3Dd> WarpXEx(std::uint64_t seed, int n, int count);

// A relative tolerance jittered by up to +-5%, so seeds do not replay the
// exact bounds.
double JitteredTolerance(mgardp::Rng* rng, double rel);

// Zipf law over [0, n): P(k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  // The index whose CDF interval holds u in [0, 1).
  int Index(double u) const;

 private:
  std::vector<double> cdf_;
};

// Low-discrepancy uniforms: u_{k+1} = frac(u_k + golden ratio) from a
// seeded start. Feeding them to Zipf::Index gives every run nearly the
// exact Zipf mix, so a seed moves the order of draws but not their
// proportions.
class GoldenSequence {
 public:
  explicit GoldenSequence(double start) : u_(start) {}
  double Next();

 private:
  double u_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
