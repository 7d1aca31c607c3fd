// Tests of the benchmark's own machinery: the percentile reporting rule and
// the bit-identity of the layer-by-layer replays at a small grid.

#include <gtest/gtest.h>

#include <cmath>

#include "harness.h"
#include "inputs.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "replay.h"
#include "storage/storage_backend.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0);
  EXPECT_EQ(TailPercentile(19), 0);   // the median has only 9 beyond it
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(39), 50);  // p75 has only 9 beyond it
  EXPECT_EQ(TailPercentile(40), 75);
  EXPECT_EQ(TailPercentile(99), 75);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(199), 90);
  EXPECT_EQ(TailPercentile(200), 95);
  EXPECT_EQ(TailPercentile(1000), 99);
}

TEST(PercentileTest, InterpolatesLikeTheLibraryQuantile) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(ZipfTest, DrawsStayInRangeAndFavourLowRanks) {
  const Zipf zipf(8, 1.1);
  mgardp::Rng rng(3);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 4000; ++i) {
    const int k = zipf.Index(rng.NextDouble());
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 8);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[7]);
}

TEST(ZipfTest, GoldenSequenceMatchesTheLawClosely) {
  const Zipf zipf(4, 1.1);
  GoldenSequence draws(0.3);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 100; ++i) {
    ++counts[zipf.Index(draws.Next())];
  }
  double total = 0;
  for (int k = 0; k < 4; ++k) {
    total += 1.0 / std::pow(k + 1.0, 1.1);
  }
  for (int k = 0; k < 4; ++k) {
    const double expected = 100.0 / std::pow(k + 1.0, 1.1) / total;
    EXPECT_NEAR(counts[k], expected, 2.0) << "rank " << k;
  }
}

TEST(InputsTest, SameSeedSameInputs) {
  const auto a = GrayScottDu(5, 17, 2);
  const auto b = GrayScottDu(5, 17, 2);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_TRUE(ArraysIdentical(a[1], b[1]));
  EXPECT_TRUE(ArraysIdentical(WarpXEx(5, 17, 1)[0], WarpXEx(5, 17, 1)[0]));
}

class ReplayTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { mgardp::SetGlobalThreadCount(4); }
};

TEST_P(ReplayTest, RefactorReplayIsBitIdentical) {
  mgardp::SetGlobalThreadCount(GetParam());
  for (const mgardp::Array3Dd& data :
       {GrayScottDu(1, 33, 1)[0], WarpXEx(1, 33, 1)[0]}) {
    const mgardp::Refactorer refactorer;
    auto program = refactorer.Refactor(data);
    ASSERT_TRUE(program.ok());
    LayerTimes times;
    auto replay = ReplayRefactor(data, refactorer.options(), &times);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(DiffFields(program.value(), replay.value()), "");
    EXPECT_EQ(times.bytes_out, program.value().segments.TotalBytes());
    EXPECT_EQ(times.planes_rice + times.planes_pipeline + times.planes_raw,
              program.value().segments.size());
  }
}

TEST_P(ReplayTest, ReconstructReplayIsBitIdentical) {
  mgardp::SetGlobalThreadCount(GetParam());
  const mgardp::Array3Dd data = WarpXEx(2, 33, 1)[0];
  auto field = mgardp::Refactorer().Refactor(data);
  ASSERT_TRUE(field.ok());
  const mgardp::TheoryEstimator theory;
  for (double rel : {1e-2, 1e-4}) {
    auto plan = mgardp::Reconstructor(&theory).Plan(
        field.value(), rel * field.value().data_summary.range());
    ASSERT_TRUE(plan.ok());
    for (const std::vector<int>& prefix :
         {plan.value().prefix, FullPrefix(field.value())}) {
      auto expected = mgardp::ReconstructFromPrefix(field.value(), prefix);
      ASSERT_TRUE(expected.ok());
      LayerTimes times;
      auto replay = ReplayReconstruct(field.value(), field.value().segments,
                                      prefix, &times);
      ASSERT_TRUE(replay.ok());
      EXPECT_TRUE(ArraysIdentical(expected.value(), replay.value()));
      int planes = 0;
      for (int p : prefix) {
        planes += p;
      }
      EXPECT_EQ(times.gets, static_cast<std::uint64_t>(planes));
      EXPECT_EQ(times.planes_decoded, static_cast<std::uint64_t>(planes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ReplayTest, ::testing::Values(1, 4));

TEST(DecoratorTest, TimedEstimatorAndBackendAreTransparent) {
  auto field = mgardp::Refactorer().Refactor(GrayScottDu(3, 17, 1)[0]);
  ASSERT_TRUE(field.ok());
  const mgardp::TheoryEstimator theory;
  const TimedEstimator timed(&theory);
  const double bound = 1e-3 * field.value().data_summary.range();
  auto a = mgardp::Reconstructor(&theory).Plan(field.value(), bound);
  auto b = mgardp::Reconstructor(&timed).Plan(field.value(), bound);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().prefix, b.value().prefix);
  EXPECT_GT(timed.calls(), 0u);

  mgardp::MemoryBackend memory(&field.value().segments);
  TimedBackend backend(&memory);
  auto payload = backend.Get(0, 0);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), field.value().segments.Get(0, 0).value());
  EXPECT_EQ(backend.gets(), 1u);
  EXPECT_EQ(backend.bytes(), payload.value().size());
}

TEST(DiffFieldsTest, ReportsAChangedSegment) {
  auto field = mgardp::Refactorer().Refactor(GrayScottDu(4, 17, 1)[0]);
  ASSERT_TRUE(field.ok());
  mgardp::RefactoredField copy = field.value();
  EXPECT_EQ(DiffFields(field.value(), copy), "");
  std::string payload = copy.segments.Get(0, 0).value();
  payload.push_back('x');
  copy.segments.Put(0, 0, payload);
  EXPECT_NE(DiffFields(field.value(), copy), "");
}

}  // namespace
}  // namespace perfbench
