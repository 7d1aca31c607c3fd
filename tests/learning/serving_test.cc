// The registry-backed serving adapters: one LearnedConstantsEstimator
// shared across threads scores bit-identically to sequential scoring, a
// lease pins the version it was handed across hot swaps, rollbacks and the
// registry's own destruction, concurrent leases racing a publisher never
// mix two versions' weights, and PlanWithModelVersion plans exactly as the
// direct planner does for either model kind.

#include "learning/serving.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "learning/model_registry.h"
#include "learning/training_set.h"
#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/features.h"
#include "models/training_data.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/dataset.h"
#include "util/rng.h"

namespace mgardp {
namespace learning {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WarpXDatasetOptions opts;
    opts.dims = Dims3{17, 17, 17};
    opts.num_timesteps = 3;
    series_ = new FieldSeries(GenerateWarpX(opts, WarpXField::kJx));
    CollectOptions copts;
    copts.rel_bounds = SubsampledRelativeErrorBounds(1);
    auto records = CollectRecords(*series_, {0, 1, 2}, copts);
    records.status().Abort("collect");

    EMgardConfig config_a;
    config_a.train.epochs = 2;
    auto model_a = EMgardModel::TrainModel(records.value(), config_a);
    model_a.status().Abort("train emgard a");
    blob_a_ = new std::string(model_a.value().Serialize());

    // A second, differently-trained model so the two versions' weights —
    // and therefore their estimates — genuinely differ.
    EMgardConfig config_b;
    config_b.train.epochs = 3;
    config_b.train.seed = 71;
    auto model_b = EMgardModel::TrainModel(records.value(), config_b);
    model_b.status().Abort("train emgard b");
    blob_b_ = new std::string(model_b.value().Serialize());

    DMgardConfig dconfig;
    dconfig.hidden_width = 8;
    dconfig.train.epochs = 2;
    auto dmodel = DMgardModel::TrainModel(records.value(), dconfig);
    dmodel.status().Abort("train dmgard");
    dmgard_blob_ = new std::string(dmodel.value().Serialize());

    auto artifact = Refactorer().Refactor(series_->frames[0]);
    artifact.status().Abort("refactor");
    field_ = new RefactoredField(std::move(artifact).value());
  }

  static void TearDownTestSuite() {
    delete series_;
    delete blob_a_;
    delete blob_b_;
    delete dmgard_blob_;
    delete field_;
  }

  // A deterministic per-level bit-plane prefix for the shared field.
  static std::vector<int> RandomPrefix(Rng* rng) {
    std::vector<int> prefix(field_->num_levels());
    for (int& b : prefix) {
      b = static_cast<int>(
          rng->NextUint64() %
          static_cast<std::uint64_t>(field_->num_planes + 1));
    }
    return prefix;
  }

  // The estimate version `v` of `registry`'s "emgard" slot gives `prefix`.
  static double DirectEstimate(const ModelRegistry& registry, int v,
                               const std::vector<int>& prefix) {
    auto version = registry.Get("emgard", v);
    EXPECT_NE(version, nullptr);
    return LearnedConstantsEstimator(version->emgard.get())
        .Estimate(*field_, prefix);
  }

  static FieldSeries* series_;
  static std::string* blob_a_;
  static std::string* blob_b_;
  static std::string* dmgard_blob_;
  static RefactoredField* field_;
};

FieldSeries* ServingTest::series_ = nullptr;
std::string* ServingTest::blob_a_ = nullptr;
std::string* ServingTest::blob_b_ = nullptr;
std::string* ServingTest::dmgard_blob_ = nullptr;
RefactoredField* ServingTest::field_ = nullptr;

TEST_F(ServingTest, ConcurrentEstimatesBitIdenticalToSequential) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 1).ok());
  const EstimatorLease lease =
      MakeRegistryEstimatorProvider(&registry, "emgard")();
  ASSERT_NE(lease.estimator, nullptr);

  constexpr int kThreads = 8;
  constexpr int kRequests = 30;
  std::vector<std::vector<std::vector<int>>> prefixes(kThreads);
  std::vector<std::vector<double>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(1000 + 17 * t);
    for (int r = 0; r < kRequests; ++r) {
      prefixes[t].push_back(RandomPrefix(&rng));
      expected[t].push_back(
          lease.estimator->Estimate(*field_, prefixes[t].back()));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequests; ++r) {
        // Exact comparison on purpose: sharing the estimator across
        // threads must change scheduling, never arithmetic.
        if (lease.estimator->Estimate(*field_, prefixes[t][r]) !=
            expected[t][r]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServingTest, LeaseScoresLikeBorrowingEstimatorOnSameWeights) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 1).ok());
  const EstimatorLease lease =
      MakeRegistryEstimatorProvider(&registry, "emgard")();
  ASSERT_NE(lease.estimator, nullptr);
  Rng rng(3);
  for (int k = 0; k < 10; ++k) {
    const std::vector<int> prefix = RandomPrefix(&rng);
    EXPECT_EQ(lease.estimator->Estimate(*field_, prefix),
              DirectEstimate(registry, 1, prefix));
  }
}

TEST_F(ServingTest, LeasePinsVersionAcrossHotSwap) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 1).ok());
  const EstimatorProvider provider =
      MakeRegistryEstimatorProvider(&registry, "emgard");
  const EstimatorLease lease1 = provider();
  ASSERT_NE(lease1.estimator, nullptr);
  EXPECT_EQ(lease1.audit_model_id, "emgard@v1");

  ASSERT_TRUE(registry.Publish("emgard", *blob_b_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 2).ok());
  const EstimatorLease lease2 = provider();
  ASSERT_NE(lease2.estimator, nullptr);
  EXPECT_EQ(lease2.audit_model_id, "emgard@v2");

  Rng rng(11);
  const std::vector<int> prefix = RandomPrefix(&rng);
  const double v1 = DirectEstimate(registry, 1, prefix);
  const double v2 = DirectEstimate(registry, 2, prefix);
  EXPECT_NE(v1, v2);  // differently-trained weights
  EXPECT_EQ(lease1.estimator->Estimate(*field_, prefix), v1);
  EXPECT_EQ(lease2.estimator->Estimate(*field_, prefix), v2);
}

TEST_F(ServingTest, RollbackServesPreviousVersionToNewLeases) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Publish("emgard", *blob_b_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 1).ok());
  ASSERT_TRUE(registry.Promote("emgard", 2).ok());
  const EstimatorProvider provider =
      MakeRegistryEstimatorProvider(&registry, "emgard");
  const EstimatorLease before = provider();
  ASSERT_NE(before.estimator, nullptr);
  EXPECT_EQ(before.audit_model_id, "emgard@v2");

  ASSERT_TRUE(registry.Rollback("emgard").ok());
  const EstimatorLease after = provider();
  ASSERT_NE(after.estimator, nullptr);
  EXPECT_EQ(after.audit_model_id, "emgard@v1");

  Rng rng(19);
  const std::vector<int> prefix = RandomPrefix(&rng);
  EXPECT_EQ(after.estimator->Estimate(*field_, prefix),
            DirectEstimate(registry, 1, prefix));
  // The lease taken before the rollback stays on v2.
  EXPECT_EQ(before.estimator->Estimate(*field_, prefix),
            DirectEstimate(registry, 2, prefix));
}

TEST_F(ServingTest, LeaseKeepsModelAliveAfterRegistryIsDestroyed) {
  Rng rng(23);
  const std::vector<int> prefix = RandomPrefix(&rng);
  EstimatorLease lease;
  double expected = 0.0;
  {
    ModelRegistry registry;
    ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
    ASSERT_TRUE(registry.Promote("emgard", 1).ok());
    lease = MakeRegistryEstimatorProvider(&registry, "emgard")();
    ASSERT_NE(lease.estimator, nullptr);
    expected = DirectEstimate(registry, 1, prefix);
  }
  ASSERT_TRUE(std::isfinite(expected));
  EXPECT_EQ(lease.estimator->Estimate(*field_, prefix), expected);
}

TEST_F(ServingTest, ConcurrentLeasesDuringHotSwapsNeverMixVersions) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Publish("emgard", *blob_b_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 1).ok());
  const EstimatorProvider provider =
      MakeRegistryEstimatorProvider(&registry, "emgard");

  Rng rng(29);
  const std::vector<int> prefix = RandomPrefix(&rng);
  const double v1 = DirectEstimate(registry, 1, prefix);
  const double v2 = DirectEstimate(registry, 2, prefix);
  ASSERT_NE(v1, v2);

  constexpr int kReaders = 4;
  constexpr int kLeases = 40;
  std::atomic<int> mixed{0};
  std::atomic<int> empty{0};
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 0; !done.load(); ++i) {
      // Pin alternates the serving version under the readers' feet.
      if (!registry.Pin("emgard", 1 + i % 2).ok()) {
        mixed.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int k = 0; k < kLeases; ++k) {
        const EstimatorLease lease = provider();
        if (lease.estimator == nullptr) {
          empty.fetch_add(1);
          continue;
        }
        // A lease scores entirely on the version it names.
        const double want = lease.audit_model_id == "emgard@v1" ? v1 : v2;
        if (lease.estimator->Estimate(*field_, prefix) != want) {
          mixed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  done.store(true);
  publisher.join();
  EXPECT_EQ(mixed.load(), 0);
  EXPECT_EQ(empty.load(), 0);
}

TEST_F(ServingTest, ProviderHandsOutEmptyLeaseForDMgardVersion) {
  // A D-MGARD model predicts prefixes, not errors: it cannot stand in for
  // a session's estimator, so its slot leaves the fallback in charge.
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  ASSERT_TRUE(registry.Promote("dmgard", 1).ok());
  const EstimatorLease lease =
      MakeRegistryEstimatorProvider(&registry, "dmgard")();
  EXPECT_EQ(lease.estimator, nullptr);
  EXPECT_TRUE(lease.audit_model_id.empty());
}

TEST_F(ServingTest, VersionAuditIdNamesKindAndVersion) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Publish("emgard", *blob_b_).ok());
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  const auto emgard_v2 = registry.Get("emgard", 2);
  const auto dmgard_v1 = registry.Get("dmgard", 1);
  ASSERT_NE(emgard_v2, nullptr);
  ASSERT_NE(dmgard_v1, nullptr);
  EXPECT_EQ(VersionAuditId(*emgard_v2), "emgard@v2");
  EXPECT_EQ(VersionAuditId(*dmgard_v1), "dmgard@v1");
  EXPECT_EQ(BaseModelId(VersionAuditId(*emgard_v2)), "emgard");
  EXPECT_EQ(BaseModelId(VersionAuditId(*dmgard_v1)), "dmgard");
}

TEST_F(ServingTest, PlanWithEMgardVersionMatchesDirectPlanner) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  const auto version = registry.Get("emgard", 1);
  ASSERT_NE(version, nullptr);
  const double bound = 1e-3 * field_->data_summary.range();

  auto served = PlanWithModelVersion(*field_, bound, *version);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  LearnedConstantsEstimator estimator(version->emgard.get());
  auto direct = Reconstructor(&estimator).Plan(*field_, bound);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served.value().prefix, direct.value().prefix);
  EXPECT_EQ(served.value().total_bytes, direct.value().total_bytes);
  EXPECT_EQ(served.value().estimated_error, direct.value().estimated_error);
}

TEST_F(ServingTest, PlanWithDMgardVersionUsesPredictedPrefix) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("dmgard", *dmgard_blob_).ok());
  const auto version = registry.Get("dmgard", 1);
  ASSERT_NE(version, nullptr);
  const double bound = 1e-3 * field_->data_summary.range();

  auto served = PlanWithModelVersion(*field_, bound, *version);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto prefix = version->dmgard->Predict(
      ExtractDataFeatures(field_->data_summary), field_->level_sketches,
      bound);
  ASSERT_TRUE(prefix.ok());
  TheoryEstimator theory;
  auto direct = Reconstructor(&theory).PlanFromPrefix(*field_, prefix.value());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(served.value().prefix, prefix.value());
  EXPECT_EQ(served.value().total_bytes, direct.value().total_bytes);
  // The model's implicit claim, not the theory estimate at the prefix.
  EXPECT_EQ(served.value().estimated_error, bound);
}

TEST_F(ServingTest, PlanWithVersionMissingItsModelIsInvalid) {
  const double bound = 1e-3 * field_->data_summary.range();
  ModelVersion emgard;
  emgard.kind = ModelKind::kEMgard;
  auto e = PlanWithModelVersion(*field_, bound, emgard);
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  ModelVersion dmgard;
  dmgard.kind = ModelKind::kDMgard;
  auto d = PlanWithModelVersion(*field_, bound, dmgard);
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingTest, SketchShapeMismatchIsReportedNotEstimated) {
  // A field refactored with a different sketch width cannot be scored by
  // a model trained on 32-bin sketches: TryEstimate says why, and Estimate
  // reports the prefix as infinitely inaccurate rather than guessing.
  RefactorOptions options;
  options.sketch_bins = 16;
  auto narrow = Refactorer(options).Refactor(series_->frames[0]);
  ASSERT_TRUE(narrow.ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("emgard", *blob_a_).ok());
  ASSERT_TRUE(registry.Promote("emgard", 1).ok());
  const EstimatorLease lease =
      MakeRegistryEstimatorProvider(&registry, "emgard")();
  ASSERT_NE(lease.estimator, nullptr);
  const std::vector<int> prefix(narrow.value().num_levels(), 8);
  auto tried = lease.estimator->TryEstimate(narrow.value(), prefix);
  EXPECT_EQ(tried.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(std::isinf(lease.estimator->Estimate(narrow.value(), prefix)));
}

}  // namespace
}  // namespace learning
}  // namespace mgardp
