#include "serve/dataset_registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/datagen.h"

namespace vadasa::serve {
namespace {

/// Writes a small CSV to a unique temp path; removed at destruction.
class TempCsv {
 public:
  explicit TempCsv(const std::string& contents) {
    path_ = ::testing::TempDir() + "vadasa_registry_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv";
    std::ofstream out(path_);
    out << contents;
  }
  ~TempCsv() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kCsv =
    "name,zip,age\nalice,10001,34\nbob,10001,34\ncarol,10002,41\n";

TEST(DatasetRegistryTest, LoadsOnceAndShares) {
  TempCsv csv(kCsv);
  DatasetRegistry registry;
  auto first = registry.Load(csv.path());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = registry.Load(csv.path());
  ASSERT_TRUE(second.ok());
  // Same shared snapshot, not a re-parse.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->table->num_rows(), 3u);
  EXPECT_EQ(registry.Catalog(), std::vector<std::string>{csv.path()});
}

TEST(DatasetRegistryTest, MissingFileFails) {
  DatasetRegistry registry;
  auto loaded = registry.Load("/does/not/exist.csv");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(registry.Catalog().empty());
}

TEST(DatasetRegistryTest, PathsThatAreNotRegularFilesAreRefusedUnopened) {
  const std::string directory = ::testing::TempDir() + "vadasa_registry_dir";
  std::filesystem::create_directories(directory);
  DatasetRegistry registry;
  registry.set_quarantine_after(2);
  for (const std::string& path : {std::string("/dev/null"), directory}) {
    const auto refused = registry.Load(path);
    ASSERT_FALSE(refused.ok()) << path;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << path;
    EXPECT_NE(refused.status().message().find("not a regular file"), std::string::npos)
        << refused.status().ToString();
  }
  EXPECT_TRUE(registry.Catalog().empty());
  // The refusal counts toward the quarantine streak like any load failure.
  EXPECT_FALSE(registry.IsQuarantined(directory));
  EXPECT_FALSE(registry.Load(directory).ok());
  EXPECT_TRUE(registry.IsQuarantined(directory));
  std::filesystem::remove(directory);
}

TEST(DatasetRegistryTest, RegisterRejectsCollisions) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  const Status dup = registry.Register("fig5", core::Figure5Microdata());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(DatasetRegistryTest, OpenSessionSharesTheSnapshot) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  auto a = registry.OpenSession("fig5", {});
  auto b = registry.OpenSession("fig5", {});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->shared_table().get(), b->shared_table().get());
  EXPECT_TRUE(a->Risk().ok());
}

TEST(DatasetRegistryTest, OpenSessionValidatesOptions) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  api::SessionOptions bad;
  bad.risk_measure = "nonsense";
  EXPECT_FALSE(registry.OpenSession("fig5", bad).ok());
}

TEST(DatasetRegistryTest, ApplyDeltaPublishesANewGenerationAndKeepsOldSnapshots) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  auto before = registry.Load("fig5");
  ASSERT_TRUE(before.ok());
  // A session over the pre-delta snapshot stands in for an in-flight job.
  auto pre = api::Session::FromShared((*before)->table, (*before)->dictionary, {});
  ASSERT_TRUE(pre.ok());
  auto pre_risk = pre->Risk();
  ASSERT_TRUE(pre_risk.ok());

  core::DeltaBatchBuilder builder((*before)->table->num_columns());
  builder.Delete(6);
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());
  auto after = registry.ApplyDelta("fig5", *batch);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->version, 2u);
  EXPECT_EQ((*after)->table->num_rows(), 6u);
  EXPECT_GT((*after)->generation, (*before)->generation);

  // The snapshot this test still holds is untouched and keeps serving the
  // exact pre-delta results.
  EXPECT_EQ((*before)->version, 1u);
  EXPECT_EQ((*before)->table->num_rows(), 7u);
  auto replay = api::Session::FromShared((*before)->table, (*before)->dictionary, {});
  ASSERT_TRUE(replay.ok());
  auto replay_risk = replay->Risk();
  ASSERT_TRUE(replay_risk.ok());
  EXPECT_EQ(replay_risk->tuple_risks, pre_risk->tuple_risks);

  // New loads hand out the post-delta generation.
  auto now = registry.Load("fig5");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->get(), after->get());
  EXPECT_EQ((*now)->generation, (*after)->generation);
}

TEST(DatasetRegistryTest, EveryPublishedSnapshotHasItsOwnGeneration) {
  TempCsv csv(kCsv);
  DatasetRegistry registry;
  DatasetRegistry other;
  std::vector<uint64_t> generations;
  const auto current = [&](DatasetRegistry& r, const std::string& name) {
    auto loaded = r.Load(name);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? (*loaded)->generation : 0;
  };
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  generations.push_back(current(registry, "fig5"));
  // The same name over the same table in another registry is another snapshot.
  ASSERT_TRUE(other.Register("fig5", core::Figure5Microdata()).ok());
  generations.push_back(current(other, "fig5"));
  ASSERT_TRUE(registry.Replace("fig5", core::Figure5Microdata()).ok());
  generations.push_back(current(registry, "fig5"));
  core::DeltaBatchBuilder builder(core::Figure5Microdata().num_columns());
  builder.Delete(0);
  auto applied = registry.ApplyDelta("fig5", *builder.Build());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  generations.push_back((*applied)->generation);
  // A lookup hands out the published snapshot's generation, not a new one.
  EXPECT_EQ(current(registry, "fig5"), generations.back());
  EXPECT_EQ((*applied)->version, 2u) << "a Replace starts the version over";

  // Racing first loads of one path publish one snapshot; every caller gets
  // it, and a reload after Clear is a new snapshot.
  std::vector<std::shared_ptr<const LoadedDataset>> raced(4);
  std::vector<std::thread> loaders;
  for (auto& slot : raced) {
    loaders.emplace_back([&registry, &csv, &slot] {
      auto loaded = registry.Load(csv.path());
      if (loaded.ok()) slot = *loaded;
    });
  }
  for (std::thread& loader : loaders) loader.join();
  for (const auto& loaded : raced) {
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded.get(), raced[0].get());
  }
  generations.push_back(raced[0]->generation);
  registry.Clear();
  generations.push_back(current(registry, csv.path()));

  for (size_t i = 1; i < generations.size(); ++i) {
    EXPECT_GT(generations[i], generations[i - 1]) << "publish " << i;
  }
}

TEST(DatasetRegistryTest, ApplyDeltaValidationLeavesTheSnapshotUntouched) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("fig5", core::Figure5Microdata()).ok());
  auto before = registry.Load("fig5");
  ASSERT_TRUE(before.ok());
  core::DeltaBatchBuilder builder((*before)->table->num_columns());
  builder.Delete(99);  // Out of range for the 7-row table.
  auto batch = builder.Build();
  ASSERT_TRUE(batch.ok());
  const auto applied = registry.ApplyDelta("fig5", *batch);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument);
  auto still = registry.Load("fig5");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->get(), before->get()) << "rejected deltas publish nothing";
  EXPECT_EQ((*still)->version, 1u);

  core::DeltaBatchBuilder empty_builder(5);
  const auto missing =
      registry.ApplyDelta("not-registered", *empty_builder.Build());
  EXPECT_FALSE(missing.ok());
}

TEST(DatasetRegistryTest, ClearKeepsLiveSnapshotsValid) {
  TempCsv csv(kCsv);
  DatasetRegistry registry;
  auto loaded = registry.Load(csv.path());
  ASSERT_TRUE(loaded.ok());
  registry.Clear();
  EXPECT_TRUE(registry.Catalog().empty());
  // The shared_ptr we hold keeps the dataset alive past the eviction.
  EXPECT_EQ((*loaded)->table->num_rows(), 3u);
}

}  // namespace
}  // namespace vadasa::serve
