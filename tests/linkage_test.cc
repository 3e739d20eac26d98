#include "cluster/linkage.h"

#include <gtest/gtest.h>

namespace paygo {
namespace {

std::vector<DynamicBitset> MakeFeatures() {
  // Three 8-dimensional vectors:
  //   f0 = {0,1,2,3}, f1 = {2,3,4,5}, f2 = {6,7}.
  std::vector<DynamicBitset> f(3, DynamicBitset(8));
  for (std::size_t i : {0u, 1u, 2u, 3u}) f[0].Set(i);
  for (std::size_t i : {2u, 3u, 4u, 5u}) f[1].Set(i);
  for (std::size_t i : {6u, 7u}) f[2].Set(i);
  return f;
}

TEST(SimilarityMatrixTest, JaccardValues) {
  const SimilarityMatrix sims(MakeFeatures());
  EXPECT_EQ(sims.size(), 3u);
  // |{2,3}| / |{0..5}| = 2/6.
  EXPECT_NEAR(sims.At(0, 1), 2.0 / 6.0, 1e-6);
  EXPECT_NEAR(sims.At(0, 2), 0.0, 1e-6);
  EXPECT_NEAR(sims.At(1, 2), 0.0, 1e-6);
}

TEST(SimilarityMatrixTest, SymmetricWithUnitDiagonal) {
  const SimilarityMatrix sims(MakeFeatures());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(sims.At(i, i), 1.0, 1e-6);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(sims.At(i, j), sims.At(j, i), 1e-9);
    }
  }
}

TEST(SimilarityMatrixTest, EmptyVectorSelfSimilarityIsZero) {
  std::vector<DynamicBitset> f(2, DynamicBitset(4));
  f[0].Set(0);
  const SimilarityMatrix sims(f);
  EXPECT_NEAR(sims.At(1, 1), 0.0, 1e-9);
  EXPECT_NEAR(sims.At(0, 0), 1.0, 1e-9);
}

TEST(SimilarityMatrixTest, ExtendMatchesFullBuild) {
  std::vector<DynamicBitset> f = MakeFeatures();
  DynamicBitset extra(8);
  for (std::size_t i : {1u, 3u, 5u, 7u}) extra.Set(i);
  const SimilarityMatrix base(f);
  std::vector<double> row;
  for (const DynamicBitset& g : f) {
    row.push_back(DynamicBitset::Jaccard(extra, g));
  }
  f.push_back(extra);
  const SimilarityMatrix full(f);
  const SimilarityMatrix extended(base, f, row);
  ASSERT_EQ(extended.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(extended.At(i, j), full.At(i, j)) << i << "," << j;
    }
  }
}

TEST(LinkageKindTest, NamesMatchThesisFigures) {
  EXPECT_EQ(LinkageKindName(LinkageKind::kAverage), "Avg. Jaccard");
  EXPECT_EQ(LinkageKindName(LinkageKind::kMin), "Min. Jaccard");
  EXPECT_EQ(LinkageKindName(LinkageKind::kMax), "Max. Jaccard");
  EXPECT_EQ(LinkageKindName(LinkageKind::kTotal), "Total Jaccard");
}

TEST(LinkageKindTest, AllKindsListed) {
  EXPECT_EQ(AllLinkageKinds().size(), 4u);
}

}  // namespace
}  // namespace paygo
