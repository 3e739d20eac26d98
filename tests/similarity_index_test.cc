#include "text/similarity_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/stats.h"
#include "util/random.h"

namespace paygo {
namespace {

std::vector<std::string> Lexicon1() {
  return {"author",  "authors",   "departure", "departures", "departing",
          "title",   "professor", "name",      "make",       "model"};
}

TEST(SimilarityIndexTest, NeighborhoodsIncludeSelf) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  for (std::size_t i = 0; i < idx.terms().size(); ++i) {
    const auto& nb = idx.Neighbors(i);
    EXPECT_TRUE(std::find(nb.begin(), nb.end(), i) != nb.end());
  }
}

TEST(SimilarityIndexTest, PluralsAreNeighbors) {
  const auto terms = Lexicon1();
  SimilarityIndex idx(terms, TermSimilarity(TermSimilarityKind::kLcs), 0.8);
  const auto author_it = std::find(terms.begin(), terms.end(), "author");
  const auto authors_it = std::find(terms.begin(), terms.end(), "authors");
  const std::uint32_t a =
      static_cast<std::uint32_t>(author_it - terms.begin());
  const std::uint32_t as =
      static_cast<std::uint32_t>(authors_it - terms.begin());
  const auto& nb = idx.Neighbors(a);
  EXPECT_TRUE(std::find(nb.begin(), nb.end(), as) != nb.end());
}

TEST(SimilarityIndexTest, NeighborhoodsAreSymmetric) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  for (std::uint32_t i = 0; i < idx.terms().size(); ++i) {
    for (std::uint32_t j : idx.Neighbors(i)) {
      const auto& nb = idx.Neighbors(j);
      EXPECT_TRUE(std::find(nb.begin(), nb.end(), i) != nb.end());
    }
  }
}

TEST(SimilarityIndexTest, MatchFindsInLexiconTerm) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  const auto hits = idx.Match("departure");
  // departure matches itself and "departures".
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(idx.terms()[hits[0]], "departure");
  EXPECT_EQ(idx.terms()[hits[1]], "departures");
}

TEST(SimilarityIndexTest, MatchFindsOutOfLexiconVariant) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  // "titles" is not in the lexicon but matches "title".
  const auto hits = idx.Match("titles");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(idx.terms()[hits[0]], "title");
}

TEST(SimilarityIndexTest, MatchUnrelatedTermIsEmpty) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kLcs),
                      0.8);
  EXPECT_TRUE(idx.Match("zzzzzz").empty());
  EXPECT_TRUE(idx.Match("").empty());
}

TEST(SimilarityIndexTest, StemKindGroupsByStem) {
  std::vector<std::string> terms = {"rating", "ratings", "rated", "price"};
  SimilarityIndex idx(terms, TermSimilarity(TermSimilarityKind::kStem), 0.5);
  // rating & ratings share the stem "rate"... verify via Match.
  const auto hits = idx.Match("rating");
  EXPECT_GE(hits.size(), 2u);
}

TEST(SimilarityIndexTest, ExactKindIsIdentityOnly) {
  SimilarityIndex idx(Lexicon1(), TermSimilarity(TermSimilarityKind::kExact),
                      0.5);
  for (std::size_t i = 0; i < idx.terms().size(); ++i) {
    EXPECT_EQ(idx.Neighbors(i).size(), 1u);
  }
}

/// Property: the q-gram-filtered neighborhoods match an exhaustive O(V^2)
/// reference at high thresholds (long required grams) and low ones (short
/// grams, and the scan for rows with q(s) <= 1).
class SimilarityIndexPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SimilarityIndexPropertyTest, AgreesWithExhaustiveReference) {
  const double tau = GetParam();
  Rng rng(1234);
  const std::string alphabet = "abcdefgh";
  std::vector<std::string> terms;
  for (int i = 0; i < 60; ++i) {
    std::string t;
    const std::size_t len = 3 + rng.NextBelow(8);
    for (std::size_t k = 0; k < len; ++k) {
      t.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    terms.push_back(std::move(t));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  TermSimilarity sim(TermSimilarityKind::kLcs);
  SimilarityIndex idx(terms, sim, tau);
  for (std::uint32_t i = 0; i < terms.size(); ++i) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < terms.size(); ++j) {
      if (i == j || sim.Compute(terms[i], terms[j]) >= tau) {
        expected.push_back(j);
      }
    }
    EXPECT_EQ(idx.Neighbors(i), expected) << "term " << terms[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SimilarityIndexPropertyTest,
                         ::testing::Values(0.3, 0.5, 0.7, 0.8, 0.9));

TEST(SimilarityIndexTest, BuildStatsAggregateOncePerBuild) {
  // Build instrumentation is accumulated per scan chunk and flushed to the
  // registry exactly once per build: a parallel build must report the SAME
  // counter deltas as the serial build of the same lexicon (no tearing, no
  // per-call-site double counting).
  std::vector<std::string> terms;
  Rng rng(4321);
  for (int i = 0; i < 120; ++i) {
    std::string t;
    const std::size_t len = 4 + rng.NextBelow(8);
    for (std::size_t k = 0; k < len; ++k) {
      t.push_back(static_cast<char>('a' + rng.NextBelow(12)));
    }
    terms.push_back(std::move(t));
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  StatsRegistry& reg = StatsRegistry::Global();
  Counter* builds = reg.GetCounter("paygo.simindex.builds");
  Counter* evaluated = reg.GetCounter("paygo.simindex.pairs_evaluated");
  Counter* pruned = reg.GetCounter("paygo.simindex.pairs_pruned");

  const std::uint64_t builds0 = builds->value();
  const std::uint64_t evaluated0 = evaluated->value();
  const std::uint64_t pruned0 = pruned->value();
  SimilarityIndex serial(terms, TermSimilarity(TermSimilarityKind::kLcs), 0.8,
                         /*num_threads=*/1);
  const std::uint64_t serial_builds = builds->value() - builds0;
  const std::uint64_t serial_evaluated = evaluated->value() - evaluated0;
  const std::uint64_t serial_pruned = pruned->value() - pruned0;
  EXPECT_EQ(serial_builds, 1u);
  EXPECT_GT(serial_evaluated + serial_pruned, 0u);

  const std::uint64_t builds1 = builds->value();
  const std::uint64_t evaluated1 = evaluated->value();
  const std::uint64_t pruned1 = pruned->value();
  SimilarityIndex parallel(terms, TermSimilarity(TermSimilarityKind::kLcs),
                           0.8, /*num_threads=*/4);
  EXPECT_EQ(builds->value() - builds1, 1u);
  EXPECT_EQ(evaluated->value() - evaluated1, serial_evaluated);
  EXPECT_EQ(pruned->value() - pruned1, serial_pruned);

  for (std::size_t i = 0; i < terms.size(); ++i) {
    ASSERT_EQ(serial.Neighbors(i), parallel.Neighbors(i)) << "term " << i;
  }
}

}  // namespace
}  // namespace paygo
