#include "cluster/incremental.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/integration_system.h"
#include "util/random.h"

namespace paygo {
namespace {

/// A built two-domain system to add schemas into.
struct Fixture {
  std::unique_ptr<IntegrationSystem> sys;
  std::unique_ptr<IncrementalClusterer> inc;

  Fixture() {
    SchemaCorpus corpus;
    corpus.Add(Schema("t1", {"departure airport", "destination airport",
                             "airline"}),
               {"travel"});
    corpus.Add(Schema("t2", {"departure airport", "airline", "passengers"}),
               {"travel"});
    corpus.Add(Schema("b1", {"title", "authors", "journal"}), {"bib"});
    corpus.Add(Schema("b2", {"title", "authors", "publisher"}), {"bib"});
    SystemOptions opts;
    opts.hac.tau_c_sim = 0.25;
    opts.assignment.tau_c_sim = 0.25;
    opts.build_mediation = false;
    opts.build_classifier = false;
    sys = std::move(*IntegrationSystem::Build(std::move(corpus), opts));
    IncrementalOptions inc_opts;
    inc_opts.tau_c_sim = 0.25;
    inc = std::make_unique<IncrementalClusterer>(
        sys->tokenizer(), sys->vectorizer(), sys->features(), sys->domains(),
        inc_opts);
  }
};

TEST(IncrementalTest, SimilarSchemaJoinsExistingDomain) {
  Fixture fx;
  const std::uint32_t travel_domain = fx.sys->domains().DomainsOf(0)[0].first;
  const auto result = fx.inc->AddSchema(
      Schema("t3", {"departure airport", "destination airport",
                    "airline", "class"}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->created_new_domain);
  ASSERT_FALSE(result->memberships.empty());
  EXPECT_EQ(result->memberships[0].first, travel_domain);
  // The model now places the newcomer in the travel domain.
  EXPECT_GT(fx.inc->model().Membership(result->schema_id, travel_domain),
            0.0);
}

TEST(IncrementalTest, UnrelatedSchemaOpensNewDomain) {
  Fixture fx;
  const std::size_t before = fx.inc->model().num_domains();
  const auto result = fx.inc->AddSchema(
      Schema("plants", {"botanical classification", "hardiness zone",
                        "bloom season"}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->created_new_domain);
  EXPECT_EQ(fx.inc->model().num_domains(), before + 1);
  EXPECT_DOUBLE_EQ(result->memberships[0].second, 1.0);
}

TEST(IncrementalTest, UnseenTermsTrackedAsDrift) {
  Fixture fx;
  const auto r1 = fx.inc->AddSchema(
      Schema("t3", {"departure airport", "airline"}));
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1->unseen_term_fraction, 0.0);
  const auto r2 = fx.inc->AddSchema(
      Schema("alien", {"zzzqqq wwwvvv", "kkkjjj"}));
  ASSERT_TRUE(r2.ok());
  EXPECT_DOUBLE_EQ(r2->unseen_term_fraction, 1.0);
  EXPECT_NEAR(fx.inc->AverageDrift(), 0.5, 1e-9);
}

TEST(IncrementalTest, RebuildRecommendedUnderHighDrift) {
  Fixture fx;
  EXPECT_FALSE(fx.inc->RebuildRecommended());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.inc
                    ->AddSchema(Schema("alien" + std::to_string(i),
                                       {"zzz" + std::to_string(i) + "qq",
                                        "vvv" + std::to_string(i) + "ww"}))
                    .ok());
  }
  EXPECT_TRUE(fx.inc->RebuildRecommended());
}

TEST(IncrementalTest, MembershipsSumToOne) {
  Fixture fx;
  IncrementalOptions loose;
  loose.tau_c_sim = 0.05;
  loose.theta = 0.9;
  IncrementalClusterer inc(fx.sys->tokenizer(), fx.sys->vectorizer(),
                           fx.sys->features(), fx.sys->domains(), loose);
  const auto result = inc.AddSchema(
      Schema("mixed", {"departure airport", "title", "authors"}));
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (const auto& [domain, prob] : result->memberships) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(IncrementalTest, SequentialIdsContinueCorpusNumbering) {
  Fixture fx;
  const auto r1 = fx.inc->AddSchema(Schema("x", {"departure airport"}));
  const auto r2 = fx.inc->AddSchema(Schema("y", {"title", "authors"}));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->schema_id, 4u);
  EXPECT_EQ(r2->schema_id, 5u);
  EXPECT_EQ(fx.inc->features().size(), 6u);
  EXPECT_EQ(fx.inc->num_added(), 2u);
}

TEST(IncrementalTest, RejectsDegenerateSchemas) {
  Fixture fx;
  EXPECT_TRUE(fx.inc->AddSchema(Schema("empty", {}))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fx.inc->AddSchema(Schema("stopwords", {"the", "of"}))
                  .status()
                  .IsInvalidArgument());
}

TEST(IncrementalTest, ModelRebuiltLazilyAndConsistently) {
  Fixture fx;
  const auto r = fx.inc->AddSchema(
      Schema("t3", {"departure airport", "airline", "destination airport"}));
  ASSERT_TRUE(r.ok());
  const DomainModel& m1 = fx.inc->model();
  const DomainModel& m2 = fx.inc->model();  // one model, appended in place
  EXPECT_EQ(&m1, &m2);
  EXPECT_EQ(m1.num_schemas(), 5u);
  // Every schema's memberships still sum to 1 (or 0 for dropped ones).
  for (std::uint32_t i = 0; i < m1.num_schemas(); ++i) {
    const double total = m1.TotalMembership(i);
    EXPECT_TRUE(total == 0.0 || std::abs(total - 1.0) < 1e-9);
  }
}

/// A random word over \p alphabet, 4-8 letters long.
std::string RandomWord(Rng& rng, const std::string& alphabet) {
  std::string word;
  const std::size_t len = 4 + rng.NextBelow(5);
  for (std::size_t k = 0; k < len; ++k) {
    word += alphabet[rng.NextBelow(alphabet.size())];
  }
  return word;
}

/// A schema of 1-4 attributes, each one or two words of \p vocab.
Schema RandomSchema(Rng& rng, const std::vector<std::string>& vocab,
                    const std::string& name) {
  std::vector<std::string> attributes;
  const std::size_t num = 1 + rng.NextBelow(4);
  for (std::size_t a = 0; a < num; ++a) {
    std::string attr = vocab[rng.NextBelow(vocab.size())];
    if (rng.NextBernoulli(0.5)) {
      attr += " " + vocab[rng.NextBelow(vocab.size())];
    }
    attributes.push_back(std::move(attr));
  }
  return Schema(name, std::move(attributes));
}

/// Bitwise equality of membership lists (NaN-safe: tau_c_sim = 0 can
/// produce 0/0 memberships, equal here when their bits are).
bool SameBits(const std::vector<std::pair<std::uint32_t, double>>& a,
              const std::vector<std::pair<std::uint32_t, double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].first != b[k].first ||
        std::bit_cast<std::uint64_t>(a[k].second) !=
            std::bit_cast<std::uint64_t>(b[k].second)) {
      return false;
    }
  }
  return true;
}

TEST(IncrementalTest, PostingsRowMatchesScan) {
  // Differential fuzz of the postings-based Jaccard row against the full
  // DynamicBitset::Jaccard scan, over random corpora on the dense build:
  // stopword-only schemas (empty feature vectors), all-unseen newcomers,
  // tau_c_sim = 0, and more than one chunk of schemas. Each add's row must
  // equal the scan bitwise, the appended model must equal
  // DomainModel::Build over the same clusters and memberships, and the
  // extended index must equal a fresh one. Failures print the trial seed.
  const std::string alphabet = "abcdefghij";
  for (int trial = 0; trial < 16; ++trial) {
    const std::uint64_t seed = 9300 + trial;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::string> vocab(4 + rng.NextBelow(40));
    for (std::string& w : vocab) w = RandomWord(rng, alphabet);

    SchemaCorpus corpus("fuzz");
    const std::size_t n = 5 + rng.NextBelow(150);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.1)) {
        corpus.Add(Schema("stop" + std::to_string(i), {"the", "of"}));
      } else {
        corpus.Add(RandomSchema(rng, vocab, "s" + std::to_string(i)));
      }
    }
    const double tau = trial % 4 == 0 ? 0.0 : 0.05 + 0.5 * rng.NextDouble();
    SystemOptions opts;
    opts.hac.tau_c_sim = tau;
    opts.assignment.tau_c_sim = tau;
    opts.build_mediation = false;
    opts.build_classifier = false;
    auto sys = IntegrationSystem::Build(std::move(corpus), opts);
    ASSERT_TRUE(sys.ok()) << sys.status();
    ASSERT_FALSE((*sys)->has_neighbor_graph());

    IncrementalOptions inc_opts;
    inc_opts.tau_c_sim = tau;
    inc_opts.theta = rng.NextDouble();
    IncrementalClusterer inc((*sys)->tokenizer(), (*sys)->vectorizer(),
                             (*sys)->features(), (*sys)->domains(), inc_opts);
    for (int add = 0; add < 8; ++add) {
      SCOPED_TRACE("add=" + std::to_string(add));
      const std::size_t before = inc.features().size();
      Schema schema = RandomSchema(rng, vocab, "new" + std::to_string(add));
      if (add == 2) {
        // Letters outside the vocabulary's alphabet match no lexicon term.
        schema = Schema("unseen", {RandomWord(rng, "uvwxyz"),
                                   RandomWord(rng, "uvwxyz")});
      } else if (add == 5) {
        // Rejected: no terms. Nothing may change.
        EXPECT_FALSE(inc.AddSchema(Schema("stop", {"the", "of"})).ok());
        EXPECT_EQ(inc.features().size(), before);
        EXPECT_EQ(inc.model().num_schemas(), before);
        EXPECT_EQ(inc.postings().num_schemas(), before);
        continue;
      }
      const auto result = inc.AddSchema(schema);
      ASSERT_TRUE(result.ok()) << result.status();
      if (add == 2) {
        EXPECT_EQ(result->unseen_term_fraction, 1.0);
      }

      const std::vector<double>& row = inc.last_similarities();
      ASSERT_EQ(row.size(), before);
      const DynamicBitset& f = inc.features()[before];
      for (std::size_t j = 0; j < before; ++j) {
        const double scan = DynamicBitset::Jaccard(f, inc.features()[j]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                  std::bit_cast<std::uint64_t>(scan))
            << "schema " << j << ": postings " << row[j] << " scan " << scan;
      }

      const DomainModel& model = inc.model();
      std::vector<std::vector<std::pair<std::uint32_t, double>>> memberships;
      for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
        memberships.push_back(model.DomainsOf(i));
      }
      const DomainModel rebuilt =
          DomainModel::Build(model.clusters(), memberships);
      ASSERT_EQ(model.num_domains(), rebuilt.num_domains());
      for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
        ASSERT_TRUE(SameBits(model.SchemasOf(r), rebuilt.SchemasOf(r)))
            << "domain " << r;
      }

      const FeaturePostings fresh =
          FeaturePostings::Build(inc.features(), f.size());
      ASSERT_EQ(inc.postings().num_schemas(), fresh.num_schemas());
      for (std::size_t t = 0; t < f.size(); ++t) {
        const auto a = inc.postings().Postings(t);
        const auto b = fresh.Postings(t);
        ASSERT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
                  std::vector<std::uint32_t>(b.begin(), b.end()))
            << "term " << t;
      }
    }
  }
}

}  // namespace
}  // namespace paygo
