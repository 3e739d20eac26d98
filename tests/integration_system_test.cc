#include "core/integration_system.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/stats.h"
#include "persist/model_io.h"
#include "synth/tuple_generator.h"

namespace paygo {
namespace {

/// A tiny three-domain corpus (travel, bibliography, cars) with clear
/// vocabulary separation.
SchemaCorpus SmallCorpus() {
  SchemaCorpus corpus("small");
  corpus.Add(Schema("expedia",
                    {"departure airport", "destination airport",
                     "departing", "returning", "airline"}),
             {"travel"});
  corpus.Add(Schema("orbitz",
                    {"departure airport", "destination", "airline",
                     "passengers"}),
             {"travel"});
  corpus.Add(Schema("kayak",
                    {"departure", "destination airport", "airline", "class"}),
             {"travel"});
  corpus.Add(Schema("dblp", {"title", "authors", "year of publish",
                             "conference name"}),
             {"bibliography"});
  corpus.Add(Schema("citeseer", {"title", "author", "year", "journal"}),
             {"bibliography"});
  corpus.Add(Schema("pubmed", {"title", "authors", "journal", "abstract"}),
             {"bibliography"});
  corpus.Add(Schema("autotrader", {"make", "model", "year", "price"}),
             {"cars"});
  corpus.Add(Schema("cars.com", {"make", "model", "mileage", "price"}),
             {"cars"});
  return corpus;
}

SystemOptions SmallOptions() {
  SystemOptions opts;
  opts.hac.tau_c_sim = 0.25;
  opts.assignment.tau_c_sim = 0.25;
  opts.mediator.attr_freq_threshold = 0.1;
  return opts;
}

TEST(IntegrationSystemTest, BuildsAndClustersIntoThreeDomains) {
  const auto sys = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys.ok()) << sys.status();
  const IntegrationSystem& s = **sys;
  EXPECT_EQ(s.corpus().size(), 8u);
  EXPECT_EQ(s.domains().num_domains(), 3u);
  // The three travel schemas share a domain.
  const auto& d0 = s.domains().DomainsOf(0);
  ASSERT_EQ(d0.size(), 1u);
  EXPECT_EQ(s.domains().DomainsOf(1)[0].first, d0[0].first);
  EXPECT_EQ(s.domains().DomainsOf(2)[0].first, d0[0].first);
  // Cars and bibliography land elsewhere.
  EXPECT_NE(s.domains().DomainsOf(3)[0].first, d0[0].first);
  EXPECT_NE(s.domains().DomainsOf(6)[0].first,
            s.domains().DomainsOf(3)[0].first);
}

TEST(IntegrationSystemTest, KeywordQueriesRouteToTheRightDomain) {
  const auto sys = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys.ok());
  const IntegrationSystem& s = **sys;
  const std::uint32_t travel = s.domains().DomainsOf(0)[0].first;
  const std::uint32_t biblio = s.domains().DomainsOf(3)[0].first;
  const std::uint32_t cars = s.domains().DomainsOf(6)[0].first;

  const auto q1 = s.ClassifyKeywordQuery("departure Toronto destination Cairo");
  ASSERT_TRUE(q1.ok()) << q1.status();
  EXPECT_EQ((*q1)[0].domain, travel);

  const auto q2 = s.ClassifyKeywordQuery("books authored by Stephen King");
  ASSERT_TRUE(q2.ok());
  // "authored" matches "authors" via LCS similarity.
  EXPECT_EQ((*q2)[0].domain, biblio);

  const auto q3 = s.ClassifyKeywordQuery("honda civic make model mileage");
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ((*q3)[0].domain, cars);
}

TEST(IntegrationSystemTest, SuggestDomainsReturnsMediatedInterfaces) {
  const auto sys = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys.ok());
  const auto suggestions = (*sys)->SuggestDomains("airline departure", 2);
  ASSERT_TRUE(suggestions.ok()) << suggestions.status();
  ASSERT_EQ(suggestions->size(), 2u);
  EXPECT_FALSE((*suggestions)[0].mediated_attributes.empty());
}

TEST(IntegrationSystemTest, StructuredQueryEndToEnd) {
  auto sys_result = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys_result.ok());
  IntegrationSystem& s = **sys_result;
  const std::uint32_t cars = s.domains().DomainsOf(6)[0].first;

  // Attach the same car tuple to both car sources.
  ASSERT_TRUE(
      s.AttachTuples(6, {Tuple({"honda", "civic", "2004", "5000"})}).ok());
  ASSERT_TRUE(
      s.AttachTuples(7, {Tuple({"honda", "civic", "80000", "5000"})}).ok());

  const DomainMediation& med = s.mediation(cars);
  const int make_attr = med.mediated.FindByMember("make");
  ASSERT_GE(make_attr, 0);

  StructuredQuery q;
  q.predicates.push_back({static_cast<std::size_t>(make_attr), "honda"});
  const auto result = s.AnswerStructuredQuery(cars, q);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->size(), 1u);
  for (const RankedTuple& t : *result) {
    EXPECT_GT(t.probability, 0.0);
    EXPECT_LE(t.probability, 1.0 + 1e-12);
  }
}

TEST(IntegrationSystemTest, SyntheticTuplesFlowThroughTheEngine) {
  auto sys_result = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys_result.ok());
  IntegrationSystem& s = **sys_result;
  const std::uint32_t travel = s.domains().DomainsOf(0)[0].first;
  for (std::uint32_t i : {0u, 1u, 2u}) {
    DataSource tmp(i, s.corpus().schema(i));
    FillWithSyntheticTuples(&tmp);
    ASSERT_TRUE(s.AttachTuples(i, tmp.tuples()).ok());
  }
  const auto result = s.AnswerStructuredQuery(travel, {});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 0u);
  // Probabilities sorted descending.
  for (std::size_t i = 1; i < result->size(); ++i) {
    EXPECT_GE((*result)[i - 1].probability, (*result)[i].probability);
  }
}

TEST(IntegrationSystemTest, BuildWithoutClassifierRejectsQueries) {
  SystemOptions opts = SmallOptions();
  opts.build_classifier = false;
  const auto sys = IntegrationSystem::Build(SmallCorpus(), opts);
  ASSERT_TRUE(sys.ok());
  EXPECT_FALSE((*sys)->has_classifier());
  EXPECT_TRUE((*sys)->ClassifyKeywordQuery("departure")
                  .status()
                  .IsFailedPrecondition());
}

TEST(IntegrationSystemTest, BuildWithoutMediationRejectsStructuredQueries) {
  SystemOptions opts = SmallOptions();
  opts.build_mediation = false;
  const auto sys = IntegrationSystem::Build(SmallCorpus(), opts);
  ASSERT_TRUE(sys.ok());
  EXPECT_FALSE((*sys)->has_mediation());
  EXPECT_TRUE((*sys)->AnswerStructuredQuery(0, {})
                  .status()
                  .IsFailedPrecondition());
}

TEST(IntegrationSystemTest, EmptyCorpusRejected) {
  EXPECT_TRUE(IntegrationSystem::Build(SchemaCorpus(), {})
                  .status()
                  .IsInvalidArgument());
}

TEST(IntegrationSystemTest, AttachTuplesValidatesSchemaId) {
  auto sys = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys.ok());
  EXPECT_TRUE((*sys)->AttachTuples(99, {}).IsOutOfRange());
  EXPECT_TRUE(
      (*sys)->AttachTuples(0, {Tuple({"wrong width"})}).IsInvalidArgument());
}

TEST(IntegrationSystemTest, DescribeDomainMentionsMembers) {
  const auto sys = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(sys.ok());
  const std::uint32_t travel = (*sys)->domains().DomainsOf(0)[0].first;
  const std::string desc = (*sys)->DescribeDomain(travel);
  EXPECT_NE(desc.find("expedia"), std::string::npos);
  EXPECT_NE(desc.find("mediated schema"), std::string::npos);
}

TEST(IntegrationSystemTest, UnseenTermDriftAccumulatesAcrossAdds) {
  auto built = IntegrationSystem::Build(SmallCorpus(), SmallOptions());
  ASSERT_TRUE(built.ok()) << built.status();
  IntegrationSystem& sys = **built;
  const Gauge* gauge = StatsRegistry::Global().GetGauge(
      "paygo.model.unseen_term_drift_ppm");
  EXPECT_EQ(sys.unseen_term_drift(), 0.0);
  EXPECT_EQ(gauge->value(), 0);

  // Three adds: fully seen, all unseen, half unseen.
  std::vector<double> fractions;
  for (const Schema& schema :
       {Schema("travelocity", {"departure airport", "airline"}),
        Schema("alien", {"zzzqqq wwwvvv", "kkkjjj"}),
        Schema("mixed", {"make model", "qqqzzz xxxyyy"})}) {
    const auto added = sys.AddSchema(schema);
    ASSERT_TRUE(added.ok()) << added.status();
    fractions.push_back(added->unseen_term_fraction);
  }
  EXPECT_EQ(fractions[0], 0.0);
  EXPECT_EQ(fractions[1], 1.0);
  EXPECT_EQ(fractions[2], 0.5);
  const double expected = (fractions[0] + fractions[1] + fractions[2]) / 3.0;
  EXPECT_EQ(sys.unseen_term_drift(), expected);
  EXPECT_EQ(gauge->value(), std::llround(expected * 1e6));

  // Clone carries it; snapshots do not persist it; a rebuild resets it.
  EXPECT_EQ(sys.Clone()->unseen_term_drift(), expected);
  const auto bytes = SerializeSnapshot(sys);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const auto restored = ParseSnapshot(*bytes, SmallOptions());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->unseen_term_drift(), 0.0);
  ASSERT_TRUE(sys.RebuildFromScratch().ok());
  EXPECT_EQ(sys.unseen_term_drift(), 0.0);
  EXPECT_EQ(gauge->value(), 0);
}

}  // namespace
}  // namespace paygo
