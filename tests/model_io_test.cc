#include "persist/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "synth/web_generator.h"

namespace paygo {
namespace {

DomainModel SampleModel() {
  return DomainModel::Build(
      {{0, 1}, {2, 3}, {4}},
      {{{0, 1.0}},
       {{0, 0.6}, {1, 0.4}},
       {{1, 1.0}},
       {{1, 1.0}},
       {{2, 1.0}}});
}

TEST(ModelIoTest, DomainModelRoundTrip) {
  const DomainModel model = SampleModel();
  const auto parsed = ParseDomainModel(SerializeDomainModel(model));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_domains(), model.num_domains());
  ASSERT_EQ(parsed->num_schemas(), model.num_schemas());
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    EXPECT_EQ(parsed->Cluster(r), model.Cluster(r));
  }
  for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
    for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
      EXPECT_DOUBLE_EQ(parsed->Membership(i, r), model.Membership(i, r))
          << "schema " << i << " domain " << r;
    }
  }
}

TEST(ModelIoTest, ConditionalsRoundTripBitExact) {
  std::vector<DomainConditionals> conds(2);
  conds[0].prior = 0.123456789012345678;
  conds[0].q1 = {0.1, 1.0 / 3.0, 0.999999999999};
  conds[1].prior = 1e-17;
  conds[1].q1 = {0.5, 0.25, 0.75};
  const NaiveBayesClassifier clf = NaiveBayesClassifier::FromConditionals(
      conds, std::vector<bool>(conds.size(), false), {});
  const auto parsed = ParseConditionals(SerializeConditionals(
      clf.conditionals()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ((*parsed)[r].prior, conds[r].prior);
    ASSERT_EQ((*parsed)[r].q1.size(), conds[r].q1.size());
    for (std::size_t j = 0; j < conds[r].q1.size(); ++j) {
      EXPECT_DOUBLE_EQ((*parsed)[r].q1[j], conds[r].q1[j]);
    }
  }
}

TEST(ModelIoTest, ParseRejectsGarbage) {
  EXPECT_TRUE(ParseDomainModel("nonsense").status().IsInvalidArgument());
  EXPECT_TRUE(ParseDomainModel("paygo-model v1\nbogus directive\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseConditionals("paygo-classifier v1\nprior 5 0.1\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseDomainModel("paygo-model v1\ncounts 1 1\nmembership 0 9:0.5\n")
          .status()
          .IsInvalidArgument());
}

TEST(ModelIoTest, SnapshotRoundTripPreservesBehaviour) {
  SystemOptions options;
  options.hac.tau_c_sim = 0.25;
  options.assignment.tau_c_sim = 0.25;
  auto built = IntegrationSystem::Build(MakeDwCorpus(), options);
  ASSERT_TRUE(built.ok()) << built.status();
  const IntegrationSystem& original = **built;

  const std::string path = ::testing::TempDir() + "/paygo_snapshot_test.txt";
  ASSERT_TRUE(SaveSnapshot(original, path).ok());

  auto restored = LoadSnapshot(path, options);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const IntegrationSystem& copy = **restored;

  EXPECT_EQ(copy.corpus().size(), original.corpus().size());
  EXPECT_EQ(copy.domains().num_domains(), original.domains().num_domains());
  for (std::uint32_t r = 0; r < original.domains().num_domains(); ++r) {
    EXPECT_EQ(copy.domains().Cluster(r), original.domains().Cluster(r));
    EXPECT_DOUBLE_EQ(copy.classifier().Prior(r),
                     original.classifier().Prior(r));
  }
  // Queries rank identically on the restored system.
  for (const char* q :
       {"departure airline", "salary employer", "drug dosage",
        "hotel check in"}) {
    const auto a = original.ClassifyKeywordQuery(q);
    const auto b = copy.ClassifyKeywordQuery(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    EXPECT_EQ((*a)[0].domain, (*b)[0].domain) << q;
    EXPECT_DOUBLE_EQ((*a)[0].log_posterior, (*b)[0].log_posterior);
  }
  std::remove(path.c_str());
}

TEST(ModelIoTest, SnapshotRequiresClassifier) {
  SystemOptions options;
  options.build_classifier = false;
  auto built = IntegrationSystem::Build(MakeDwCorpus(), options);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(SaveSnapshot(**built, "/tmp/should_not_matter.txt")
                  .IsFailedPrecondition());
}

TEST(ModelIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadSnapshot("/nonexistent/snapshot.txt").status().IsIoError());
}

TEST(ModelIoTest, RestoreValidatesCorpusModelAgreement) {
  SchemaCorpus corpus;
  corpus.Add(Schema("s", {"alpha"}), {});
  // Model says 5 schemas; corpus has 1.
  EXPECT_TRUE(IntegrationSystem::Restore(corpus, {}, SampleModel(), {})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace paygo
