#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cluster/hac.h"
#include "persist/model_io.h"
#include "schema/corpus_io.h"
#include "text/porter_stemmer.h"
#include "text/similarity_index.h"
#include "text/term_similarity.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace paygo {
namespace {

/// Deterministic fuzzing of every parser and text routine: arbitrary byte
/// strings must never crash, and outputs must satisfy their documented
/// invariants. (No sanitizer needed to make these valuable — out-of-range
/// indexing and unvalidated parses fail loudly under the assertions.)

std::string RandomBytes(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng.NextBelow(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return s;
}

std::string RandomPrintable(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng.NextBelow(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(32 + rng.NextBelow(95)));
  }
  return s;
}

TEST(FuzzTest, TokenizerNeverCrashesAndCanonicalizes) {
  Rng rng(9001);
  Tokenizer tok;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string input = RandomBytes(rng, 64);
    const auto terms = tok.Tokenize(input);
    for (const std::string& t : terms) {
      EXPECT_GE(t.size(), tok.options().min_term_length);
      for (char c : t) {
        // Canonical form: no upper-case ASCII survives.
        EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)));
      }
    }
  }
}

TEST(FuzzTest, TermSimilaritiesStayInUnitInterval) {
  Rng rng(9002);
  for (auto kind :
       {TermSimilarityKind::kLcs, TermSimilarityKind::kStem,
        TermSimilarityKind::kExact, TermSimilarityKind::kLevenshtein,
        TermSimilarityKind::kJaroWinkler}) {
    TermSimilarity sim(kind);
    for (int trial = 0; trial < 500; ++trial) {
      const std::string a = RandomBytes(rng, 24);
      const std::string b = RandomBytes(rng, 24);
      const double s = sim.Compute(a, b);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0 + 1e-12);
      EXPECT_NEAR(s, sim.Compute(b, a), 1e-12);  // symmetry
      if (!a.empty()) {
        EXPECT_NEAR(sim.Compute(a, a), 1.0, 1e-12);  // reflexivity
      }
    }
  }
}

TEST(FuzzTest, PorterStemmerNeverGrowsWordsOrCrashes) {
  Rng rng(9003);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string word;
    const std::size_t len = rng.NextBelow(20);
    for (std::size_t i = 0; i < len; ++i) {
      word.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    const std::string stem = PorterStem(word);
    EXPECT_LE(stem.size(), word.size() + 1);  // step 1b may append 'e'
    // (Porter is not idempotent on arbitrary letter soup — only the
    // no-crash and bounded-growth invariants hold universally.)
    EXPECT_FALSE(PorterStem(stem).size() > stem.size() + 1);
  }
}

TEST(FuzzTest, CorpusParserNeverCrashesAndErrorsAreStatuses) {
  Rng rng(9004);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string text = RandomPrintable(rng, 200);
    const auto result = ParseCorpus(text);
    if (result.ok()) {
      // Whatever parsed must serialize and re-parse to the same size.
      const auto round = ParseCorpus(SerializeCorpus(*result));
      ASSERT_TRUE(round.ok());
      EXPECT_EQ(round->size(), result->size());
    }
  }
}

TEST(FuzzTest, ModelParsersNeverCrash) {
  Rng rng(9005);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string text = RandomPrintable(rng, 200);
    (void)ParseDomainModel(text);
    (void)ParseConditionals(text);
    (void)ParseDomainModel("paygo-model v1\n" + text);
    (void)ParseConditionals("paygo-classifier v1\n" + text);
  }
}

TEST(FuzzTest, ParallelClusteringMatchesSerialOnRandomCorpora) {
  // Differential fuzz of the parallel clustering core: random feature
  // matrices (varying density, size, and linkage) must cluster bit-
  // identically at any thread count. Failures print the trial seed so the
  // case can be replayed in isolation.
  Rng meta(9007);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint64_t seed = 9100 + trial;
    Rng rng(seed);
    const std::size_t n = 20 + rng.NextBelow(80);
    const std::size_t dim = 30 + rng.NextBelow(90);
    const double density = 0.05 + 0.4 * rng.NextDouble();
    std::vector<DynamicBitset> features(n, DynamicBitset(dim));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < dim; ++b) {
        if (rng.NextBernoulli(density)) features[i].Set(b);
      }
    }
    const LinkageKind linkage =
        AllLinkageKinds()[meta.NextBelow(AllLinkageKinds().size())];

    HacOptions serial_opts;
    serial_opts.linkage = linkage;
    serial_opts.tau_c_sim = 0.05 + 0.4 * meta.NextDouble();
    const SimilarityMatrix serial_sims(features, 1);
    const auto serial = Hac::Run(features, serial_sims, serial_opts);
    ASSERT_TRUE(serial.ok()) << "seed=" << seed;

    for (std::size_t threads : {2, 5, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads) + " linkage=" +
                   LinkageKindName(linkage));
      const SimilarityMatrix parallel_sims(features, threads);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(serial_sims.At(i, j), parallel_sims.At(i, j));
        }
      }
      HacOptions parallel_opts = serial_opts;
      parallel_opts.num_threads = threads;
      const auto parallel = Hac::Run(features, parallel_sims, parallel_opts);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(serial->merges.size(), parallel->merges.size());
      for (std::size_t m = 0; m < serial->merges.size(); ++m) {
        ASSERT_EQ(serial->merges[m].slot_a, parallel->merges[m].slot_a);
        ASSERT_EQ(serial->merges[m].slot_b, parallel->merges[m].slot_b);
        ASSERT_EQ(serial->merges[m].similarity,
                  parallel->merges[m].similarity);  // bitwise
      }
      ASSERT_EQ(serial->clusters, parallel->clusters);
    }
  }
}

/// Set PAYGO_DETERMINISM_SMALL=1 to shrink the similarity-index fuzz (used
/// by the TSan CI job).
bool SmallMode() {
  const char* v = std::getenv("PAYGO_DETERMINISM_SMALL");
  return v != nullptr && std::string(v) != "0";
}

/// One random edit (substitute, insert or delete a byte) of \p term.
std::string Mutate(Rng& rng, std::string term, const std::string& alphabet) {
  const char c = alphabet[rng.NextBelow(alphabet.size())];
  const std::size_t op = term.empty() ? 1 : rng.NextBelow(3);
  const std::size_t pos = rng.NextBelow(term.size() + (op == 1 ? 1 : 0));
  if (op == 0) {
    term[pos] = c;
  } else if (op == 1) {
    term.insert(term.begin() + static_cast<std::ptrdiff_t>(pos), c);
  } else {
    term.erase(pos, 1);
  }
  return term;
}

TEST(FuzzTest, SimilarityIndexMatchesExhaustiveOracleOnRandomLexicons) {
  // Random lexicons over small and large alphabets (small ones make long
  // shared substrings common), thresholds on the exact 2k/(2s) boundaries
  // of the q-gram filter, at 1.0, at 0.0, just above 1.0 and low enough
  // that tau * min_len < 2: every row and every Match probe must equal the
  // exhaustive Compute >= tau oracle at every thread count.
  const std::vector<std::string> alphabets = {
      "ab", "acgt", "abcdefghijklmnopqrstuvwxyz",
      std::string("ab0123456789") + "\x80\x9f\xc3\xe9\xff"};
  const TermSimilarityKind other_kinds[] = {
      TermSimilarityKind::kStem, TermSimilarityKind::kExact,
      TermSimilarityKind::kLevenshtein, TermSimilarityKind::kJaroWinkler};
  const bool small = SmallMode();
  const int trials = small ? 8 : 32;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = 9200 + trial;
    Rng rng(seed);
    const std::string& alphabet = alphabets[trial % alphabets.size()];
    const std::size_t min_len = 1 + rng.NextBelow(6);
    const std::size_t max_len = min_len + rng.NextBelow(21 - min_len);
    std::vector<std::string> terms;
    const std::size_t n = (small ? 20 : 40) + rng.NextBelow(small ? 40 : 120);
    for (std::size_t i = 0; i < n; ++i) {
      std::string t;
      if (!terms.empty() && rng.NextBernoulli(0.5)) {
        t = Mutate(rng, terms[rng.NextBelow(terms.size())], alphabet);
      }
      if (t.size() < min_len || t.size() > max_len) {
        t.clear();
        const std::size_t len = min_len + rng.NextBelow(max_len - min_len + 1);
        for (std::size_t k = 0; k < len; ++k) {
          t.push_back(alphabet[rng.NextBelow(alphabet.size())]);
        }
      }
      terms.push_back(std::move(t));
    }
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    std::size_t shortest = terms[0].size(), longest = 0;
    for (const auto& t : terms) {
      shortest = std::min(shortest, t.size());
      longest = std::max(longest, t.size());
    }

    std::vector<std::string> probes = {""};
    for (int k = 0; k < 3; ++k) {
      const std::string& t = terms[rng.NextBelow(terms.size())];
      probes.push_back(t);
      probes.push_back(Mutate(rng, t, alphabet));
    }
    if (shortest >= 2) {  // shorter than every term
      const std::string& t = terms[rng.NextBelow(terms.size())];
      probes.push_back(t.substr(0, 1 + rng.NextBelow(shortest - 1)));
    }
    std::string longer = terms[rng.NextBelow(terms.size())];
    while (longer.size() <= longest) {  // longer than every term
      longer += terms[rng.NextBelow(terms.size())];
    }
    probes.push_back(longer);

    // 2k/(2s) in the arithmetic of TermSimilarity::Compute.
    auto boundary = [&] {
      const std::size_t s = shortest + rng.NextBelow(longest - shortest + 1);
      const std::size_t k = 1 + rng.NextBelow(s);
      return 2.0 * static_cast<double>(k) / static_cast<double>(s + s);
    };
    const double low = 1.99 / static_cast<double>(shortest) *
                       (0.05 + 0.95 * rng.NextDouble());
    std::vector<double> thresholds = {1.0, boundary(), boundary(),
                                      std::min(1.0, low),
                                      0.5 + 0.45 * rng.NextDouble(), 0.0,
                                      std::nextafter(1.0, 2.0)};
    const TermSimilarityKind other = other_kinds[(trial / 4) % 4];
    for (const double tau : thresholds) {
      for (const TermSimilarityKind kind : {TermSimilarityKind::kLcs, other}) {
        // The stem and exact kinds ignore tau outside (0, 1] by design.
        if (kind != TermSimilarityKind::kLcs && !(tau > 0.0 && tau <= 1.0)) {
          continue;
        }
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " kind=" + std::to_string(static_cast<int>(kind)) +
                     " tau=" + std::to_string(tau));
        const TermSimilarity sim(kind);
        std::vector<std::vector<std::uint32_t>> rows(terms.size());
        for (std::uint32_t i = 0; i < terms.size(); ++i) {
          for (std::uint32_t j = 0; j < terms.size(); ++j) {
            if (i == j || sim.Compute(terms[std::min(i, j)],
                                      terms[std::max(i, j)]) >= tau) {
              rows[i].push_back(j);
            }
          }
        }
        std::vector<std::vector<std::uint32_t>> matches;
        for (const std::string& p : probes) {
          std::vector<std::uint32_t> hits;
          for (std::uint32_t j = 0; !p.empty() && j < terms.size(); ++j) {
            if (sim.Compute(p, terms[j]) >= tau) hits.push_back(j);
          }
          matches.push_back(std::move(hits));
        }
        for (std::size_t threads : {1, 3, 8}) {
          const SimilarityIndex index(terms, sim, tau, threads);
          for (std::size_t i = 0; i < terms.size(); ++i) {
            ASSERT_EQ(index.Neighbors(i), rows[i])
                << "threads=" << threads << " term '" << terms[i] << "'";
          }
          for (std::size_t p = 0; p < probes.size(); ++p) {
            ASSERT_EQ(index.Match(probes[p]), matches[p])
                << "threads=" << threads << " probe '" << probes[p] << "'";
          }
        }
      }
    }
  }
}

TEST(FuzzTest, MutatedSnapshotsFailGracefully) {
  // Take a valid snapshot and flip bytes: loading must either succeed or
  // return a Status, never crash, and never mis-size the corpus.
  SystemOptions options;
  SchemaCorpus corpus;
  corpus.Add(Schema("a", {"make", "model"}));
  corpus.Add(Schema("b", {"title", "authors"}));
  auto sys = IntegrationSystem::Build(corpus, options);
  ASSERT_TRUE(sys.ok());
  const std::string path = ::testing::TempDir() + "/paygo_fuzz_snapshot.txt";
  ASSERT_TRUE(SaveSnapshot(**sys, path).ok());
  std::string original;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    original = buf.str();
  }
  Rng rng(9006);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = original;
    const std::size_t flips = 1 + rng.NextBelow(5);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<char>(32 + rng.NextBelow(95));
    }
    std::ofstream out(path);
    out << mutated;
    out.close();
    const auto loaded = LoadSnapshot(path, options);
    if (loaded.ok()) {
      EXPECT_EQ((*loaded)->corpus().size(),
                (*loaded)->domains().num_schemas());
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace paygo
