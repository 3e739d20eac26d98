#include "inputs.h"

#include <algorithm>
#include <map>
#include <set>

#include "schema/corpus_io.h"
#include "schema/lexicon.h"
#include "synth/ddh_generator.h"
#include "synth/many_domains.h"
#include "synth/query_generator.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace paygo::perfbench {

namespace {

// Reference rates were sized on a 4-core x86 box (RelWithDebInfo): each
// loads the deployment to a fifth to two fifths of its capacity.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Few large domains (dim L ~ 213): the build is dominated by the
      // dense similarity matrix and HAC; requests are cheap, and a pool
      // that fits the result cache makes the serving path carry them.
      {"ddh_paygo", CorpusShape::kDdh, 0, false, 512, true, 8000, 7},
      // Many small domains (dim L ~ 9.6k) on the dense-matrix-free build:
      // the term-similarity index dominates the build and featurization
      // dominates a request; the pool is far larger than the cache.
      {"web_paygo", CorpusShape::kWeb, 0, true, 20000, false, 500, 4},
      // The web corpus on two hash-ring shards behind the router.
      {"web_sharded", CorpusShape::kWeb, 2, true, 20000, false, 400, 4},
  };
  return kWorkloads;
}

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::size_t kBuildSchemasDdh = 2323;  // the thesis's DDH size
constexpr std::size_t kWebDomains = 1200;
constexpr std::size_t kJoinAdds = 80;           // join existing domains
constexpr std::size_t kNewDomains = 15;         // two schemas each
constexpr std::size_t kOrderLength = 1 << 18;
constexpr std::size_t kVerificationPerSize = 40;

HeldOutSchema HoldOut(const SchemaCorpus& corpus, std::size_t i) {
  return {corpus.schema(i), corpus.labels(i)};
}

std::string Join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out += ' ';
    out += w;
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  Rng rng(SplitMix(seed ^ 0x5eedull));
  std::vector<std::size_t> join;  // held-out schema indices of `full`
  SchemaCorpus full;
  SchemaCorpus fresh;             // schemas of domains Build never sees
  if (spec.shape == CorpusShape::kDdh) {
    DdhGeneratorOptions ddh;
    ddh.num_schemas = kBuildSchemasDdh + kJoinAdds;
    ddh.seed = SplitMix(seed ^ 0xddull);
    full = MakeDdhCorpus(ddh);
    std::vector<std::size_t> idx(full.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    rng.Shuffle(idx);
    join.assign(idx.begin(), idx.begin() + kJoinAdds);
    ManyDomainOptions novel;
    novel.num_domains = kNewDomains;
    novel.min_schemas_per_domain = 2;
    novel.max_schemas_per_domain = 2;
    novel.seed = SplitMix(seed ^ 0x0eull);
    fresh = MakeManyDomainCorpus(novel);
  } else {
    ManyDomainOptions web;
    web.num_domains = kWebDomains + kNewDomains;
    web.seed = SplitMix(seed ^ 0xebull);
    SchemaCorpus all = MakeManyDomainCorpus(web);
    // Domains past kWebDomains are the new ones; their first two schemas
    // join the add pool and the rest is dropped.
    std::map<std::string, std::size_t> seen;
    full.set_name(all.name());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::string& label = all.labels(i)[0];
      const std::size_t d = std::stoul(label.substr(6));  // "domain<k>"
      if (d < kWebDomains) {
        full.Add(all.schema(i), all.labels(i));
      } else if (seen[label]++ < 2) {
        fresh.Add(all.schema(i), all.labels(i));
      }
    }
    // One held-out schema from each of kJoinAdds distinct domains that
    // keep at least four schemas in the build corpus.
    std::map<std::string, std::vector<std::size_t>> by_label;
    for (std::size_t i = 0; i < full.size(); ++i) {
      by_label[full.labels(i)[0]].push_back(i);
    }
    std::vector<std::size_t> eligible;
    for (const auto& [label, members] : by_label) {
      if (members.size() >= 5) eligible.push_back(members.back());
    }
    rng.Shuffle(eligible);
    join.assign(eligible.begin(), eligible.begin() + kJoinAdds);
  }

  const std::set<std::size_t> held(join.begin(), join.end());
  in.corpus.set_name(full.name());
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (held.count(i) == 0) in.corpus.Add(full.schema(i), full.labels(i));
  }
  for (std::size_t i : join) in.adds.push_back(HoldOut(full, i));
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    in.adds.push_back(HoldOut(fresh, i));
  }
  rng.Shuffle(in.adds);

  // Queries: keywords drawn from each label's term distribution over the
  // build corpus (the Fig. 6.7 generator), joined into the text a user
  // types.
  const Tokenizer tokenizer;
  const Lexicon lexicon = Lexicon::Build(in.corpus, tokenizer);
  Result<QueryGenerator> gen = QueryGenerator::Build(in.corpus, lexicon);
  if (!gen.ok()) return in;  // leaves the pool empty; the run fails
  Rng qrng(SplitMix(seed ^ 0x9cull));
  std::set<std::string> distinct;
  for (std::size_t attempts = 0;
       in.pool.size() < spec.query_pool && attempts < 20 * spec.query_pool;
       ++attempts) {
    const std::size_t words = 2 + qrng.NextBelow(3);
    std::string text = Join(gen->Generate(words, qrng).keywords);
    if (distinct.insert(text).second) in.pool.push_back(std::move(text));
  }
  std::vector<double> cumulative;
  if (spec.zipf) {
    double total = 0;
    for (std::size_t r = 0; r < in.pool.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cumulative.push_back(total);
    }
  }
  in.order.resize(kOrderLength);
  for (std::uint32_t& q : in.order) {
    if (spec.zipf) {
      const double u = qrng.NextDouble() * cumulative.back();
      q = static_cast<std::uint32_t>(
          std::upper_bound(cumulative.begin(), cumulative.end() - 1, u) -
          cumulative.begin());
    } else {
      q = static_cast<std::uint32_t>(qrng.NextBelow(in.pool.size()));
    }
  }
  for (std::size_t words = 1; words <= 10; ++words) {
    for (std::size_t k = 0; k < kVerificationPerSize; ++k) {
      GeneratedQuery g = gen->Generate(words, qrng);
      in.verification.push_back({Join(g.keywords), g.target_label});
    }
  }
  return in;
}

std::uint64_t Digest(const Inputs& in) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
    h = (h ^ 0xff) * 0x100000001b3ull;  // field separator
  };
  mix(SerializeCorpus(in.corpus));
  for (const HeldOutSchema& a : in.adds) {
    mix(a.schema.source_name);
    for (const std::string& s : a.schema.attributes) mix(s);
    for (const std::string& s : a.labels) mix(s);
  }
  for (const std::string& q : in.pool) mix(q);
  for (std::uint32_t q : in.order) mix(std::to_string(q));
  for (const VerificationQuery& v : in.verification) {
    mix(v.text);
    mix(v.target_label);
  }
  return h;
}

}  // namespace paygo::perfbench
