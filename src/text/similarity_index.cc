#include "text/similarity_index.h"

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "text/porter_stemmer.h"
#include "util/thread_pool.h"

namespace paygo {
namespace {

/// 64-bit hash of a gram by value; its length q is part of the key.
std::uint64_t GramKey(std::string_view gram) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ gram.size();  // FNV-1a
  for (char c : gram) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;  // splitmix64 finalizer
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

SimilarityIndex::SimilarityIndex(std::vector<std::string> terms,
                                 TermSimilarity sim, double threshold,
                                 std::size_t num_threads)
    : terms_(std::move(terms)),
      sim_(sim),
      threshold_(threshold),
      num_threads_(ThreadPool::ResolveThreadCount(num_threads)) {
  BuildNeighborhoods();
}

void SimilarityIndex::BuildGramIndex() {
  std::size_t max_len = 0;
  for (const auto& t : terms_) max_len = std::max(max_len, t.size());
  // q(s) is nondecreasing in s (a larger denominator never rounds up), so
  // the search resumes where the previous length stopped. An empty term has
  // no grams; q(0) = 1 sends its row to the scan.
  min_lcs_.assign(max_len + 1, 1);
  std::size_t k = 0;
  for (std::size_t s = 1; s <= max_len; ++s) {
    while (k <= s && !(2.0 * static_cast<double>(k) /
                           static_cast<double>(s + s) >=
                       threshold_)) {
      ++k;
    }
    min_lcs_[s] = k;
  }

  std::vector<bool> present(max_len + 1, false);
  for (const auto& t : terms_) present[t.size()] = true;
  for (std::size_t len = 0; len <= max_len; ++len) {
    if (present[len]) lengths_.push_back(len);
  }

  // A term of length L is probed at q(min(m, L)) by every partner of a
  // length m the length bound admits: q(m) for the shortest admissible m
  // up to q(L). The bound is monotone in m, so the first admissible m
  // gives the low end.
  std::vector<std::pair<std::size_t, std::size_t>> q_range(max_len + 1,
                                                          {1, 0});
  for (std::size_t len : lengths_) {
    std::size_t m = 1;
    while (m <= len && sim_.UpperBound(m, len) < threshold_) ++m;
    if (m > len) continue;  // no admissible partner: the range stays empty
    q_range[len] = {std::max<std::size_t>(2, MinLcs(m)),
                    std::min(MinLcs(len), len)};
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < terms_.size(); ++i) {
    const std::string_view t = terms_[i];
    const auto [lo, hi] = q_range[t.size()];
    for (std::size_t q = lo; q <= hi; ++q) {
      for (std::size_t p = 0; p + q <= t.size(); ++p) {
        entries.emplace_back(GramKey(t.substr(p, q)), i);
      }
    }
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  gram_ids_.reserve(entries.size());
  for (const auto& [key, id] : entries) {
    if (gram_keys_.empty() || gram_keys_.back() != key) {
      gram_keys_.push_back(key);
      gram_offsets_.push_back(static_cast<std::uint32_t>(gram_ids_.size()));
    }
    gram_ids_.push_back(id);
  }
  gram_offsets_.push_back(static_cast<std::uint32_t>(gram_ids_.size()));
}

void SimilarityIndex::AppendGramCandidates(
    std::string_view term, std::size_t q,
    std::vector<std::uint32_t>& out) const {
  for (std::size_t p = 0; p + q <= term.size(); ++p) {
    const std::uint64_t key = GramKey(term.substr(p, q));
    const auto it = std::lower_bound(gram_keys_.begin(), gram_keys_.end(), key);
    if (it == gram_keys_.end() || *it != key) continue;
    const std::size_t k = static_cast<std::size_t>(it - gram_keys_.begin());
    out.insert(out.end(), gram_ids_.begin() + gram_offsets_[k],
               gram_ids_.begin() + gram_offsets_[k + 1]);
  }
}

void SimilarityIndex::BuildNeighborhoods() {
  PAYGO_TRACE_SPAN("simindex.build");
  // Build instrumentation is accumulated per scan chunk in plain locals
  // (never shared between workers, so parallel builds cannot tear or
  // double-count), summed into these totals on the single build thread,
  // and flushed to the registry once at the end of the build.
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* builds = reg.GetCounter("paygo.simindex.builds");
  static Counter* evaluated_total =
      reg.GetCounter("paygo.simindex.pairs_evaluated");
  static Counter* pruned_total = reg.GetCounter("paygo.simindex.pairs_pruned");
  builds->Increment();
  struct Flush {
    std::uint64_t& evaluated;
    std::uint64_t& pruned;
    Counter* evaluated_total;
    Counter* pruned_total;
    ~Flush() {
      evaluated_total->Add(evaluated);
      pruned_total->Add(pruned);
    }
  } flush{evaluated, pruned, evaluated_total, pruned_total};

  const std::size_t n = terms_.size();
  neighbors_.assign(n, {});
  for (std::uint32_t i = 0; i < n; ++i) neighbors_[i].push_back(i);

  std::unique_ptr<ThreadPool> pool;
  if (num_threads_ > 1 && n > 1) {
    pool = std::make_unique<ThreadPool>(num_threads_);
  }

  switch (sim_.kind()) {
    case TermSimilarityKind::kExact:
      // Identity only (terms_ is deduplicated); Match looks terms up in
      // (term, id) order.
      sorted_ids_.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) sorted_ids_[i] = i;
      std::sort(sorted_ids_.begin(), sorted_ids_.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return std::tie(terms_[a], a) < std::tie(terms_[b], b);
                });
      return;
    case TermSimilarityKind::kStem: {
      // Bucket terms by Porter stem; all terms in a bucket are mutually
      // similar with similarity 1 (>= any threshold in (0,1]). The
      // stemming map parallelizes (slot per term); bucketing and the
      // neighbor fan-out stay serial — bucket traversal order does not
      // matter because every row is sorted afterwards. The buckets are
      // kept for Match.
      std::vector<std::string> stems(n);
      auto stem_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) stems[i] = PorterStem(terms_[i]);
      };
      if (pool != nullptr) {
        pool->ParallelFor(0, n, /*grain=*/256,
                          [&](const ThreadPool::Chunk& c) {
                            stem_range(c.begin, c.end);
                          });
      } else {
        stem_range(0, n);
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        stem_ids_[std::move(stems[i])].push_back(i);
      }
      if (threshold_ > 1.0) return;
      for (const auto& [stem, members] : stem_ids_) {
        if (members.size() < 2) continue;
        for (std::uint32_t a : members) {
          for (std::uint32_t b : members) {
            if (a != b) neighbors_[a].push_back(b);
          }
        }
      }
      for (auto& nb : neighbors_) std::sort(nb.begin(), nb.end());
      return;
    }
    case TermSimilarityKind::kLcs:
      BuildGramIndex();
      break;
    case TermSimilarityKind::kLevenshtein:
    case TermSimilarityKind::kJaroWinkler:
      break;
  }

  // Each unordered pair is evaluated once, in the row of its shorter term
  // (ties: the lower id), so for the LCS kind the row's own q(s) applies.
  // Row i probes the gram postings at q(s); rows with q(s) <= 1 and the
  // kinds without a gram filter scan every term under the length bound.
  //
  // Each chunk of rows buffers its qualifying (i, j) pairs locally; chunks
  // are applied to the symmetric neighbor lists serially in ascending chunk
  // order, and every row is sorted at the end, so the result is identical
  // at any thread count.
  const bool lcs = sim_.kind() == TermSimilarityKind::kLcs;
  struct ChunkOut {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    std::uint64_t evaluated = 0;
    std::uint64_t pruned = 0;
  };
  auto scan_rows = [&](std::size_t lo, std::size_t hi, ChunkOut& out) {
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::string& ti = terms_[i];
      candidates.clear();
      if (lcs && MinLcs(ti.size()) > 1) {
        AppendGramCandidates(ti, MinLcs(ti.size()), candidates);
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
      } else {
        candidates.resize(n);
        for (std::uint32_t j = 0; j < n; ++j) candidates[j] = j;
      }
      for (std::uint32_t j : candidates) {
        const std::string& tj = terms_[j];
        if (tj.size() < ti.size() || (tj.size() == ti.size() && j <= i)) {
          continue;
        }
        if (sim_.UpperBound(ti.size(), tj.size()) < threshold_) {
          ++out.pruned;
          continue;
        }
        ++out.evaluated;
        if (sim_.Compute(ti, tj) >= threshold_) {
          out.pairs.emplace_back(i, j);
        }
      }
    }
  };
  auto apply = [&](const ChunkOut& out) {
    evaluated += out.evaluated;
    pruned += out.pruned;
    for (const auto& [i, j] : out.pairs) {
      neighbors_[i].push_back(j);
      neighbors_[j].push_back(i);
    }
  };
  const std::size_t grain = 16;
  const std::size_t chunks = pool != nullptr ? pool->NumChunks(n, grain) : 1;
  if (chunks > 1) {
    std::vector<ChunkOut> outs(chunks);
    pool->ParallelFor(0, n, grain, [&](const ThreadPool::Chunk& c) {
      scan_rows(c.begin, c.end, outs[c.index]);
    });
    for (const ChunkOut& out : outs) apply(out);
  } else {
    ChunkOut out;
    scan_rows(0, n, out);
    apply(out);
  }
  for (auto& nb : neighbors_) std::sort(nb.begin(), nb.end());
}

std::vector<std::uint32_t> SimilarityIndex::Match(std::string_view term) const {
  // Lookup hit rate: hits / lookups across every index in the process.
  StatsRegistry& reg = StatsRegistry::Global();
  static Counter* lookups = reg.GetCounter("paygo.simindex.lookups");
  static Counter* hits = reg.GetCounter("paygo.simindex.lookup_hits");
  lookups->Increment();
  std::vector<std::uint32_t> out;
  struct HitFlush {  // counts on every return path
    const std::vector<std::uint32_t>& out;
    Counter* hits;
    ~HitFlush() {
      if (!out.empty()) hits->Increment();
    }
  } hit_flush{out, hits};
  if (term.empty() || terms_.empty()) return out;

  switch (sim_.kind()) {
    case TermSimilarityKind::kExact: {
      const auto it = std::lower_bound(
          sorted_ids_.begin(), sorted_ids_.end(), term,
          [&](std::uint32_t id, std::string_view t) { return terms_[id] < t; });
      if (it != sorted_ids_.end() && terms_[*it] == term) out.push_back(*it);
      return out;
    }
    case TermSimilarityKind::kStem: {
      const auto it = stem_ids_.find(PorterStem(term));
      if (it != stem_ids_.end()) out = it->second;
      return out;
    }
    case TermSimilarityKind::kLcs:
    case TermSimilarityKind::kLevenshtein:
    case TermSimilarityKind::kJaroWinkler:
      break;
  }

  // A lexicon term of length L is a candidate only if it shares a
  // q(min(m, L))-gram with the probe of length m; q is nondecreasing in L,
  // so walking the lengths in order visits each distinct q once.
  std::vector<std::uint32_t> candidates;
  bool scan = sim_.kind() != TermSimilarityKind::kLcs;
  std::size_t last_q = 0;
  for (std::size_t len : lengths_) {
    if (sim_.UpperBound(term.size(), len) < threshold_) continue;
    const std::size_t q = MinLcs(std::min(term.size(), len));
    if (q <= 1) {
      scan = true;
      break;
    }
    if (q != last_q) {
      AppendGramCandidates(term, q, candidates);
      last_q = q;
    }
  }
  if (scan) {
    candidates.resize(terms_.size());
    for (std::uint32_t j = 0; j < terms_.size(); ++j) candidates[j] = j;
  } else {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  for (std::uint32_t j : candidates) {
    if (sim_.UpperBound(term.size(), terms_[j].size()) < threshold_) continue;
    if (sim_.Compute(term, terms_[j]) >= threshold_) out.push_back(j);
  }
  return out;
}

}  // namespace paygo
