/// \file perf_classifier.cc
/// \brief Classifier performance: google-benchmark microbenchmarks plus a
/// gated batch-throughput harness.
///
/// Two personalities in one binary:
///
///  * **google-benchmark mode** (no harness flags, the default): the
///    Section 5.3 microbenchmarks — exhaustive vs factored setup cost and
///    single-query classification time.
///  * **harness mode** (any of --check/--smoke/--json-out/--human/
///    --domains/--dim/--bits/--queries/--seconds/--batches): measures
///    single-thread classify throughput and per-query p50/p99 latency at
///    each batch size via the zero-alloc ClassifyInto/ClassifyBatchInto
///    paths, writes BENCH_classifier.json (schema in bench/README.md),
///    and with --check exits 1 unless batch-64 throughput is >= 2x batch-1
///    AND per-query p99 stays under budget — the CI regression gate for
///    the struct-of-arrays batch sweep (tools/ci.sh).
///
/// The headline microbenchmark contrast: the thesis's exhaustive setup is
/// exponential in the number of uncertain schemas per domain (2^u
/// subsets), while the factored engine is polynomial — the exact removal
/// of the exponential factor that Chapter 7 lists as future work.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "classify/approx_classifier.h"
#include "classify/naive_bayes.h"
#include "util/bitset.h"
#include "util/random.h"

namespace paygo {
namespace {

/// One domain with `u` uncertain and `c` certain members over `dim`
/// features.
struct DomainFixture {
  std::vector<DynamicBitset> features;
  DomainModel model;
  std::size_t total;

  DomainFixture(std::size_t certain, std::size_t uncertain, std::size_t dim) {
    Rng rng(17);
    total = certain + uncertain;
    features.assign(total, DynamicBitset(dim));
    std::vector<std::vector<std::uint32_t>> clusters(1);
    std::vector<std::vector<std::pair<std::uint32_t, double>>> sd(total);
    for (std::uint32_t i = 0; i < total; ++i) {
      for (std::size_t b = 0; b < dim; ++b) {
        if (rng.NextBernoulli(0.2)) features[i].Set(b);
      }
      clusters[0].push_back(i);
      const double p =
          i < certain ? 1.0 : 0.1 + 0.8 * rng.NextDouble();
      sd[i] = {{0, p}};
    }
    model = DomainModel::Build(std::move(clusters), std::move(sd));
  }
};

void BM_SetupExhaustive(benchmark::State& state) {
  const DomainFixture fx(8, state.range(0), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDomainConditionals(
        fx.model, 0, fx.features, fx.total, ClassifierEngine::kExhaustive,
        64));
  }
  state.SetLabel("u=" + std::to_string(state.range(0)) + " (2^u subsets)");
}
BENCHMARK(BM_SetupExhaustive)->DenseRange(2, 20, 3);

void BM_SetupFactored(benchmark::State& state) {
  const DomainFixture fx(8, state.range(0), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeDomainConditionals(
        fx.model, 0, fx.features, fx.total, ClassifierEngine::kFactored, 64));
  }
  state.SetLabel("u=" + std::to_string(state.range(0)) + " (poly)");
}
// The factored engine keeps going long after the exhaustive one has
// exploded.
BENCHMARK(BM_SetupFactored)->DenseRange(2, 20, 3)->Arg(50)->Arg(200);

void BM_SetupExpectedWorld(benchmark::State& state) {
  const DomainFixture fx(8, state.range(0), 500);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kExpectedWorld;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeApproxDomainConditionals(
        fx.model, 0, fx.features, fx.total, opts));
  }
}
BENCHMARK(BM_SetupExpectedWorld)->Arg(8)->Arg(50)->Arg(200);

void BM_SetupMonteCarlo(benchmark::State& state) {
  const DomainFixture fx(8, 50, 500);
  ApproxClassifierOptions opts;
  opts.kind = ApproxKind::kMonteCarlo;
  opts.num_samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeApproxDomainConditionals(
        fx.model, 0, fx.features, fx.total, opts));
  }
}
BENCHMARK(BM_SetupMonteCarlo)->Arg(128)->Arg(1024)->Arg(8192);

void BM_QueryClassification(benchmark::State& state) {
  // |D| domains over dim features; measure per-query ranking cost.
  const std::size_t num_domains = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 2000;
  Rng rng(23);
  std::vector<DomainConditionals> conds(num_domains);
  for (auto& c : conds) {
    c.prior = 0.01 + rng.NextDouble();
    c.q1.resize(dim);
    for (double& q : c.q1) q = 0.001 + 0.9 * rng.NextDouble();
  }
  const auto clf = NaiveBayesClassifier::FromConditionals(
      std::move(conds), std::vector<bool>(num_domains, false), {});
  DynamicBitset query(dim);
  for (int k = 0; k < 6; ++k) query.Set(rng.NextBelow(dim));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.Classify(query));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryClassification)->Arg(10)->Arg(50)->Arg(200);

// ---------------------------------------------------------------------------
// Harness mode: the gated batch-throughput measurement.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct HarnessOptions {
  // The default shape makes the sweep memory-bound (the regime batching is
  // for): num_domains * dim * 8 bytes of log-odds far exceeds L2, and
  // dense-ish queries make each domain row earn its cache residency.
  std::size_t num_domains = 600;
  std::size_t dim = 4000;
  std::size_t bits = 48;      ///< set features per query
  std::size_t queries = 512;  ///< pool size (multiple of every batch size)
  double seconds = 1.0;       ///< time box per batch size, all rounds
  std::vector<std::size_t> batches = {1, 8, 64};
  bool check = false;
  double min_speedup = 2.0;      ///< batch-64-vs-1 throughput gate
  double p99_budget_us = 20000;  ///< per-query p99 budget, every batch size
  std::string json_out = "BENCH_classifier.json";  // "" disables the file
  bool human = false;
};

/// The harness interleaves the batch sizes over this many rounds.
constexpr std::size_t kRounds = 8;

struct BatchPoint {
  std::size_t batch = 0;
  double qps = 0.0;
  double p50_us = 0.0;   // per-query
  double p99_us = 0.0;
  double mean_us = 0.0;
  std::uint64_t total_queries = 0;
};

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// One batch size's single-thread measurement, accumulated over the
/// interleaved rounds, through the zero-alloc paths (batch 1 =
/// ClassifyInto, the single-query hot path; batch B > 1 = one
/// ClassifyBatchInto sweep per chunk). Per-query latency for a sweep is
/// sweep_time / B.
class BatchLane {
 public:
  BatchLane(const NaiveBayesClassifier& clf,
            const std::vector<DynamicBitset>& pool, std::size_t batch)
      : clf_(clf), pool_(pool), batch_(batch) {
    for (std::size_t s = 0; s < pool_.size(); s += batch_) RunChunk(s);
  }

  /// Whole passes over the pool until \p budget_us has elapsed.
  void RunFor(double budget_us) {
    const Clock::time_point t0 = Clock::now();
    while (MicrosSince(t0) < budget_us) {
      for (std::size_t s = 0; s < pool_.size(); s += batch_) {
        const Clock::time_point c0 = Clock::now();
        RunChunk(s);
        per_query_us_.push_back(MicrosSince(c0) /
                                static_cast<double>(batch_));
        total_ += batch_;
      }
    }
    elapsed_us_ += MicrosSince(t0);
  }

  /// Throughput is the summed queries over the summed time of all rounds.
  BatchPoint Summary() const {
    BatchPoint point;
    point.batch = batch_;
    point.total_queries = total_;
    point.qps = total_ / (elapsed_us_ / 1e6);
    std::vector<double> sorted = per_query_us_;
    std::sort(sorted.begin(), sorted.end());
    if (!sorted.empty()) {
      point.p50_us = sorted[sorted.size() / 2];
      point.p99_us = sorted[std::min(
          sorted.size() - 1, static_cast<std::size_t>(sorted.size() * 0.99))];
      for (double v : sorted) point.mean_us += v;
      point.mean_us /= static_cast<double>(sorted.size());
    }
    return point;
  }

 private:
  void RunChunk(std::size_t start) {
    if (batch_ == 1) {
      clf_.ClassifyInto(pool_[start], &scratch_, &single_out_);
    } else {
      clf_.ClassifyBatchInto(
          std::span<const DynamicBitset>(pool_.data() + start, batch_),
          &scratch_, &batch_out_);
    }
  }

  const NaiveBayesClassifier& clf_;
  const std::vector<DynamicBitset>& pool_;
  std::size_t batch_;
  ClassifyScratch scratch_;
  std::vector<DomainScore> single_out_;
  std::vector<std::vector<DomainScore>> batch_out_;
  std::vector<double> per_query_us_;
  std::uint64_t total_ = 0;
  double elapsed_us_ = 0.0;
};

int RunHarness(const HarnessOptions& opts) {
  Rng rng(41);
  std::vector<DomainConditionals> conds(opts.num_domains);
  for (auto& c : conds) {
    c.prior = 0.01 + rng.NextDouble();
    c.q1.resize(opts.dim);
    for (double& q : c.q1) q = 0.001 + 0.9 * rng.NextDouble();
  }
  const auto clf = NaiveBayesClassifier::FromConditionals(
      std::move(conds), std::vector<bool>(opts.num_domains, false), {});

  std::vector<DynamicBitset> pool;
  pool.reserve(opts.queries);
  for (std::size_t i = 0; i < opts.queries; ++i) {
    DynamicBitset q(opts.dim);
    for (std::size_t k = 0; k < opts.bits; ++k) q.Set(rng.NextBelow(opts.dim));
    pool.push_back(std::move(q));
  }

  std::vector<BatchLane> lanes;
  lanes.reserve(opts.batches.size());
  for (std::size_t batch : opts.batches) {
    if (batch == 0 || opts.queries % batch != 0) {
      std::cerr << "batch size " << batch << " must divide --queries "
                << opts.queries << "\n";
      return 2;
    }
    lanes.emplace_back(clf, pool, batch);
  }
  // Each batch size gets opts.seconds in total, split over short rounds
  // that visit the sizes in alternating order, so a slow spell of the host
  // lands on every size alike instead of skewing the speedup ratio.
  const double round_us = opts.seconds * 1e6 / kRounds;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      lanes[round % 2 == 0 ? k : lanes.size() - 1 - k].RunFor(round_us);
    }
  }
  std::vector<BatchPoint> points;
  for (const BatchLane& lane : lanes) points.push_back(lane.Summary());

  double qps_b1 = 0.0, qps_bmax = 0.0;
  std::size_t bmax = 0;
  for (const BatchPoint& p : points) {
    if (p.batch == 1) qps_b1 = p.qps;
    if (p.batch > bmax) {
      bmax = p.batch;
      qps_bmax = p.qps;
    }
  }
  const double speedup = qps_b1 > 0.0 ? qps_bmax / qps_b1 : 0.0;

  bool check_failed = false;
  std::string check_detail;
  if (bmax > 1 && speedup < opts.min_speedup) {
    check_failed = true;
    check_detail += "batch-" + std::to_string(bmax) + " speedup " +
                    std::to_string(speedup) + "x < required " +
                    std::to_string(opts.min_speedup) + "x; ";
  }
  for (const BatchPoint& p : points) {
    if (p.p99_us > opts.p99_budget_us) {
      check_failed = true;
      check_detail += "batch-" + std::to_string(p.batch) + " p99 " +
                      std::to_string(p.p99_us) + "us over budget " +
                      std::to_string(opts.p99_budget_us) + "us; ";
    }
  }

  std::ostringstream results;
  results << "{\"kernel\": \"" << DynamicBitset::KernelName()
          << "\", \"batches\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BatchPoint& p = points[i];
    if (i > 0) results << ", ";
    results << "{\"batch\": " << p.batch << ", \"qps\": " << p.qps
            << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
            << ", \"mean_us\": " << p.mean_us
            << ", \"total_queries\": " << p.total_queries << "}";
  }
  results << "], \"speedup_batch" << bmax << "_vs_1\": " << speedup
          << ", \"min_speedup\": " << opts.min_speedup
          << ", \"p99_budget_us\": " << opts.p99_budget_us
          << ", \"check\": \"" << (check_failed ? "FAIL" : "PASS") << "\"}";

  if (!opts.json_out.empty()) {
    const auto ts_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
    std::ofstream out(opts.json_out, std::ios::trunc);
    out << "{\"bench\": \"classifier_batch\", \"ts_ms\": " << ts_ms
        << ", \"config\": {\"domains\": " << opts.num_domains
        << ", \"dim\": " << opts.dim << ", \"bits\": " << opts.bits
        << ", \"queries\": " << opts.queries
        << ", \"seconds\": " << opts.seconds << ", \"rounds\": " << kRounds
        << "}, \"results\": "
        << results.str() << "}\n";
    if (!out) {
      std::cerr << "failed writing " << opts.json_out << "\n";
      return 1;
    }
    std::cerr << "wrote " << opts.json_out << "\n";
  }

  if (opts.human) {
    std::cout << "kernel " << DynamicBitset::KernelName() << ", "
              << opts.num_domains << " domains x " << opts.dim
              << " features, " << opts.bits << " set bits/query\n";
    for (const BatchPoint& p : points) {
      std::cout << "  batch " << p.batch << ": " << p.qps << " qps, p50 "
                << p.p50_us << "us, p99 " << p.p99_us << "us\n";
    }
    std::cout << "  batch-" << bmax << " vs batch-1 speedup: " << speedup
              << "x\n";
  } else {
    std::cout << results.str() << "\n";
  }

  if (opts.check && check_failed) {
    std::cerr << "FAIL: " << check_detail << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace paygo

int main(int argc, char** argv) {
  paygo::HarnessOptions opts;
  bool harness = false;
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--check") {
      opts.check = true;
      harness = true;
    } else if (arg == "--smoke") {
      // Shorter time box, same memory-bound shape (the speedup gate needs
      // the working set to stay bigger than cache).
      opts.seconds = 0.25;
      opts.queries = 256;
      harness = true;
    } else if (arg == "--domains" && next()) {
      opts.num_domains = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--dim" && next()) {
      opts.dim = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--bits" && next()) {
      opts.bits = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--queries" && next()) {
      opts.queries = static_cast<std::size_t>(std::atoll(argv[i]));
      harness = true;
    } else if (arg == "--seconds" && next()) {
      opts.seconds = std::atof(argv[i]);
      harness = true;
    } else if (arg == "--batches" && next()) {
      opts.batches.clear();
      std::stringstream ss(argv[i]);
      std::string piece;
      while (std::getline(ss, piece, ',')) {
        opts.batches.push_back(
            static_cast<std::size_t>(std::atoll(piece.c_str())));
      }
      harness = true;
    } else if (arg == "--min-speedup" && next()) {
      opts.min_speedup = std::atof(argv[i]);
      harness = true;
    } else if (arg == "--p99-budget-us" && next()) {
      opts.p99_budget_us = std::atof(argv[i]);
      harness = true;
    } else if (arg == "--json-out" && next()) {
      opts.json_out = argv[i];
      harness = true;
    } else if (arg == "--human") {
      opts.human = true;
      harness = true;
    } else {
      bench_args.push_back(argv[i]);  // google-benchmark flag
    }
  }
  if (harness) return paygo::RunHarness(opts);

  int bench_argc = static_cast<int>(bench_args.size());
  ::benchmark::Initialize(&bench_argc, bench_args.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
