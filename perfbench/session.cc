#include "session.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "metrics.h"

namespace paygo::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Sleeps of the issuing threads and the adder wake within microseconds
/// of their due time instead of the default 50 µs timer slack.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Every kSampleEvery-th request is checked against a direct call.
constexpr std::size_t kSampleEvery = 50;
/// Unverified samples held at once; each pins the snapshots it was
/// served from, which after an add is a whole classifier table.
constexpr std::size_t kMaxPendingSamples = 2;
/// Share of the session at the reference rate; the capacity phase gets
/// the rest, half before the reference phase and half after it.
constexpr double kReferenceShare = 0.6;
/// A phase whose backlog passes this stops issuing: its backlog is
/// growing without bound. (The server's own queue holds 256 and refuses
/// the rest, so this only stops the router's callers falling further
/// behind.)
constexpr std::size_t kAbortBacklog = 1000;
/// The capacity phase keeps requests outstanding without pause: twice the
/// server's four workers from one thread, or one router call on each of
/// four caller threads. It counts completions per window; the first
/// window of each half is warm-up, and the rate is the median of the
/// others. Measuring at both ends of the session samples more of a shared
/// host's slow and fast stretches than one block would.
constexpr std::size_t kCapacityOutstanding = 8;
constexpr std::size_t kCapacityCallers = 4;
constexpr double kCapacityWindowSeconds = 0.5;

/// Served answers awaiting comparison with a direct call on the snapshots
/// they were served from.
class SampleChecker {
 public:
  struct Sample {
    const std::string* query;
    Snapshots snaps;
    Ranking served;
  };

  void Offer(Sample sample) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() >= kMaxPendingSamples) {
      ++skipped_;
      return;
    }
    pending_.push_back(std::move(sample));
  }
  void Skip() {
    std::lock_guard<std::mutex> lock(mu_);
    ++skipped_;
  }

  /// Verifies up to \p max pending samples on the calling thread.
  void Drain(const Deployment& dep, std::size_t max) {
    for (std::size_t n = 0; n < max; ++n) {
      Sample s;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (pending_.empty()) return;
        s = std::move(pending_.front());
        pending_.pop_front();
      }
      Result<Ranking> expected = dep.Direct(s.snaps, *s.query);
      std::lock_guard<std::mutex> lock(mu_);
      if (!expected.ok()) {
        mismatches_.push_back("direct call failed for '" + *s.query +
                              "': " + expected.status().message());
      } else if (!SameRanking(*expected, s.served)) {
        mismatches_.push_back("served ranking differs from the direct "
                              "call on its snapshot for '" +
                              *s.query + "'");
      } else {
        ++verified_;
      }
    }
  }

  void Report(SessionResult* out) {
    std::lock_guard<std::mutex> lock(mu_);
    out->samples_verified = verified_;
    out->samples_skipped = skipped_;
    out->mismatches.insert(out->mismatches.end(), mismatches_.begin(),
                           mismatches_.end());
  }

 private:
  std::mutex mu_;
  std::deque<Sample> pending_;
  std::size_t verified_ = 0;
  std::size_t skipped_ = 0;
  std::vector<std::string> mismatches_;
};

struct Item {
  std::size_t index = 0;  // within the phase
  const std::string* query = nullptr;
  Clock::time_point due;
  Clock::time_point submitted;
  std::future<Result<std::vector<DomainScore>>> pending;  // unsharded
  Snapshots before;  // captured at submission; empty unless sampled
};

class ItemQueue {
 public:
  void Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  std::optional<Item> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    Item item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> items_;
  bool closed_ = false;
};

struct Completion {
  std::size_t index;
  double late_ms;
  double latency_ms;
  double service_us;
  double slowest_frac;  // < 0 when not a scatter
  bool ok;
};

/// Completes one request: waits for the server's answer, or makes the
/// router call, then records it and offers a sampled answer (one whose
/// snapshots were captured, which only phases with a checker do) to
/// \p checker.
Completion Complete(Deployment& dep, Item& item, SampleChecker* checker) {
  Result<Ranking> served = Status::Internal("not run");
  double slowest = -1;
  if (item.pending.valid()) {
    served = item.pending.get();
  } else {
    ScatterResult scatter;
    served = dep.Classify(*item.query, &scatter);
    if (served.ok()) {
      const double total =
          std::chrono::duration<double, std::micro>(Clock::now() -
                                                    item.submitted)
              .count();
      const std::uint64_t worst =
          *std::max_element(scatter.shard_latency_us.begin(),
                            scatter.shard_latency_us.end());
      slowest = total > 0 ? static_cast<double>(worst) / total : 0;
    }
  }
  const Clock::time_point done = Clock::now();
  Completion c{item.index,
               MillisBetween(item.due, item.submitted),
               MillisBetween(item.due, done),
               MillisBetween(item.submitted, done) * 1000.0,
               slowest,
               served.ok()};
  if (!c.ok) c.latency_ms = kFailedLatencyMs;
  if (c.ok && !item.before.empty()) {
    if (item.before == dep.Capture()) {
      checker->Offer({item.query, std::move(item.before), std::move(*served)});
    } else {
      checker->Skip();
    }
  }
  return c;
}

/// One phase at a fixed rate: request i is due at start + i / qps.
///
/// Unsharded, the issuing thread submits each request to the server
/// without waiting, and two threads collect the answers. The router's
/// API is synchronous, so sharded, three caller threads each take the
/// next request, wait for its due time and make the call; a request due
/// while all three are busy waits, and that wait counts in its latency.
/// A phase stops issuing once its backlog passes kAbortBacklog: it has
/// failed, and stopping keeps the server's queue from overflowing.
PhaseResult RunPhase(Deployment& dep, const Inputs& in, double qps,
                     std::size_t count, std::size_t* next_request,
                     SampleChecker* checker) {
  PhaseResult out;
  out.qps = qps;
  const std::size_t first = *next_request;
  *next_request += count;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> backlog_max{0};
  std::atomic<bool> aborted{false};

  // Claims the next request, waits until it is due and stamps it; false
  // when the phase is over.
  auto issue = [&](Item* item) {
    const std::size_t i = next.fetch_add(1);
    if (i >= count || aborted.load()) return false;
    item->index = i;
    item->due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(i / qps));
    item->query = &in.pool[in.order[(first + i) % in.order.size()]];
    std::this_thread::sleep_until(item->due);
    if (checker != nullptr && (first + i) % kSampleEvery == 0) {
      item->before = dep.Capture();
    }
    item->submitted = Clock::now();
    // Requests due by now that have not completed.
    const std::size_t due_now = std::min<std::size_t>(
        count, static_cast<std::size_t>(
                   std::chrono::duration<double>(item->submitted - start)
                       .count() * qps) + 1);
    const std::size_t done = completed.load();
    const std::size_t backlog = due_now > done ? due_now - done : 0;
    std::size_t seen = backlog_max.load();
    while (backlog > seen && !backlog_max.compare_exchange_weak(seen, backlog)) {
    }
    if (backlog > kAbortBacklog) aborted.store(true);
    return true;
  };

  const std::size_t threads = dep.sharded() ? 3 : 2;
  std::vector<std::vector<Completion>> done(threads);
  std::vector<std::thread> pool;
  ItemQueue queue;  // unsharded: submitted requests awaiting collection
  if (dep.sharded()) {
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        TightenTimerSlack();
        Item item;
        while (issue(&item)) {
          done[w].push_back(Complete(dep, item, checker));
          completed.fetch_add(1);
          item = Item();
        }
      });
    }
  } else {
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        while (std::optional<Item> item = queue.Pop()) {
          done[w].push_back(Complete(dep, *item, checker));
          completed.fetch_add(1);
        }
      });
    }
    TightenTimerSlack();
    Item item;
    while (issue(&item)) {
      item.pending = dep.ClassifyAsync(*item.query);
      queue.Push(std::move(item));
      item = Item();
    }
    queue.Close();
  }
  for (std::thread& t : pool) t.join();

  std::vector<Completion> all;
  for (auto& per_thread : done) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Completion& a, const Completion& b) {
              return a.index < b.index;
            });
  for (const Completion& c : all) {
    out.late_ms.push_back(c.late_ms);
    out.latency_ms.push_back(c.latency_ms);
    out.service_us.push_back(c.service_us);
    if (c.slowest_frac >= 0) out.slowest_shard_frac.push_back(c.slowest_frac);
    if (!c.ok) ++out.failed;
  }
  out.backlog_max = backlog_max.load();
  out.aborted = aborted.load();
  return out;
}

/// One half of the capacity phase: requests kept outstanding for
/// \p windows windows of kCapacityWindowSeconds. Appends the completion
/// rate of every window but the first to \p out->capacity_rates.
void RunCapacity(Deployment& dep, const Inputs& in, std::size_t windows,
                 std::size_t* next_request, SessionResult* out) {
  const std::chrono::duration<double> window(kCapacityWindowSeconds);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  window * static_cast<double>(windows));
  std::mutex mu;
  std::vector<std::size_t> counts(windows, 0);
  std::size_t failed = 0;
  auto record = [&](Clock::time_point done, bool ok) {
    std::lock_guard<std::mutex> lock(mu);
    if (!ok) ++failed;
    if (done < end) ++counts[static_cast<std::size_t>((done - start) / window)];
  };
  std::atomic<std::size_t> next{*next_request};
  auto query = [&] {
    return &in.pool[in.order[next.fetch_add(1) % in.order.size()]];
  };

  if (dep.sharded()) {
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCapacityCallers; ++c) {
      callers.emplace_back([&] {
        while (Clock::now() < end) {
          const bool ok = dep.Classify(*query()).ok();
          record(Clock::now(), ok);
        }
      });
    }
    for (std::thread& t : callers) t.join();
  } else {
    std::deque<std::future<Result<std::vector<DomainScore>>>> outstanding;
    for (std::size_t k = 0; k < kCapacityOutstanding; ++k) {
      outstanding.push_back(dep.ClassifyAsync(*query()));
    }
    while (!outstanding.empty()) {
      const bool ok = outstanding.front().get().ok();
      outstanding.pop_front();
      const Clock::time_point done = Clock::now();
      record(done, ok);
      if (done < end) outstanding.push_back(dep.ClassifyAsync(*query()));
    }
  }
  for (std::size_t w = 1; w < windows; ++w) {
    out->capacity_rates.push_back(static_cast<double>(counts[w]) /
                                  kCapacityWindowSeconds);
  }
  out->capacity_requests += next.load() - *next_request;
  out->capacity_failed += failed;
  *next_request = next.load();
}

}  // namespace

SessionResult RunSession(Deployment& dep, const WorkloadSpec& spec,
                         const Inputs& in, double seconds) {
  SessionResult result;
  SampleChecker checker;
  std::size_t next_request = 0;
  // Capacity, with no adds and no samples beside it: the completion rate
  // with requests always outstanding.
  const std::size_t windows = std::max<std::size_t>(
      2, static_cast<std::size_t>(seconds * (1 - kReferenceShare) / 2 /
                                  kCapacityWindowSeconds));
  RunCapacity(dep, in, windows, &next_request, &result);

  const Clock::time_point start = Clock::now();

  // Adds at a fixed rate beside the reference phase, each timed from its
  // due time until readers can see the new generation. Between adds the
  // adder checks pending samples, off the readers' path.
  const std::size_t num_adds = std::min(kAddsPerRun, in.adds.size());
  const double reference_seconds = seconds * kReferenceShare;
  result.add_latency_ms.assign(num_adds, 0);
  std::thread adder([&] {
    TightenTimerSlack();
    const double interval = reference_seconds / static_cast<double>(num_adds);
    for (std::size_t k = 0; k < num_adds; ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((k + 0.5) * interval));
      std::this_thread::sleep_until(due);
      const Status added = dep.Add(in.adds[k]);
      result.add_latency_ms[k] =
          added.ok() ? MillisBetween(due, Clock::now()) : kFailedLatencyMs;
      if (!added.ok()) ++result.adds_failed;
      checker.Drain(dep, kMaxPendingSamples);
    }
  });

  result.reference = RunPhase(
      dep, in, spec.ref_qps,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(spec.ref_qps * reference_seconds)),
      &next_request, &checker);
  adder.join();

  RunCapacity(dep, in, windows, &next_request, &result);
  result.capacity_qps = Median(result.capacity_rates);

  checker.Drain(dep, SIZE_MAX);
  checker.Report(&result);

  result.attempted =
      result.reference.latency_ms.size() + num_adds + result.capacity_requests;
  result.failed =
      result.reference.failed + result.adds_failed + result.capacity_failed;
  return result;
}

}  // namespace paygo::perfbench
