// session-ladder: nproc closed-loop clients. Each opens a RetrievalSession
// (theory estimator) on a Zipf-chosen artifact from a corpus of Gray-Scott
// D_u and WarpX E_x 129^3 artifacts (4 frames each), refines 1e-1 -> 1e-2 -> 1e-3 -> 1e-4
// through RetrievalScheduler with a shared SegmentCache, then closes the
// session and opens another. A client submits its next refinement only
// after the reply to its last one arrives. The cache budget is half the
// bytes the corpus's final rungs fetch, so both hits and evictions occur.
// This is the serving path -- queueing, cache, session refinement and the
// full per-refine rebuild -- and it bypasses the DNN.

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "service/scheduler.h"
#include "service/segment_cache.h"
#include "service/service_metrics.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "workload.h"

namespace perfbench {

namespace {

using mgardp::Array3Dd;
using mgardp::RefactoredField;

constexpr int kFramesPerApp = 4;
constexpr double kRungs[] = {1e-1, 1e-2, 1e-3, 1e-4};
constexpr int kNumRungs = 4;
constexpr double kZipfS = 1.1;
// A ladder runs past its deadline until this many refinements completed,
// so even a short run has enough rebuilds to account for.
constexpr std::size_t kMinRefinements = 64;

struct Corpus {
  std::vector<Array3Dd> truth;
  std::vector<RefactoredField> fields;
  std::vector<std::string> labels;
};

mgardp::Result<Corpus> Setup(std::uint64_t seed) {
  Corpus c;
  c.truth = GrayScottDu(seed, 129, kFramesPerApp);
  for (Array3Dd& f : WarpXEx(seed, 129, kFramesPerApp)) {
    c.truth.push_back(std::move(f));
  }
  const mgardp::Refactorer refactorer;
  for (std::size_t i = 0; i < c.truth.size(); ++i) {
    MGARDP_ASSIGN_OR_RETURN(RefactoredField field,
                            refactorer.Refactor(c.truth[i]));
    c.fields.push_back(std::move(field));
    c.labels.push_back((i < kFramesPerApp ? "gray-scott D_u #" : "warpx E_x #") +
                       std::to_string(i % kFramesPerApp));
  }
  return c;
}

// Cheap content hash for the last-rung equality gate.
std::uint64_t HashArray(const Array3Dd& a) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : a.vector()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

// The fixed inputs of a run: absolute bounds per (artifact, rung) and the
// cache budget.
struct Plan {
  std::vector<std::array<double, kNumRungs>> bounds;
  std::size_t cache_budget = 0;
};

Plan MakePlan(const Corpus& c, std::uint64_t seed) {
  mgardp::Rng rng(seed ^ 0x6c61646465720000ULL);
  Plan p;
  const mgardp::TheoryEstimator theory;
  std::size_t last_rung_bytes = 0;
  for (const RefactoredField& field : c.fields) {
    std::array<double, kNumRungs> b{};
    for (int k = 0; k < kNumRungs; ++k) {
      b[k] = JitteredTolerance(&rng, kRungs[k]) * field.data_summary.range();
    }
    auto plan = mgardp::Reconstructor(&theory).Plan(field, b[kNumRungs - 1]);
    last_rung_bytes += plan.ok() ? plan.value().total_bytes : 0;
    p.bounds.push_back(b);
  }
  p.cache_budget = last_rung_bytes / 2;
  return p;
}

// One completed refinement, as the client saw it.
struct Reply {
  int artifact = 0;
  int rung = 0;
  bool noop = false;
  std::size_t bytes_in_hand = 0;  // compressed bytes the field is built from
  std::vector<int> prefix;
  std::uint64_t hash = 0;  // last rung only
};

struct LadderStats {
  std::vector<double> latency_ms;   // Submit -> callback
  std::vector<double> service_ms;   // Response::latency_ms
  std::vector<Reply> replies;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  double wall_s = 0;
  double raw_mb = 0;
  mgardp::ServiceMetrics::Snapshot snapshot;
  double estimate_ms = 0, get_ms = 0;
  std::uint64_t estimate_calls = 0, gets = 0;
};

// Runs the closed loop for `seconds`; with `traced`, the estimator and
// every backend are wrapped in timing decorators.
LadderStats RunLadder(const Corpus& c, const Plan& p, const RunOptions& o,
                      double seconds, bool traced) {
  LadderStats st;
  mgardp::ServiceMetrics metrics;
  mgardp::SegmentCache::Options cache_opts;
  cache_opts.byte_budget = p.cache_budget;
  mgardp::SegmentCache cache(cache_opts, &metrics);
  mgardp::RetrievalScheduler scheduler(&metrics);
  const mgardp::TheoryEstimator theory;
  TimedEstimator timed_theory(&theory);
  const mgardp::ErrorEstimator* estimator =
      traced ? static_cast<const mgardp::ErrorEstimator*>(&timed_theory)
             : &theory;
  std::vector<std::unique_ptr<mgardp::MemoryBackend>> memory;
  std::vector<std::unique_ptr<TimedBackend>> timed;
  std::vector<mgardp::StorageBackend*> backends;
  for (const RefactoredField& field : c.fields) {
    memory.push_back(std::make_unique<mgardp::MemoryBackend>(&field.segments));
    timed.push_back(std::make_unique<TimedBackend>(memory.back().get()));
    backends.push_back(traced ? static_cast<mgardp::StorageBackend*>(
                                    timed.back().get())
                              : memory.back().get());
  }

  struct Client {
    GoldenSequence draws{0.0};
    std::unique_ptr<mgardp::RetrievalSession> session;
    int artifact = 0;
    int rung = 0;
    int sessions = 0;
    Clock::time_point submitted;
  };
  // A client alternates applications from one session to the next and
  // draws the frame within the application by Zipf (frame 0 hottest) from
  // a seeded low-discrepancy sequence, so the seed moves the order of the
  // draws but neither the Gray-Scott/WarpX mix nor the Zipf proportions.
  const Zipf zipf(kFramesPerApp, kZipfS);
  std::vector<Client> clients(o.nproc);
  mgardp::Rng rng(o.seed * 1000003ULL);
  for (Client& cl : clients) {
    cl.draws = GoldenSequence(rng.NextDouble());
  }
  std::mutex mu;  // guards st
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::function<void(int)> submit;
  auto open = [&](int i) {
    Client& cl = clients[i];
    const int app = (cl.sessions++ + i) % 2;
    cl.artifact = app * kFramesPerApp + zipf.Index(cl.draws.Next());
    cl.rung = 0;
    cl.session = std::make_unique<mgardp::RetrievalSession>(
        "a" + std::to_string(cl.artifact), &c.fields[cl.artifact],
        backends[cl.artifact], estimator, &cache, &metrics);
    submit(i);
  };
  auto on_reply = [&](int i, const mgardp::RetrievalScheduler::Response& resp) {
    Client& cl = clients[i];
    const double latency = MsBetween(cl.submitted, Clock::now());
    Reply reply;
    reply.artifact = cl.artifact;
    reply.rung = cl.rung;
    std::string failure;
    if (!resp.status.ok() || resp.data == nullptr) {
      failure = "refine failed: " + resp.status.message();
    } else {
      const double bound = p.bounds[cl.artifact][cl.rung];
      const double err = mgardp::MaxAbsError(c.truth[cl.artifact].vector(),
                                             resp.data->vector());
      if (!(err <= bound)) {
        failure = c.labels[cl.artifact] + " rung " + std::to_string(cl.rung) +
                  ": actual error exceeds the bound";
      }
      const auto& ref = resp.refinement;
      reply.noop = ref.noop;
      reply.bytes_in_hand =
          ref.fetched_bytes + ref.cached_bytes + ref.reused_bytes;
      reply.prefix = ref.prefix;
      if (cl.rung == kNumRungs - 1) {
        reply.hash = HashArray(*resp.data);
      }
    }
    bool enough = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++st.attempted;
      st.latency_ms.push_back(latency);
      st.service_ms.push_back(resp.latency_ms);
      st.raw_mb += RawMb(c.truth[cl.artifact]);
      if (!failure.empty()) {
        st.failures.push_back(failure);
      } else {
        st.replies.push_back(std::move(reply));
      }
      enough = st.latency_ms.size() >= kMinRefinements;
    }
    if ((enough && Clock::now() >= deadline) || !failure.empty()) {
      cl.session.reset();
      return;
    }
    if (++cl.rung == kNumRungs) {
      cl.session.reset();
      open(i);
    } else {
      submit(i);
    }
  };
  submit = [&](int i) {
    Client& cl = clients[i];
    mgardp::RetrievalScheduler::Request req;
    req.session = cl.session.get();
    req.error_bound = p.bounds[cl.artifact][cl.rung];
    cl.submitted = Clock::now();
    const mgardp::Status s = scheduler.Submit(
        req, [&, i](const mgardp::RetrievalScheduler::Response& resp) {
          on_reply(i, resp);
        });
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      ++st.attempted;
      st.failures.push_back("submit rejected: " + s.message());
    }
  };
  for (int i = 0; i < o.nproc; ++i) {
    open(i);
  }
  scheduler.Drain();
  st.wall_s = SecondsSince(start);
  st.snapshot = metrics.snapshot();
  st.estimate_ms = timed_theory.ms();
  st.estimate_calls = timed_theory.calls();
  for (const auto& b : timed) {
    st.get_ms += b->ms();
    st.gets += b->gets();
  }
  return st;
}

// Gate: every session's last rung equals ReconstructFromPrefix at the same
// prefix. References are computed once per distinct (artifact, prefix).
void CheckLastRungs(const Corpus& c, const LadderStats& st, Results* r) {
  std::map<std::pair<int, std::vector<int>>, std::uint64_t> reference;
  for (const Reply& reply : st.replies) {
    if (reply.rung != kNumRungs - 1) {
      continue;
    }
    auto key = std::make_pair(reply.artifact, reply.prefix);
    auto it = reference.find(key);
    if (it == reference.end()) {
      auto data = mgardp::ReconstructFromPrefix(c.fields[reply.artifact],
                                                reply.prefix);
      it = reference.emplace(key, data.ok() ? HashArray(data.value()) : 0)
               .first;
    }
    r->Check(it->second == reply.hash,
             c.labels[reply.artifact] +
                 ": last rung differs from ReconstructFromPrefix");
  }
}

void AddLadderChecks(const LadderStats& st, Results* r) {
  const std::size_t ok = st.attempted - st.failures.size();
  for (std::size_t i = 0; i < ok; ++i) {
    r->Check(true, "");
  }
  for (const std::string& f : st.failures) {
    r->Check(false, f);
  }
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void Untraced(const RunOptions& o, const Corpus& c, const Plan& p,
              Results* r) {
  const LadderStats st = RunLadder(c, p, o, o.seconds, /*traced=*/false);
  AddLadderChecks(st, r);
  CheckLastRungs(c, st, r);
  const std::size_t n = st.latency_ms.size();
  double in_hand = 0;
  for (const Reply& reply : st.replies) {
    in_hand += static_cast<double>(reply.bytes_in_hand);
  }
  const double raw_bytes = st.raw_mb * 1e6;
  r->Add("mbps", st.wall_s > 0 ? st.raw_mb / st.wall_s : 0.0, "MB/s", n);
  r->Add("p50_ms", Median(st.latency_ms), "ms", n);
  r->Add("byte_ratio", raw_bytes > 0 ? in_hand / raw_bytes : 0.0, "ratio");
  r->Detail("backend_byte_ratio",
            raw_bytes > 0
                ? static_cast<double>(st.snapshot.fetched_bytes) / raw_bytes
                : 0.0,
            "ratio");
  r->Detail("refine_rps", st.wall_s > 0 ? n / st.wall_s : 0.0, "1/s", n);
  r->Detail("refine_p50_ms", Median(st.latency_ms), "ms", n);
  const int tail = TailPercentile(n);
  if (tail > 50) {
    r->Detail("refine_p" + std::to_string(tail) + "_ms",
              Percentile(st.latency_ms, tail), "ms", n);
  }
  r->Detail("service.cache_hit_rate", st.snapshot.cache_hit_rate(), "ratio");
  r->Detail("service.cache_evictions",
            static_cast<double>(st.snapshot.cache_evictions), "count");
}

void Traced(const RunOptions& o, const Corpus& c, const Plan& p,
            Results* r) {
  // Untraced and traced halves of the run, fresh cache and metrics each.
  const LadderStats plain = RunLadder(c, p, o, o.seconds / 2, false);
  const LadderStats st = RunLadder(c, p, o, o.seconds / 2, true);
  AddLadderChecks(plain, r);
  AddLadderChecks(st, r);
  CheckLastRungs(c, plain, r);
  CheckLastRungs(c, st, r);

  TracedLayers layers;
  const std::size_t n = st.latency_ms.size();
  const double sum_latency = Mean(st.latency_ms) * static_cast<double>(n);
  const double sum_service = Mean(st.service_ms) * static_cast<double>(n);
  const double per = 1.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  layers.untraced_ms = Mean(plain.latency_ms);
  layers.traced_ms = Mean(st.latency_ms);
  const double queue_wait = (sum_latency - sum_service) * per;
  const double service = sum_service * per;
  const double estimate = st.estimate_ms * per;
  const double get = st.get_ms * per;

  // Each non-noop refinement rebuilds its whole prefix inside a pool
  // worker, where nested parallel loops run inline, next to the other
  // clients' rebuilds. Replay every distinct (artifact, prefix) once the
  // same way -- nproc threads side by side, each with the 1-thread pool --
  // and weight it by its count.
  std::map<std::pair<int, std::vector<int>>, int> rebuilds;
  for (const Reply& reply : st.replies) {
    if (!reply.noop) {
      ++rebuilds[{reply.artifact, reply.prefix}];
    }
  }
  struct Replayed {
    const std::pair<int, std::vector<int>>* key = nullptr;
    int count = 0;
    LayerTimes read;
    bool identical = false;
  };
  std::vector<Replayed> replayed;
  for (const auto& [key, count] : rebuilds) {
    replayed.push_back({&key, count, {}, false});
  }
  mgardp::SetGlobalThreadCount(1);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < o.nproc; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t k = t; k < replayed.size(); k += o.nproc) {
          Replayed& rep = replayed[k];
          const RefactoredField& field = c.fields[rep.key->first];
          auto replay = ReplayReconstruct(field, field.segments,
                                          rep.key->second, &rep.read);
          auto reference =
              mgardp::ReconstructFromPrefix(field, rep.key->second);
          rep.identical = replay.ok() && reference.ok() &&
                          ArraysIdentical(replay.value(), reference.value());
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }
  mgardp::SetGlobalThreadCount(o.nproc);
  std::pair<int, std::vector<int>> most_common;
  int most = 0;
  for (const Replayed& rep : replayed) {
    r->Check(rep.identical, c.labels[rep.key->first] +
                                ": rebuild replay differs from "
                                "ReconstructFromPrefix");
    for (int k = 0; k < rep.count; ++k) {
      layers.read += rep.read;
    }
    layers.read_ops += rep.count;
    if (rep.count > most) {
      most = rep.count;
      most_common = *rep.key;
    }
  }
  if (most > 0) {
    const RefactoredField& field = c.fields[most_common.first];
    mgardp::SetGlobalThreadCount(1);
    auto one = ReplayReconstruct(field, field.segments, most_common.second,
                                 &layers.read_1);
    mgardp::SetGlobalThreadCount(o.nproc);
    auto many = ReplayReconstruct(field, field.segments, most_common.second,
                                  &layers.read_n);
    r->Check(one.ok() && many.ok(), "read replay failed");
  }

  // The write path ran in set-up: replay one artifact of each application.
  const mgardp::Refactorer refactorer;
  for (std::size_t i : {std::size_t{0}, std::size_t{kFramesPerApp}}) {
    for (int threads : {o.nproc, 1}) {
      mgardp::SetGlobalThreadCount(threads);
      auto replay = ReplayRefactor(
          c.truth[i], refactorer.options(),
          threads == o.nproc ? &layers.write_n : &layers.write_1);
      const std::string diff = replay.ok()
                                   ? DiffFields(c.fields[i], replay.value())
                                   : replay.status().message();
      r->Check(diff.empty(), c.labels[i] + ": refactor replay differs: " + diff);
    }
    ++layers.write_ops;
  }
  mgardp::SetGlobalThreadCount(o.nproc);
  // A refinement's time is its queue wait, its estimator and backend calls
  // (from the decorators) and its rebuild (from the replays); planning
  // glue, cache bookkeeping and the audit record are the unaccounted rest.
  layers.accounted_ms = queue_wait + estimate + get + layers.read.ReadMs() * per;
  ReportLayers(layers, r);

  const auto& s = st.snapshot;
  r->Detail("service.queue_wait_ms", queue_wait, "ms", n);
  r->Detail("service.service_ms", service, "ms", n);
  r->Detail("service.rebuild_ms", std::max(0.0, service - estimate - get),
            "ms", n);
  r->Detail("models.estimate_ms", estimate, "ms", n);
  r->Detail("models.estimate_us_per_call",
            st.estimate_calls
                ? 1e3 * st.estimate_ms / static_cast<double>(st.estimate_calls)
                : 0.0,
            "us", n);
  r->Detail("progressive.estimate_calls",
            static_cast<double>(st.estimate_calls) * per, "count", n);
  r->Detail("storage.backend_get_ms", get, "ms", n);
  r->Detail("storage.backend_gets", static_cast<double>(st.gets) * per,
            "count", n);
  r->Detail("service.cache_hit_rate", s.cache_hit_rate(), "ratio");
  r->Detail("service.cache_evictions", static_cast<double>(s.cache_evictions),
            "count");
  r->Detail("service.single_flight_shared",
            static_cast<double>(s.single_flight_shared), "count");
  r->Detail("service.planes_fetched", static_cast<double>(s.planes_fetched),
            "count");
  r->Detail("service.planes_reused", static_cast<double>(s.planes_reused),
            "count");
  r->Detail("service.fetched_bytes", static_cast<double>(s.fetched_bytes),
            "B");
  r->Detail("service.noop_refinements",
            static_cast<double>(s.noop_refinements), "count");
}

}  // namespace

void RunSessionLadder(const RunOptions& o, Results* r) {
  std::vector<double> setup_s;
  auto corpus = RepeatedSetup(o.trace ? 1 : kSetupRepeats,
                              [&] { return Setup(o.seed); }, &setup_s);
  r->Check(corpus.ok(), "set-up failed: " + corpus.status().message());
  if (!corpus.ok()) {
    return;
  }
  const Plan plan = MakePlan(corpus.value(), o.seed);
  r->Detail("cache_budget_bytes", static_cast<double>(plan.cache_budget), "B");
  if (o.trace) {
    Traced(o, corpus.value(), plan, r);
  } else {
    r->Add("setup_s", Median(setup_s), "s", setup_s.size());
    Untraced(o, corpus.value(), plan, r);
    r->Add("peak_rss_mb", PeakRssMb(), "MB");
  }
}

}  // namespace perfbench
