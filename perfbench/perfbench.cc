// perfbench: the repository benchmark driver.
//
// Generates one dispatch workload from a seed, drives the engine only
// through its public API, checks the engine's outputs, and prints one JSON
// line of metrics: end-to-end metrics from an untraced run (--trace 0) or
// per-layer metrics from a traced run (--trace 1). Spans are recorded here,
// around calls into each layer, never inside src/. Metric definitions and
// the reason for each workload are in README.md next to this file.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out_dir DIR
//   perfbench --workload NAME --seed N --digest_only
//   perfbench --selftest --out_dir DIR

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "graph/ch_graph.h"
#include "graph/ch_preprocessor.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "obs/version.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "spans.h"

namespace perfbench {
namespace {

using ptar::BatchStats;
using ptar::CommitRecord;
using ptar::DistanceBackend;
using ptar::Engine;
using ptar::EngineOptions;
using ptar::GridIndex;
using ptar::MatchContext;
using ptar::Matcher;
using ptar::MatchResult;
using ptar::MatchStats;
using ptar::Option;
using ptar::Request;
using ptar::RequestId;
using ptar::RoadNetwork;
using Stream = std::span<const Request>;

// --- Workload definitions (README.md says why each exists). ---

constexpr int kCityRows = 100;
constexpr int kCityCols = 100;
constexpr double kSpacingMeters = 120.0;
constexpr double kCellMeters = 300.0;
constexpr double kSsaFraction = 0.16;
constexpr int kCapacity = 4;
constexpr int kWaveSize = 16;
/// Demand is drawn from a pool this many times the stream's size. The pool
/// is generated with one fixed seed, so where the hotspots sit is part of a
/// workload's definition; the run seed picks the riders from the pool and
/// perturbs the city and the fleet's start. Hotspots drawn per seed made
/// requests/s differ by a third between seeds.
constexpr std::size_t kDemandPoolFactor = 8;
constexpr std::uint64_t kLayoutSeed = 7;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Workers of the traced run's thread-pool replay, which must commit what
/// the measured worker count commits and gives common.pool_speedup.
constexpr int kPoolWorkers = 2;
/// Largest tolerated gap between the per-request wall time and the sum of
/// the advance, match and commit self times on serial workloads.
constexpr double kSelfTimeTolerance = 0.05;

enum class Loop { kSerial, kPipeline };

struct WorkloadSpec {
  const char* name;
  Loop loop;
  DistanceBackend backend;
  int vehicles;
  std::size_t requests;
  double duration_s;
  int hotspots;
  double epsilon;
  double wait_minutes;
  int workers;  ///< Pipeline matcher workers; 1 for the serial loop.
  /// Independent rider samples per run, each replayed on a fresh engine.
  int episodes;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"dijkstra-default", Loop::kSerial, DistanceBackend::kDijkstra, 1000,
     1000, 300.0, 4, 0.2, 2.0, 1, 1},
    // One worker, three episodes and w = 2 min. With two or more workers a
    // wave waits for its slowest worker, so co-tenant load on a shared host
    // lands in the tail: three busy co-tenant threads on a 4-cpu host
    // doubled p99 at two workers and left it unchanged at one. Commits are
    // the same at every worker count. With one or two episodes the replay
    // is short, and host speed drifting over tens of seconds moved p99 by
    // up to 35% between runs; more than three do not fit the time budget
    // of all runs. At w = 4 min some seeds grow large kinetic trees and p99
    // spread 40%.
    {"pipeline-conflict", Loop::kPipeline, DistanceBackend::kCH, 1000, 1000,
     375.0, 3, 0.2, 2.0, 1, 3},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Share(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent seed for one input stream (city, demand, fleet) of a run.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(SplitMix64(seed) + stream);
}

// --- Host and build guard. ---

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

/// Why this binary must not be timed, or nullptr. Debug builds also turn
/// EngineOptions::audit_after_commit on, which changes the work measured.
const char* BuildRefusal() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "unoptimised build (needs -O and -DNDEBUG)";
#elif defined(PERFBENCH_SANITIZED)
  return "sanitizer build";
#else
  return nullptr;
#endif
}

struct HostInfo {
  int nproc = 1;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string git_describe = ptar::obs::GitDescribe();
};

HostInfo ProbeHost() {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? CPU_COUNT(&set)
                   : static_cast<int>(std::thread::hardware_concurrency());
  return host;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// --- Inputs and their representation-neutral digest. ---

/// FNV-1a over integers. Inputs are hashed after rounding to fixed units
/// (cm, 0.1 m, ms), so a change of storage type that keeps the workload
/// keeps the digest, while any change to what is generated alters it.
class Digest {
 public:
  void Add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v, double scale) {
    Add(std::isfinite(v) ? static_cast<std::int64_t>(std::llround(v * scale))
                         : INT64_MAX);
  }
  void Add(std::string_view s) {
    Add(static_cast<std::int64_t>(s.size()));
    for (const char c : s) Add(static_cast<std::int64_t>(c));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Inputs {
  RoadNetwork graph;
  /// One stream per episode, sorted by submit time, ids 0..n-1.
  std::vector<std::vector<Request>> episodes;
  EngineOptions engine;
  std::string digest;
};

std::string InputDigest(const WorkloadSpec& w, const Inputs& in) {
  Digest d;
  d.Add(std::string_view("perfbench-inputs-v1"));
  d.Add(std::string_view(w.name));
  d.Add(static_cast<std::int64_t>(in.graph.num_vertices()));
  for (ptar::VertexId v = 0; v < in.graph.num_vertices(); ++v) {
    d.Add(in.graph.position(v).x, 100.0);
    d.Add(in.graph.position(v).y, 100.0);
  }
  d.Add(static_cast<std::int64_t>(in.graph.num_edges()));
  for (ptar::EdgeId e = 0; e < in.graph.num_edges(); ++e) {
    d.Add(static_cast<std::int64_t>(in.graph.EdgeU(e)));
    d.Add(static_cast<std::int64_t>(in.graph.EdgeV(e)));
    d.Add(in.graph.EdgeWeight(e), 10.0);
  }
  for (const std::vector<Request>& episode : in.episodes) {
    d.Add(static_cast<std::int64_t>(episode.size()));
    for (const Request& r : episode) {
      d.Add(static_cast<std::int64_t>(r.id));
      d.Add(static_cast<std::int64_t>(r.start));
      d.Add(static_cast<std::int64_t>(r.destination));
      d.Add(static_cast<std::int64_t>(r.riders));
      d.Add(r.max_wait_dist, 10.0);
      d.Add(r.epsilon, 1e6);
      d.Add(r.submit_time, 1e3);
    }
  }
  const EngineOptions& o = in.engine;
  d.Add(static_cast<std::int64_t>(o.num_vehicles));
  d.Add(static_cast<std::int64_t>(o.vehicle_capacity));
  d.Add(o.speed_mps, 1e3);
  d.Add(o.tick_seconds, 1e3);
  d.Add(static_cast<std::int64_t>(o.policy));
  d.Add(static_cast<std::int64_t>(o.seed));
  d.Add(static_cast<std::int64_t>(o.threads));
  d.Add(static_cast<std::int64_t>(o.engine_threads));
  d.Add(static_cast<std::int64_t>(o.wave_size));
  d.Add(static_cast<std::int64_t>(o.max_rematch_rounds));
  d.Add(static_cast<std::int64_t>(o.distance_backend));
  d.Add(static_cast<std::int64_t>(o.overload.request_budget));
  d.Add(o.overload.deadline_ms, 1e3);
  d.Add(o.overload.slo_p99_us, 1.0);
  d.Add(o.telemetry.window_seconds, 1e3);
  d.Add(static_cast<std::int64_t>(o.audit_after_commit));
  d.Add(static_cast<std::int64_t>(o.prune));
  d.Add(static_cast<std::int64_t>(o.tree_max_branches));
  d.Add(kCellMeters, 10.0);
  d.Add(kSsaFraction, 1e6);
  d.Add(static_cast<std::int64_t>(w.loop));
  return d.Hex();
}

/// `count` requests drawn without replacement from `pool` (a partial
/// Fisher-Yates shuffle on SplitMix64, so the draw does not depend on the
/// standard library), kept in submit-time order and renumbered 0..count-1.
std::vector<Request> SampleRequests(const std::vector<Request>& pool,
                                    std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> index(pool.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < count; ++i) {
    state = SplitMix64(state);
    std::swap(index[i], index[i + state % (index.size() - i)]);
  }
  index.resize(count);
  std::sort(index.begin(), index.end());
  std::vector<Request> requests;
  requests.reserve(count);
  for (const std::size_t i : index) {
    requests.push_back(pool[i]);
    requests.back().id = static_cast<RequestId>(requests.size() - 1);
  }
  return requests;
}

Inputs MakeInputs(const WorkloadSpec& w, std::uint64_t seed,
                  int city_rows = kCityRows, int city_cols = kCityCols) {
  ptar::GridCityOptions city;
  city.rows = city_rows;
  city.cols = city_cols;
  city.spacing_meters = kSpacingMeters;
  city.seed = SubSeed(seed, 1);
  auto graph = ptar::MakeGridCity(city);
  if (!graph.ok()) Die("MakeGridCity: " + graph.status().ToString());

  ptar::WorkloadOptions demand;
  demand.num_requests = w.requests * kDemandPoolFactor;
  demand.duration_seconds = w.duration_s;
  demand.num_hotspots = w.hotspots;
  demand.epsilon = w.epsilon;
  demand.waiting_minutes = w.wait_minutes;
  demand.seed = kLayoutSeed;
  auto pool = ptar::GenerateWorkload(*graph, demand);
  if (!pool.ok()) Die("GenerateWorkload: " + pool.status().ToString());

  Inputs in{std::move(graph).value(), {}, {}, {}};
  for (int e = 0; e < w.episodes; ++e) {
    in.episodes.push_back(
        SampleRequests(*pool, w.requests, SubSeed(seed, 100 + e)));
  }
  in.engine.num_vehicles = w.vehicles;
  in.engine.vehicle_capacity = kCapacity;
  in.engine.seed = SubSeed(seed, 3);
  in.engine.distance_backend = w.backend;
  in.engine.audit_after_commit = false;
  in.engine.engine_threads = w.workers;
  in.engine.wave_size = w.loop == Loop::kPipeline ? kWaveSize : 0;
  in.digest = InputDigest(w, in);
  return in;
}

// --- Engine set-up. ---

struct World {
  std::unique_ptr<GridIndex> grid;  // Declared first: the engine uses it.
  std::unique_ptr<Engine> engine;
  double setup_s = 0.0;
};

/// GridIndex::Build plus the Engine constructor: what setup_s measures.
World SetUp(const Inputs& in, Tracer& tracer,
            const EngineOptions* override_options = nullptr) {
  World world;
  const auto begin = Clock::now();
  {
    ScopedSpan span(tracer, "grid.build", -1, -1);
    auto grid = GridIndex::Build(&in.graph, {.cell_size_meters = kCellMeters});
    if (!grid.ok()) Die("GridIndex::Build: " + grid.status().ToString());
    world.grid = std::make_unique<GridIndex>(std::move(grid).value());
  }
  {
    ScopedSpan span(tracer, "sim.engine_init", -1, -1);
    world.engine = std::make_unique<Engine>(
        &in.graph, world.grid.get(),
        override_options != nullptr ? *override_options : in.engine);
  }
  world.setup_s = Seconds(Clock::now() - begin);
  return world;
}

// --- Match decorator and what it collects. ---

/// One Matcher::Match call as seen from outside the matcher.
struct MatchCall {
  RequestId request = 0;
  MatchStats stats;
  BatchStats batch;  ///< Oracle batch-stat delta across the call.
  std::size_t options = 0;
  bool complete = true;
};

/// Options finite, sorted by pickup, and pairwise non-dominated.
bool WellFormedSkyline(std::span<const Option> options) {
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (!std::isfinite(options[i].pickup_dist) ||
        !std::isfinite(options[i].price)) {
      return false;
    }
    if (i > 0 && options[i].pickup_dist < options[i - 1].pickup_dist) {
      return false;
    }
    for (std::size_t j = 0; j < options.size(); ++j) {
      if (i != j && ptar::Dominates(options[i], options[j])) return false;
    }
  }
  return true;
}

BatchStats Minus(const BatchStats& after, const BatchStats& before) {
  BatchStats d;
  d.batch_calls = after.batch_calls - before.batch_calls;
  d.sweeps = after.sweeps - before.sweeps;
  d.pairs_requested = after.pairs_requested - before.pairs_requested;
  d.pairs_from_cache = after.pairs_from_cache - before.pairs_from_cache;
  d.pairs_swept = after.pairs_swept - before.pairs_swept;
  d.warm_hits = after.warm_hits - before.warm_hits;
  return d;
}

/// Thread-safe sink for match calls (pipeline workers record concurrently).
class Collector {
 public:
  void Add(const Request& request, const MatchResult& result,
           const BatchStats& batch) {
    const bool well_formed = WellFormedSkyline(result.options);
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({request.id, result.stats, batch, result.options.size(),
                      result.complete});
    if (!well_formed) malformed_.push_back(request.id);
  }
  std::vector<MatchCall> TakeCalls() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(calls_, {});
  }
  std::vector<RequestId> TakeMalformed() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(malformed_, {});
  }

 private:
  std::mutex mu_;
  std::vector<MatchCall> calls_;       // Guarded by mu_.
  std::vector<RequestId> malformed_;  // Guarded by mu_.
};

/// Forwards to SSA, the committing matcher of every workload, and records
/// a span and the call's counters. name() stays "SSA" so the engine's own
/// metric names are those of an undecorated run. `delay` is added inside
/// the span; only the layer-attribution self-test sets it.
class MeasuredMatcher final : public Matcher {
 public:
  MeasuredMatcher(Tracer* tracer, Collector* sink,
                  std::chrono::microseconds delay)
      : tracer_(tracer), sink_(sink), delay_(delay) {}

  std::string name() const override { return ssa_.name(); }

  MatchResult Match(const Request& request, MatchContext& ctx) override {
    const BatchStats before = ctx.oracle->batch_stats();
    MatchResult result;
    {
      ScopedSpan span(*tracer_, "rideshare.match", request.id,
                      tracer_->ambient());
      if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
      result = ssa_.Match(request, ctx);
    }
    sink_->Add(request, result, Minus(ctx.oracle->batch_stats(), before));
    return result;
  }

 private:
  ptar::SsaMatcher ssa_{kSsaFraction};
  Tracer* tracer_;
  Collector* sink_;
  std::chrono::microseconds delay_;
};

// --- Replay: the closed loop from one client. ---

struct Replay {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< One sample per request.
  std::vector<double> wave_ms;     ///< Pipeline: one per RunPipelined call.
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;  ///< Includes shed requests.
  std::uint64_t shed = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t serial_rematches = 0;
  std::vector<CommitRecord> commits;  ///< In request-id order.
  /// Committed vehicle's KineticTree::num_branches() after each commit.
  std::vector<double> branches;
  std::vector<MatchCall> calls;
  std::vector<RequestId> malformed;
  std::size_t tree_bytes = 0;
  ptar::AuditReport audit;
};

void ReplaySerial(Stream requests, Engine& engine, Tracer& tracer,
                  Matcher& matcher, Replay& out) {
  Matcher* matchers[] = {&matcher};
  for (const Request& r : requests) {
    const auto begin = Clock::now();
    Engine::RequestOutcome outcome;
    {
      ScopedSpan request_span(tracer, "sim.request", r.id, -1);
      {
        ScopedSpan span(tracer, "sim.advance", r.id, request_span.id());
        engine.AdvanceTo(r.submit_time);
      }
      {
        ScopedSpan span(tracer, "sim.process", r.id, request_span.id());
        tracer.set_ambient(span.id());
        outcome = engine.ProcessRequest(r, matchers);
      }
    }
    out.latency_ms.push_back(Seconds(Clock::now() - begin) * 1e3);
    CommitRecord record{.request = r.id, .shed = outcome.shed};
    if (outcome.served) {
      ++out.served;
      record.served = true;
      record.vehicle = outcome.chosen.vehicle;
      record.pickup_dist = outcome.chosen.pickup_dist;
      record.price = outcome.chosen.price;
      out.branches.push_back(static_cast<double>(
          engine.fleet()[outcome.chosen.vehicle].num_branches()));
    } else {
      ++out.unserved;
      if (outcome.shed) ++out.shed;
    }
    out.commits.push_back(record);
  }
}

/// Feeds the stream one wave per RunPipelined call, so each call's wall
/// time is the latency of every request in its wave.
void ReplayPipelined(Stream all, Engine& engine, Tracer& tracer,
                     const ptar::MatcherFactory& factory, Replay& out) {
  const auto wave = static_cast<std::size_t>(engine.ResolvedWaveSize());
  for (std::size_t i = 0; i < all.size(); i += wave) {
    const auto chunk = all.subspan(i, std::min(wave, all.size() - i));
    std::vector<CommitRecord> log;
    ptar::RunStats stats;
    const auto begin = Clock::now();
    {
      ScopedSpan span(tracer, "sim.wave", chunk.front().id, -1);
      tracer.set_ambient(span.id());
      stats = engine.RunPipelined(chunk, factory, &log);
    }
    const double ms = Seconds(Clock::now() - begin) * 1e3;
    out.wave_ms.push_back(ms);
    out.latency_ms.insert(out.latency_ms.end(), chunk.size(), ms);
    out.served += stats.served;
    out.unserved += stats.unserved;
    out.shed += stats.shed_requests;
    out.conflicts += stats.conflicts;
    out.rematches += stats.rematches;
    out.serial_rematches += stats.serial_rematches;
    for (const CommitRecord& record : log) {
      if (record.served) {
        out.branches.push_back(static_cast<double>(
            engine.fleet()[record.vehicle].num_branches()));
      }
      out.commits.push_back(record);
    }
  }
}

Replay RunReplay(const WorkloadSpec& w, Stream requests, Engine& engine,
                 Tracer& tracer,
                 std::chrono::microseconds match_delay = {}) {
  Replay out;
  Collector sink;
  const auto begin = Clock::now();
  if (w.loop == Loop::kSerial) {
    MeasuredMatcher matcher(&tracer, &sink, match_delay);
    ReplaySerial(requests, engine, tracer, matcher, out);
  } else {
    ReplayPipelined(
        requests, engine, tracer,
        [&] {
          return std::make_unique<MeasuredMatcher>(&tracer, &sink,
                                                   match_delay);
        },
        out);
  }
  out.wall_s = Seconds(Clock::now() - begin);
  tracer.set_ambient(-1);
  out.calls = sink.TakeCalls();
  out.malformed = sink.TakeMalformed();
  out.tree_bytes = engine.KineticTreeMemoryBytes();
  out.audit = engine.AuditFleet();
  return out;
}

struct WholeStream {
  std::vector<CommitRecord> commits;
  double wall_s = 0.0;  ///< Of the RunPipelined call; set-up excluded.
};

/// One RunPipelined call over the whole stream, with plain SSA.
WholeStream RunWholeStream(const Inputs& in, Stream requests, int workers) {
  EngineOptions options = in.engine;
  options.engine_threads = workers;
  Tracer off(false);
  World world = SetUp(in, off, &options);
  WholeStream out;
  const auto begin = Clock::now();
  world.engine->RunPipelined(
      requests,
      [] { return std::make_unique<ptar::SsaMatcher>(kSsaFraction); },
      &out.commits);
  out.wall_s = Seconds(Clock::now() - begin);
  return out;
}

// --- Checks. ---

struct Checks {
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// The last call per request is the one whose answer the engine committed
/// (a pipeline re-match always runs after the call it supersedes).
std::map<RequestId, const MatchCall*> CommittingCalls(const Replay& r) {
  std::map<RequestId, const MatchCall*> last;
  for (const MatchCall& c : r.calls) last[c.request] = &c;
  return last;
}

void CheckReplay(Stream requests, const Replay& r, const std::string& label,
                 Checks& checks) {
  const std::string tag = label + ": ";
  const std::size_t n = requests.size();
  checks.Expect(r.served + r.unserved == n,
                tag + "served + unserved != attempted");
  checks.Expect(r.commits.size() == n, tag + "one commit record per request");
  for (std::size_t i = 0; i < r.commits.size() && i < n; ++i) {
    if (r.commits[i].request != requests[i].id) {
      checks.Expect(false, tag + "commit records out of request order");
      break;
    }
  }
  checks.Expect(r.audit.ok(),
                tag + "AuditFleet findings: " +
                    (r.audit.ok() ? "" : r.audit.findings.front()));
  checks.Expect(r.malformed.empty(),
                tag + "option set not finite, sorted and non-dominated");
  checks.Expect(CommittingCalls(r).size() + r.shed == n,
                tag + "a matched request has no Match call");
}

// --- Metrics. ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
};

std::string FormatMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    if (m.integer) {
      std::snprintf(value, sizeof(value), "%llu",
                    static_cast<unsigned long long>(m.value));
    } else {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

/// Exact integer counts that repeat bit-for-bit for a given seed.
struct Counts {
  std::uint64_t compdists = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t verified = 0;
  std::uint64_t options = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t rematches = 0;
  std::uint64_t unserved = 0;

  Counts& operator+=(const Counts& o) {
    compdists += o.compdists;
    sweeps += o.sweeps;
    verified += o.verified;
    options += o.options;
    conflicts += o.conflicts;
    rematches += o.rematches;
    unserved += o.unserved;
    return *this;
  }
  friend bool operator==(const Counts&, const Counts&) = default;
};

Counts CountsOf(const Replay& r) {
  Counts c;
  for (const MatchCall& call : r.calls) {
    c.compdists += call.stats.compdists;
    c.sweeps += call.batch.sweeps;
    c.verified += call.stats.verified_vehicles;
  }
  for (const auto& [id, call] : CommittingCalls(r)) c.options += call->options;
  c.conflicts = r.conflicts;
  c.rematches = r.rematches;
  c.unserved = r.unserved;
  return c;
}

std::vector<Metric> EndToEndMetrics(const std::vector<Replay>& replays,
                                    const std::vector<double>& setups) {
  double wall = 0.0;
  double attempted = 0.0;
  double served = 0.0;
  double options = 0.0;
  std::vector<double> latency;
  for (const Replay& r : replays) {
    wall += r.wall_s;
    attempted += static_cast<double>(r.commits.size());
    served += static_cast<double>(r.served);
    options += static_cast<double>(CountsOf(r).options);
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  return {
      {"setup_s", Median(setups), "s"},
      {"requests_per_s", attempted / wall, "1/s"},
      {"latency_p50_ms", Percentile(latency, 50), "ms"},
      {"latency_p99_ms", Percentile(latency, 99), "ms"},
      {"served_share", served / attempted, "ratio"},
      {"options_per_request", options / attempted, "count/request"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Span durations and self times (µs) of every span named `name`.
struct SpanTimes {
  std::vector<double> total;
  std::vector<double> self;
};

SpanTimes TimesOf(const std::vector<Span>& spans,
                  const std::vector<double>& cover, std::string_view name) {
  SpanTimes t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      t.total.push_back(spans[i].micros());
      t.self.push_back(spans[i].micros() - cover[i]);
    }
  }
  return t;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

struct TracedFacts {
  std::size_t grid_bytes = 0;
  std::size_t ch_bytes = 0;
  double untraced_wall_s = 0.0;
  /// Pipeline: whole-stream wall at the workload's worker count over that
  /// at kPoolWorkers; 0 on serial workloads.
  double pool_speedup = 0.0;
};

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& w, const Inputs& in,
                                    const Replay& r,
                                    const std::vector<Span>& spans,
                                    const TracedFacts& facts,
                                    Checks& checks) {
  const std::vector<double> cover = ChildCoverMicros(spans);
  const auto first_s = [&](std::string_view name) {
    const SpanTimes t = TimesOf(spans, cover, name);
    return t.total.empty() ? 0.0 : t.total.front() / 1e6;
  };
  const SpanTimes advance = TimesOf(spans, cover, "sim.advance");
  const SpanTimes match = TimesOf(spans, cover, "rideshare.match");
  const SpanTimes process = TimesOf(spans, cover, "sim.process");
  const SpanTimes request = TimesOf(spans, cover, "sim.request");
  const SpanTimes wave = TimesOf(spans, cover, "sim.wave");

  if (w.loop == Loop::kSerial) {
    const double parts =
        Sum(advance.self) + Sum(match.self) + Sum(process.self);
    const double whole = Sum(request.total);
    checks.Expect(std::abs(parts - whole) <= kSelfTimeTolerance * whole,
                  "advance + match + commit self times miss the traced "
                  "per-request wall time by more than 5%");
  }

  // Match time of calls a later call for the same request superseded.
  std::map<std::int64_t, std::vector<double>> match_by_request;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "rideshare.match") {
      match_by_request[s.request].push_back(s.micros());
    }
  }
  double wasted_us = 0.0;
  for (const auto& [id, calls] : match_by_request) {
    wasted_us += Sum(calls) - calls.back();
  }
  double wave_serial_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "sim.wave") {
      wave_serial_us += spans[i].micros() - cover[i];
    }
  }
  const double wave_us = Sum(wave.total);
  const bool pipeline = w.loop == Loop::kPipeline;

  const Counts counts = CountsOf(r);
  MatchStats stats;
  BatchStats batch;
  std::uint64_t incomplete = 0;
  for (const MatchCall& c : r.calls) {
    stats.Accumulate(c.stats);
    batch.MergeFrom(c.batch);
  }
  for (const auto& [id, call] : CommittingCalls(r)) {
    if (!call->complete) ++incomplete;
  }
  const double n = static_cast<double>(r.commits.size());
  const auto per_request = [n](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  const double samples = static_cast<double>(r.latency_ms.size());

  return {
      {"grid.build_s", first_s("grid.build"), "s"},
      {"sim.engine_init_s", first_s("sim.engine_init"), "s"},
      {"graph.ch_build_s", first_s("graph.ch_build"), "s"},
      {"grid.mb", static_cast<double>(facts.grid_bytes) / 1e6, "MB"},
      {"graph.ch_mb", static_cast<double>(facts.ch_bytes) / 1e6, "MB"},
      {"sim.advance_us.p50", Percentile(advance.self, 50), "us"},
      {"sim.advance_us.p99", Percentile(advance.self, 99), "us"},
      {"rideshare.match_us.p50", Percentile(match.self, 50), "us"},
      {"rideshare.match_us.p99", Percentile(match.self, 99), "us"},
      {"sim.commit_us.p50", Percentile(process.self, 50), "us"},
      {"sim.commit_us.p99", Percentile(process.self, 99), "us"},
      {"graph.sweeps_per_request", per_request(batch.sweeps), "count/request"},
      {"graph.pairs_swept_per_request", per_request(batch.pairs_swept),
       "count/request"},
      {"graph.warm_hits_per_request", per_request(batch.warm_hits),
       "count/request"},
      {"graph.compdists_per_request", per_request(stats.compdists),
       "count/request"},
      {"graph.compdists_per_sweep",
       Share(static_cast<double>(stats.compdists),
             static_cast<double>(batch.sweeps)),
       "count/sweep"},
      {"grid.cells_scanned_per_request", per_request(stats.scanned_cells),
       "count/request"},
      {"grid.cells_pruned_per_request", per_request(stats.pruned_cells),
       "count/request"},
      {"rideshare.vehicles_pruned_per_request",
       per_request(stats.pruned_vehicles), "count/request"},
      {"kinetic.verified_vehicles_per_request",
       per_request(stats.verified_vehicles), "count/request"},
      {"kinetic.branches_p99", Percentile(r.branches, 99), "count"},
      {"kinetic.branches_max", Percentile(r.branches, 100), "count"},
      {"kinetic.bytes_per_vehicle",
       static_cast<double>(r.tree_bytes) / in.engine.num_vehicles,
       "bytes/vehicle"},
      {"rideshare.incomplete_share", per_request(incomplete), "ratio"},
      {"sim.wave_ms.p50", Percentile(r.wave_ms, 50), "ms"},
      {"sim.wave_ms.p99", Percentile(r.wave_ms, 99), "ms"},
      {"sim.pipeline.conflict_share", per_request(r.conflicts), "ratio"},
      {"sim.pipeline.rematches", static_cast<double>(r.rematches), "count",
       true},
      {"sim.pipeline.serial_rematches",
       static_cast<double>(r.serial_rematches), "count", true},
      {"sim.pipeline.wasted_match_share",
       pipeline ? Share(wasted_us, Sum(match.total)) : 0.0, "ratio"},
      {"sim.pipeline.worker_busy_share",
       pipeline ? Share(Sum(match.total), w.workers * wave_us) : 0.0,
       "ratio"},
      {"sim.pipeline.serial_share",
       pipeline ? Share(wave_serial_us, wave_us) : 0.0, "ratio"},
      {"common.pool_speedup", facts.pool_speedup, "ratio"},
      {"obs.trace_overhead_share",
       (r.wall_s - facts.untraced_wall_s) / facts.untraced_wall_s, "ratio"},
      {"graph.compdists", static_cast<double>(counts.compdists), "count",
       true},
      {"graph.sweeps", static_cast<double>(counts.sweeps), "count", true},
      {"kinetic.verified_vehicles", static_cast<double>(counts.verified),
       "count", true},
      {"rideshare.options", static_cast<double>(counts.options), "count",
       true},
      {"sim.pipeline.conflicts", static_cast<double>(counts.conflicts),
       "count", true},
      {"sim.unserved", static_cast<double>(counts.unserved), "count", true},
      {"sim.latency_samples", samples, "count", true},
  };
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  const std::vector<double> cover = ChildCoverMicros(spans);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"begin_us\": " << static_cast<double>(s.begin_ns) / 1e3
        << ", \"dur_us\": " << s.micros()
        << ", \"self_us\": " << s.micros() - cover[i] << "}\n";
  }
  if (!out) Die("cannot write " + path);
}

// --- Runs. ---

struct RunResult {
  std::vector<Metric> metrics;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;
};

/// --trace 0: replays every episode, each on a freshly set-up engine, with
/// at least kSetupRepeats set-ups in all. The episode set repeats, and must
/// commit the same each time, until `seconds` of replay are measured.
RunResult RunUntraced(const WorkloadSpec& w, const Inputs& in,
                      double seconds) {
  RunResult result;
  Tracer off(false);
  std::vector<double> setups;
  for (std::size_t i = in.episodes.size(); i < kSetupRepeats; ++i) {
    setups.push_back(SetUp(in, off).setup_s);
  }
  std::vector<Replay> replays;
  double measured = 0.0;
  while (replays.empty() || measured < seconds) {
    for (std::size_t e = 0; e < in.episodes.size(); ++e) {
      World world = SetUp(in, off);
      setups.push_back(world.setup_s);
      replays.push_back(RunReplay(w, in.episodes[e], *world.engine, off));
      const Replay& r = replays.back();
      measured += r.wall_s;
      CheckReplay(in.episodes[e], r, "episode " + std::to_string(e),
                  result.checks);
      result.checks.Expect(r.commits == replays[e].commits &&
                               CountsOf(r) == CountsOf(replays[e]),
                           "repeated replay of one episode diverged");
      result.attempted += r.commits.size();
      result.failed += r.shed;
    }
  }
  result.metrics = EndToEndMetrics(replays, setups);
  for (std::size_t e = 0; e < in.episodes.size(); ++e) {
    result.counts += CountsOf(replays[e]);
  }
  return result;
}

/// --trace 1: an untraced replay of the first episode, then a traced
/// set-up and replay of it whose spans give the per-layer metrics. The two
/// must commit the same. On the pipeline workload, the per-wave replay must
/// also commit what one whole-stream RunPipelined call commits, at the
/// workload's worker count and at kPoolWorkers.
RunResult RunTraced(const WorkloadSpec& w, const Inputs& in,
                    const std::string& spans_path) {
  RunResult result;
  Checks& checks = result.checks;
  const Stream stream = in.episodes.front();
  Tracer off(false);
  Replay untraced;
  {
    World world = SetUp(in, off);
    untraced = RunReplay(w, stream, *world.engine, off);
  }
  CheckReplay(stream, untraced, "untraced replay", checks);

  Tracer tracer(true);
  TracedFacts facts;
  facts.untraced_wall_s = untraced.wall_s;
  if (w.backend == DistanceBackend::kCH) {
    std::unique_ptr<ptar::CHGraph> ch;
    {
      ScopedSpan span(tracer, "graph.ch_build", -1, -1);
      ch = std::make_unique<ptar::CHGraph>(
          ptar::CHPreprocessor().Build(in.graph));
    }
    facts.ch_bytes = ch->MemoryBytes();
  }
  World world = SetUp(in, tracer);
  facts.grid_bytes = world.grid->MemoryBytes();
  const Replay traced = RunReplay(w, stream, *world.engine, tracer);
  CheckReplay(stream, traced, "traced replay", checks);
  checks.Expect(traced.commits == untraced.commits,
                "traced replay committed differently from untraced replay");
  checks.Expect(CountsOf(traced) == CountsOf(untraced),
                "traced replay counts differ from untraced replay");
  if (w.loop == Loop::kPipeline) {
    const WholeStream whole = RunWholeStream(in, stream, w.workers);
    checks.Expect(whole.commits == untraced.commits,
                  "per-wave calls committed differently from one "
                  "whole-stream RunPipelined call");
    const WholeStream pooled = RunWholeStream(in, stream, kPoolWorkers);
    checks.Expect(pooled.commits == untraced.commits,
                  "the " + std::to_string(kPoolWorkers) +
                      "-worker replay committed differently");
    facts.pool_speedup = whole.wall_s / pooled.wall_s;
  }
  const std::vector<Span> spans = tracer.Take();
  result.metrics = PerLayerMetrics(w, in, traced, spans, facts, checks);
  result.counts = CountsOf(traced);
  result.attempted = traced.commits.size();
  result.failed = traced.shed;
  WriteSpans(spans_path, spans);
  return result;
}

// --- Layer-attribution self-test. ---

/// Injects a slowdown into the match layer twice — through a sleeping,
/// always-false oracle fault hook, and through a delay in the decorator —
/// and asserts that the traced report moves rideshare.match_us but not
/// sim.commit_us or sim.advance_us, and that commits do not change.
int RunSelfTest() {
  const WorkloadSpec w{"selftest", Loop::kSerial, DistanceBackend::kDijkstra,
                       300, 300, 120.0, 4, 0.2, 2.0, 1, 1};
  const Inputs in = MakeInputs(w, 7, 40, 40);
  struct Variant {
    const char* label;
    bool slow_hook;
    std::chrono::microseconds delay;
  };
  const Variant variants[] = {{"baseline", false, {}},
                              {"slow oracle hook", true, {}},
                              {"decorator delay", false,
                               std::chrono::microseconds(2000)}};
  struct Layers {
    double match = 0.0;
    double commit = 0.0;
    double advance = 0.0;
  };
  Checks checks;
  std::vector<CommitRecord> base_commits;
  Layers base;
  for (const Variant& v : variants) {
    Tracer tracer(true);
    World world = SetUp(in, tracer);
    if (v.slow_hook) {
      world.engine->SetFaultHookFactory([](std::size_t) {
        return [](ptar::VertexId a, ptar::VertexId b) {
          if ((a ^ b) % 4 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(1));
          }
          return false;
        };
      });
    }
    const Replay r =
        RunReplay(w, in.episodes.front(), *world.engine, tracer, v.delay);
    CheckReplay(in.episodes.front(), r, v.label, checks);
    const std::vector<Span> spans = tracer.Take();
    const std::vector<double> cover = ChildCoverMicros(spans);
    const Layers layers{Median(TimesOf(spans, cover, "rideshare.match").self),
                        Median(TimesOf(spans, cover, "sim.process").self),
                        Median(TimesOf(spans, cover, "sim.advance").self)};
    std::printf("%-17s match_us.p50=%9.1f commit_us.p50=%8.1f "
                "advance_us.p50=%7.1f\n",
                v.label, layers.match, layers.commit, layers.advance);
    if (base_commits.empty()) {
      base_commits = r.commits;
      base = layers;
      continue;
    }
    checks.Expect(r.commits == base_commits,
                  std::string(v.label) + ": commits changed");
    const double moved = layers.match - base.match;
    checks.Expect(moved > 0.25 * base.match && moved > 200.0,
                  std::string(v.label) + ": rideshare.match_us did not move");
    checks.Expect(layers.commit - base.commit < 0.2 * moved,
                  std::string(v.label) + ": sim.commit_us moved");
    checks.Expect(layers.advance - base.advance < 0.2 * moved,
                  std::string(v.label) + ": sim.advance_us moved");
  }
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "selftest FAIL: %s\n", f.c_str());
  }
  std::printf("selftest %s\n", checks.failures.empty() ? "PASS" : "FAIL");
  return checks.failures.empty() ? 0 : 1;
}

// --- Command line. ---

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  bool selftest = false;
  bool digest_only = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (flag == "--digest_only") {
      args.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) Die("--seconds must be > 0");
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args.trace != 0 && args.trace != 1) Die("--trace must be 0 or 1");
    } else if (flag == "--out_dir") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') Die("malformed value for " + flag);
  }
  if (!args.selftest && (args.workload.empty() || !have_seed)) {
    Die("usage: perfbench --workload NAME --seed N [--seconds S] "
        "[--trace 0|1] [--out_dir DIR] | --selftest");
  }
  return args;
}

void WriteRecord(const std::string& path, const Args& args,
                 const HostInfo& host, const Inputs& in,
                 const RunResult& result, bool correct) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": "
      << args.seed << ", \"trace\": " << args.trace << ", \"digest\": \""
      << in.digest << "\", \"host\": {\"nproc\": " << host.nproc
      << ", \"compiler\": \"" << host.compiler << "\", \"build_type\": \""
      << host.build_type << "\", \"git_describe\": \"" << host.git_describe
      << "\"}, \"counts\": {\"compdists\": " << result.counts.compdists
      << ", \"sweeps\": " << result.counts.sweeps
      << ", \"verified_vehicles\": " << result.counts.verified
      << ", \"options\": " << result.counts.options
      << ", \"conflicts\": " << result.counts.conflicts
      << ", \"rematches\": " << result.counts.rematches
      << ", \"unserved\": " << result.counts.unserved
      << "}, \"correct\": " << (correct ? "true" : "false")
      << ", \"metrics\": " << FormatMetrics(result.metrics) << "}\n";
  if (!out) Die("cannot write " + path);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (const char* why = BuildRefusal()) {
    Die(std::string("refusing to measure an ") + why);
  }
  const HostInfo host = ProbeHost();
  std::printf("host nproc=%d compiler=\"%s\" build=%s git=%s\n", host.nproc,
              host.compiler.c_str(), host.build_type.c_str(),
              host.git_describe.c_str());
  if (args.selftest) return RunSelfTest();

  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload " + args.workload);
  const int workers = spec->loop == Loop::kPipeline && args.trace == 1
                          ? std::max(spec->workers, kPoolWorkers)
                          : spec->workers;
  if (workers > host.nproc) {
    Die("refusing to run " + std::to_string(workers) +
        " pipeline workers on " + std::to_string(host.nproc) + " cpus");
  }
  const Inputs in = MakeInputs(*spec, args.seed);
  std::printf("digest %s workload=%s seed=%llu\n", in.digest.c_str(),
              spec->name, static_cast<unsigned long long>(args.seed));
  std::fflush(stdout);
  if (args.digest_only) return 0;

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  const RunResult result = args.trace == 1
                               ? RunTraced(*spec, in, stem + ".spans.jsonl")
                               : RunUntraced(*spec, in, args.seconds);
  Checks checks = result.checks;
  for (const Metric& m : result.metrics) {
    checks.Expect(std::isfinite(m.value), "metric " + m.name + " not finite");
  }
  std::printf("counts compdists=%llu sweeps=%llu verified_vehicles=%llu "
              "options=%llu conflicts=%llu rematches=%llu unserved=%llu\n",
              static_cast<unsigned long long>(result.counts.compdists),
              static_cast<unsigned long long>(result.counts.sweeps),
              static_cast<unsigned long long>(result.counts.verified),
              static_cast<unsigned long long>(result.counts.options),
              static_cast<unsigned long long>(result.counts.conflicts),
              static_cast<unsigned long long>(result.counts.rematches),
              static_cast<unsigned long long>(result.counts.unserved));
  const bool correct = checks.failures.empty();
  WriteRecord(stem + ".json", args, host, in, result, correct);
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              FormatMetrics(result.metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
