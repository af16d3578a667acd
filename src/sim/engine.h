// Time-stepped dynamic ridesharing engine.
//
// The engine owns the fleet (kinetic trees + grid registrations), drives
// vehicle movement at a constant speed (paper Section VII: vehicles follow
// their schedule when occupied and random-walk on road segments otherwise),
// feeds the request stream to one or more matchers evaluated on an
// *identical* world state (shadow evaluation), and commits one option per
// request chosen by a configurable rider policy.
//
// Index maintenance (vehicle movement updates, kinetic-tree refreshes,
// re-registrations, commits) runs through a dedicated maintenance oracle so
// per-matcher compdists measure matching work only, like the paper's
// Section VII metrics.

#ifndef PTAR_SIM_ENGINE_H_
#define PTAR_SIM_ENGINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/distance_oracle.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/windows.h"
#include "grid/grid_index.h"
#include "grid/vehicle_registry.h"
#include "kinetic/kinetic_tree.h"
#include "kinetic/tree_auditor.h"
#include "prune/ellipse_prefilter.h"
#include "rideshare/grid_scan_matcher.h"
#include "rideshare/matcher.h"
#include "rideshare/ssa_matcher.h"
#include "rideshare/work_budget.h"
#include "sim/overload.h"

namespace ptar {

/// How a rider picks among the returned non-dominated options.
enum class ChoicePolicy {
  kMinPrice,   ///< Cheapest option (earliest pickup breaks ties).
  kMinTime,    ///< Earliest pickup (cheaper breaks ties).
  kBalanced,   ///< Minimal normalized price + pickup sum.
  kRandom,     ///< Uniform over the skyline (seeded).
};

/// Candidate-prefilter stage in front of the matchers (EngineOptions::
/// prune, CLI --prune=MODE).
enum class PruneMode {
  kNone,     ///< Grid lower bounds only (the paper's configuration).
  kEllipse,  ///< GeoPrune detour-ellipse prefilter (DESIGN.md §13).
};

/// Parses "none" / "ellipse" (case-sensitive, like the backend parser).
/// Returns false on anything else.
bool ParsePruneMode(const std::string& text, PruneMode* out);

struct EngineOptions {
  int num_vehicles = 500;
  int vehicle_capacity = 4;  ///< Paper default: 4 seats.
  double speed_mps = kDefaultSpeedMetersPerSec;
  double tick_seconds = 1.0;
  ChoicePolicy policy = ChoicePolicy::kMinPrice;
  std::uint64_t seed = 13;
  /// When non-empty, vehicle i starts at start_vertices[i] instead of a
  /// seed-derived random vertex, and the list's size overrides
  /// num_vehicles. Replay files (src/check) use this so that removing one
  /// vehicle during shrinking does not reshuffle every other start.
  std::vector<VertexId> start_vertices;
  /// Worker threads for the shadow slots of a ProcessRequest/Run wave: the
  /// wave's one request is evaluated by every matcher concurrently (one
  /// task per matcher; each matcher gets its own DistanceOracle). 1 =
  /// serial. Results are bit-identical either way: matchers only read the
  /// snapshot and write into pre-assigned slots.
  int threads = 1;
  /// Matcher workers for RunPipelined waves: a wave of concurrent requests
  /// is matched by this many workers against one frozen registry snapshot,
  /// then committed serially in request-id order. 1 = the canonical serial
  /// replay (same wave structure, same arbitration, no pool). Committed
  /// assignments are identical at every thread count for a fixed wave_size
  /// (the `--serial_check` contract); only execution overlaps.
  /// ProcessRequest/Run waves hold one request and use `threads` instead.
  int engine_threads = 1;
  /// Requests admitted per pipeline wave. 0 = auto (2 * engine_threads,
  /// at least 1). NOTE: the auto value depends on engine_threads, so
  /// cross-thread-count determinism comparisons must pin wave_size
  /// explicitly (serial_check replays with the parallel run's resolved
  /// value).
  int wave_size = 0;
  /// Bounded re-match: a request whose chosen vehicle was taken by an
  /// earlier (lower-id) concurrent request re-matches against a fresh
  /// snapshot at most this many times; survivors then match serially
  /// against live state. Every round commits at least one request, so the
  /// pipeline never livelocks regardless of this bound.
  int max_rematch_rounds = 3;
  /// Exact shortest-path engine behind every oracle. kCH builds one
  /// contraction hierarchy at engine construction (counted in
  /// "ch/preprocess_us") shared read-only by all oracles; queries then use
  /// bidirectional / bucket searches instead of Dijkstra sweeps. Matching
  /// results are equivalent up to floating-point association of path sums.
  DistanceBackend distance_backend = DistanceBackend::kDijkstra;
  /// Per-request work budgets, deadlines, and the degradation ladder
  /// (sim/overload.h). Disabled by default (no budget, no deadline): the
  /// engine then hands matchers no budget at all and behavior is unchanged.
  OverloadOptions overload;
  /// Windowed service-quality telemetry (obs/windows.h): per-sim-time-
  /// window request/shed/conflict counts, ladder occupancy, and commit
  /// latency, exported as the run report's "timeseries" block (schema v4)
  /// and — when overload.slo_p99_us is set — fed back into the overload
  /// ladder at window boundaries. On by default (60 s windows); set
  /// window_seconds <= 0 to disable.
  obs::TelemetryOptions telemetry;
  /// Audits the committed vehicle's kinetic tree (and, on findings, repairs
  /// it) after every commit — one exact distance per leg, so it is on by
  /// default only in debug builds. Findings/repairs surface as "audit/*"
  /// counters; release runs can instead call Engine::AuditFleet on demand.
  bool audit_after_commit =
#ifndef NDEBUG
      true;
#else
      false;
#endif
  /// GeoPrune candidate prefilter (src/prune). kEllipse builds one
  /// EllipsePrefilter at engine construction and installs it on every
  /// MatchContext, so all matchers (including ladder fallbacks) interleave
  /// calibrated-Euclidean ellipse checks with the grid lower bounds.
  /// Lossless: committed assignments and skylines are identical to kNone
  /// (the differential harness's --prune_check mode enforces this).
  PruneMode prune = PruneMode::kNone;
  /// Per-vehicle kinetic-tree branch cap (CLI --tree_max_branches). The
  /// default keeps every valid schedule — the paper's c.S_tr — so results
  /// are exactly the unbounded tree's. A finite cap bounds per-vehicle
  /// fan-out with best-branch retention (active branch + the
  /// (total, first-leg) skyline always kept); dropped branches surface as
  /// the "tree/branches_dropped" and "tree/cap_hits" run counters.
  std::size_t tree_max_branches = KineticTree::kUnlimitedBranches;
};

/// Aggregated per-matcher measurements across a run.
struct MatcherAggregate {
  std::string name;
  MatchStats totals;
  std::uint64_t requests = 0;
  std::uint64_t options_sum = 0;
  double precision_sum = 0.0;  ///< vs. the first matcher's option set.
  double recall_sum = 0.0;
  /// Per-request matching latency distribution. A fixed log-bucket
  /// histogram (O(1) memory, mergeable), not a sample list: percentiles
  /// are exact to one bucket width (~19%).
  obs::LatencyHistogram latency_ms;

  double MeanMillis() const {
    return requests == 0 ? 0.0 : totals.elapsed_micros / 1e3 / requests;
  }
  double MeanVerified() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(totals.verified_vehicles) / requests;
  }
  double MeanCompdists() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(totals.compdists) / requests;
  }
  double MeanOptions() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(options_sum) / requests;
  }
  double MeanPrecision() const {
    return requests == 0 ? 1.0 : precision_sum / requests;
  }
  double MeanRecall() const {
    return requests == 0 ? 1.0 : recall_sum / requests;
  }
};

struct RunStats {
  std::vector<MatcherAggregate> matchers;
  std::uint64_t served = 0;
  std::uint64_t unserved = 0;
  std::uint64_t shared = 0;  ///< Served requests that rode with others.
  /// Requests refused outright at overload level 3 (counted in unserved).
  std::uint64_t shed_requests = 0;
  /// Requests whose committing result was budget-truncated
  /// (MatchResult::complete == false on slot 0).
  std::uint64_t partial_skylines = 0;
  /// Requests processed at each degradation level (index = DegradeLevel).
  std::array<std::uint64_t, kNumDegradeLevels> ladder_requests{};

  // --- Waves of RunPipelined. Run feeds the same core one request at a
  // time and leaves these zero: a wave of one cannot conflict. ---
  /// Waves the stream was processed in.
  std::uint64_t waves = 0;
  /// Conflict events: a request's chosen vehicle was already committed to
  /// a lower-id request of the same wave round.
  std::uint64_t conflicts = 0;
  /// Re-matches against a fresh snapshot (rounds 1..max_rematch_rounds).
  std::uint64_t rematches = 0;
  /// Requests that exhausted the re-match bound and fell back to a serial
  /// match against live state.
  std::uint64_t serial_rematches = 0;

  double SharingRate() const {
    return served == 0 ? 0.0 : static_cast<double>(shared) / served;
  }
};

/// One request's final disposition in the request-parallel pipeline, in the
/// exact shape the `--serial_check` mode compares: a parallel run and its
/// engine_threads=1 replay must produce equal records for every request.
struct CommitRecord {
  RequestId request = 0;
  bool served = false;
  bool shed = false;
  VehicleId vehicle = kInvalidVehicle;  ///< Committed vehicle when served.
  double pickup_dist = 0.0;
  double price = 0.0;

  friend bool operator==(const CommitRecord&, const CommitRecord&) = default;
};

/// Builds one matcher instance per pipeline worker, so concurrently-running
/// workers never share a matcher object. Matchers are configuration-only in
/// Match() (no mutable state), hence results do not depend on which worker
/// instance served a request.
using MatcherFactory = std::function<std::unique_ptr<Matcher>()>;

class Engine {
 public:
  /// The graph and grid must outlive the engine. Vehicles start at
  /// uniformly random vertices unless options.start_vertices pins them.
  Engine(const RoadNetwork* graph, const GridIndex* grid,
         const EngineOptions& options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Accessors. ---
  std::vector<KineticTree>& fleet() { return fleet_; }
  const std::vector<KineticTree>& fleet() const { return fleet_; }
  VehicleRegistry& registry() { return registry_; }
  const GridIndex& grid() const { return *grid_; }
  double now() const { return now_; }

  /// Sum of the fleet's kinetic-tree memory (Table IV's second row).
  std::size_t KineticTreeMemoryBytes() const;

  /// Pairs memoized by the maintenance oracle. It is cleared at the start
  /// of every wave, so this stays bounded by one wave's bookkeeping.
  std::size_t maintenance_cache_pairs() const {
    return maintenance_oracle_.cache_size();
  }

  /// Current degradation level (kFull unless overload control is enabled
  /// and the ladder has moved).
  DegradeLevel degrade_level() const { return overload_.level(); }

  /// Audits the whole fleet plus the registry aggregates against the
  /// trusted maintenance oracle (kinetic/tree_auditor.h). On-demand
  /// release-build counterpart of EngineOptions::audit_after_commit.
  ///
  /// Safe to call from another thread while a run is in flight: the audit
  /// takes the wave core's quiesce lock, so it observes the fleet only at a
  /// wave boundary — a quiesced epoch where no matcher worker is running
  /// and no commit is half-applied — and never a torn tree. Between runs
  /// the lock is uncontended.
  AuditReport AuditFleet();

  /// Installs `factory(slot)` as the fault hook on the counted matching
  /// oracle (slot 0) and every shadow-matcher oracle (present and future;
  /// slot m) — but never on the maintenance oracle, which stays a trusted
  /// distance source for commits, refreshes, and audits. A factory (rather
  /// than one hook) keeps per-hook state unshared across concurrently-used
  /// oracles, and the slot argument lets callers exempt chosen slots (the
  /// differential harness keeps its reference matcher clean) by returning
  /// a null hook. Pass nullptr to uninstall everywhere.
  void SetFaultHookFactory(
      std::function<DistanceOracle::FaultHook(std::size_t slot)> factory);

  /// Unified run metrics, the same names for every entry point: wave phase
  /// latencies ("engine/<phase>_us" for advance, refresh, snapshot, match,
  /// commit, plus the per-request admission-to-commit
  /// "engine/request_latency_us"), per-matcher per-request distributions
  /// and totals ("matcher/<name>/..."), oracle batching counters
  /// ("matcher/<name>/batch/..."), and thread-pool queue stats ("pool/...");
  /// RunPipelined adds its wave counters ("pipeline/..."). Accumulates
  /// across calls. Names follow the determinism convention of
  /// obs::MetricsRegistry: only "pool/" entries and the timing-suffixed
  /// ones may differ between equal-seed runs.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Windowed service-quality telemetry, accumulated across runs (engine
  /// sim time never rewinds). Export() feeds the report's v4 "timeseries"
  /// block.
  const obs::WindowedTelemetry& telemetry() const { return telemetry_; }

  /// Attaches (or, with nullptr, detaches) a per-request lifecycle
  /// recorder; not owned, must outlive the runs it observes. The wave core
  /// records events only from its serial admission and commit passes, so
  /// the recorded stream is identical at every threads / engine_threads
  /// value.
  void SetLifecycleRecorder(obs::LifecycleRecorder* recorder) {
    lifecycle_ = recorder;
  }

  // --- Simulation. ---

  /// Advances the world to absolute time `time` (seconds).
  void AdvanceTo(double time);

  struct RequestOutcome {
    std::vector<MatchResult> results;  ///< One per matcher, same order.
    /// Parallel to `results`: whether that slot actually ran. At degraded
    /// overload levels only slot 0 runs (via an engine-owned fallback
    /// matcher); shed requests run nothing. Unevaluated slots hold
    /// default-constructed results and must be excluded from statistics.
    std::vector<char> evaluated;
    bool served = false;
    Option chosen;
    /// Degradation level this request was processed at.
    DegradeLevel degrade_level = DegradeLevel::kFull;
    bool shed = false;  ///< True iff the request was refused unmatched.
    /// OK normally; kResourceExhausted when shed.
    Status status = Status::OK();
  };

  /// A wave of one (DESIGN.md §12): advances to the request's submit time,
  /// repairs stale state, evaluates every matcher on one registry snapshot
  /// (shadow slots 1..k on the `threads` pool), and commits the option
  /// chosen (by policy) from the first matcher's result set.
  RequestOutcome ProcessRequest(const Request& request,
                                std::span<Matcher* const> matchers);

  /// Replays a whole (time-sorted) request stream as consecutive waves of
  /// one; the first matcher is the committing one and the precision/recall
  /// reference.
  RunStats Run(std::span<const Request> requests,
               std::span<Matcher* const> matchers);

  /// Request-parallel entry point to the same wave core (DESIGN.md §12).
  /// The stream is processed in waves of ResolvedWaveSize() requests:
  /// admission (overload shed + level capture, in request-id order) →
  /// advance world to the wave's latest submit time → refresh stale trees →
  /// freeze a registry snapshot → match every admitted request concurrently
  /// on engine_threads workers (worker w runs its own matcher from
  /// `make_matcher` on slot w's DistanceOracle and WorkBudget) → commit
  /// serially in request-id order. When two requests picked the same
  /// vehicle, the lower id commits and the loser re-matches against a
  /// fresh snapshot (at most max_rematch_rounds times, then a serial tail
  /// against live state).
  ///
  /// Determinism: committed assignments depend on wave_size but not on
  /// engine_threads — workers read only the frozen snapshot, arbitration is
  /// id-ordered, and rng/ladder draws happen serially in id order — except
  /// when a wall-clock deadline (overload.deadline_ms > 0) is configured,
  /// which is nondeterministic by design. `commit_log`, when non-null,
  /// receives one record per request, sorted by request id.
  RunStats RunPipelined(std::span<const Request> requests,
                        const MatcherFactory& make_matcher,
                        std::vector<CommitRecord>* commit_log = nullptr);

  /// Wave size actually used by RunPipelined: options.wave_size, or
  /// 2 * engine_threads (at least 1) when 0.
  int ResolvedWaveSize() const;

 private:
  struct VehicleRuntime {
    std::vector<VertexId> route;  ///< Vertex path being driven.
    std::size_t pos = 0;          ///< Index of the current vertex in route.
    double edge_progress = 0.0;   ///< Meters advanced into the next edge.
    double budget = 0.0;          ///< Unspent movement distance.
    std::unordered_set<RequestId> onboard;  ///< For sharing-rate tracking.
  };
  /// One admitted request travelling through a wave (engine_pipeline.cc).
  struct InFlight;
  /// One entry-point call's slots, stats and sinks (engine_pipeline.cc).
  struct WaveRun;

  KineticTree::DistFn MaintenanceDistFn();
  /// The one MatchContext builder, for matcher slot `m`: slot 0 gets
  /// match_oracle_, every other slot its own oracle (created by
  /// EnsureMatcherOracles) so concurrent matcher evaluations never share
  /// mutable state; every slot gets the prune filter. The wave core adds
  /// the snapshot and the slot's budget.
  MatchContext MakeMatchContextFor(std::size_t m);
  void EnsureMatcherOracles(std::size_t num_matchers);
  /// Per-slot work budgets (only allocated when overload control is on).
  void EnsureSlotBudgets(std::size_t num_matchers);
  /// Arms slot `m`'s budget for ladder level `level` and returns it, or
  /// nullptr when overload control is disabled.
  WorkBudget* ArmSlotBudget(std::size_t m, DegradeLevel level);
  /// Feeds the finished request's signals to the overload controller and
  /// records the degrade/* transition counters and deadline slack.
  /// `worker_deadline_hit` is the request's own budget-latched wall
  /// deadline signal (see OverloadController::Observe).
  void ObserveOverload(double match_elapsed_micros, bool budget_exhausted,
                       bool worker_deadline_hit = false);
  /// Telemetry window for sim time `t` (null when telemetry is disabled).
  /// When `t` opens a new window and an SLO is configured, the just-closed
  /// window's p99 commit latency and shed rate first feed
  /// OverloadController::ObserveWindow — always from a serial section, so
  /// ladder moves stay ordered even though the signal is wall-clock.
  obs::MetricsRegistry* TelemetryWindowFor(double t);
  /// Post-commit single-vehicle audit (EngineOptions::audit_after_commit);
  /// repairs on findings and bumps the audit/* counters.
  void AuditAfterCommit(VehicleId v);
  Distance ArcWeight(VertexId u, VertexId v) const;
  void TickVehicle(VehicleId v, double budget_meters);
  /// Serves co-located stops, fixes the vehicle's registry membership, and
  /// replans its driving route. Called after any kinetic-tree change.
  void SyncAfterTreeChange(VehicleId v);
  void ReRegister(VehicleId v);
  void RefreshStaleTrees();
  const Option* ChooseOption(std::span<const Option> options);
  void CommitChoice(const Request& request, const Option& option);

  // --- The wave core behind ProcessRequest, Run and RunPipelined. ---
  /// Starts one entry-point call. `pipelined` false: slot m evaluates
  /// slots[m] on the wave's one request (slot 0 commits, the rest are
  /// shadows). True: slot w is pipeline worker w and matches requests
  /// w, w + W, ... of each wave.
  WaveRun StartRun(std::span<Matcher* const> slots, bool pipelined);
  /// One wave: admission → advance + refresh → snapshot → match → id-ordered
  /// commit, with bounded re-match and a serial tail for conflict losers.
  void RunWave(std::span<const Request> wave, WaveRun& run);
  /// Runs slot `slot`'s matcher (or the admission level's fallback) on
  /// `inf` against `snapshot` and stores the result in inf.results[m].
  void MatchSlot(const WaveRun& run, InFlight& inf, std::size_t m,
                 std::size_t slot, const RegistrySnapshot& snapshot);
  /// Signals of a request's first match, fed in id order: the ladder,
  /// partial-skyline and prune/* counters, per-matcher aggregates.
  void RecordMatch(WaveRun& run, const InFlight& inf);
  /// A request's final disposition (shed, served or unserved): run stats,
  /// commit record, latency, telemetry window, lifecycle event, and
  /// ProcessRequest's outcome.
  void RecordOutcome(WaveRun& run, InFlight& inf, const Option* chosen,
                     double latency_micros);
  /// Ends a call: folds per-slot oracle batching stats, pool queue stats,
  /// tree-cap counters and the pipeline/* counters into metrics_ (resetting
  /// the sources so a later call adds only deltas).
  void HarvestRunMetrics(WaveRun& run);

  /// Builds the contraction hierarchy when `options` selects the CH
  /// backend (null otherwise); *out_micros receives the build time.
  static std::unique_ptr<CHGraph> MaybeBuildCH(const RoadNetwork* graph,
                                               const EngineOptions& options,
                                               double* out_micros);

  const RoadNetwork* graph_;
  const GridIndex* grid_;
  EngineOptions options_;
  Rng rng_;
  double now_ = 0.0;

  std::vector<KineticTree> fleet_;
  std::vector<VehicleRuntime> runtimes_;
  std::vector<char> registered_empty_;  ///< Vehicle is in an empty list.
  VehicleRegistry registry_;

  double ch_preprocess_micros_ = 0.0;
  /// Shared hierarchy for the kCH backend (null on kDijkstra); declared
  /// before the oracles, which capture a pointer to it at construction.
  std::unique_ptr<CHGraph> ch_graph_;
  DistanceOracle match_oracle_;        ///< Counted, cleared per request.
  /// Engine bookkeeping, uncounted; cleared per wave.
  DistanceOracle maintenance_oracle_;
  /// Per-matcher oracles for slots >= 1 (slot 0 keeps match_oracle_).
  std::vector<std::unique_ptr<DistanceOracle>> matcher_oracles_;
  /// Re-invoked for every oracle that matching may touch (see
  /// SetFaultHookFactory); null when no faults are injected.
  std::function<DistanceOracle::FaultHook(std::size_t)> fault_hook_factory_;

  OverloadController overload_;
  /// One budget per matcher slot so pooled evaluation stays bit-identical
  /// to serial: each slot charges only its own work.
  std::vector<std::unique_ptr<WorkBudget>> slot_budgets_;
  /// Engine-owned fallback matchers for degraded levels (paper-default SSA
  /// fraction; GRID verifies empty vehicles only). Configuration-only in
  /// Match(), so every slot shares them.
  SsaMatcher fallback_ssa_;
  GridScanMatcher fallback_grid_;
  /// GeoPrune prefilter, built once at construction when options_.prune is
  /// kEllipse and installed on every MatchContext (null otherwise).
  std::unique_ptr<prune::EllipsePrefilter> prune_filter_;
  /// Workers for shadow slots; created lazily on the first ProcessRequest
  /// or Run call when options.threads > 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Workers for RunPipelined waves; created lazily on the first
  /// RunPipelined call when options.engine_threads > 1.
  std::unique_ptr<ThreadPool> engine_pool_;
  /// Held by the wave core across each whole wave (admission through
  /// commit), by HarvestRunMetrics and by AuditFleet. Between waves the
  /// fleet, registry, and metrics are quiesced, which is the only state an
  /// outside thread may observe.
  std::mutex quiesce_mu_;

  std::unordered_set<RequestId> shared_requests_;

  obs::MetricsRegistry metrics_;
  /// Per-window service-quality deltas (EngineOptions::telemetry).
  obs::WindowedTelemetry telemetry_;
  /// Per-request lifecycle recorder; not owned, null when detached.
  obs::LifecycleRecorder* lifecycle_ = nullptr;
  /// Cached phase-histogram slots (map values are address-stable), so the
  /// per-request path does one string lookup per phase at construction
  /// instead of per request.
  obs::LatencyHistogram* phase_advance_us_;
  obs::LatencyHistogram* phase_refresh_us_;
  obs::LatencyHistogram* phase_snapshot_us_;
  obs::LatencyHistogram* phase_match_us_;
  obs::LatencyHistogram* phase_commit_us_;
  /// Admission-to-commit wall time per matched request.
  obs::LatencyHistogram* request_latency_us_;
  /// max(0, deadline - elapsed) per request; only fed when a wall-clock
  /// deadline is configured (timing-suffixed, determinism-exempt).
  obs::LatencyHistogram* deadline_slack_us_;
  /// Pool counter values already folded into metrics_ (the pool's atomics
  /// are cumulative; HarvestRunMetrics adds only the delta).
  struct PoolHarvest {
    std::uint64_t tasks = 0;
    std::uint64_t wait_micros = 0;
  };
  PoolHarvest pool_harvested_;         ///< pool_ ("pool/...").
  PoolHarvest engine_pool_harvested_;  ///< engine_pool_ ("pool/engine_...").
  /// Kinetic-tree cap counters already folded into metrics_ (per-tree
  /// counters are cumulative; HarvestRunMetrics adds only the delta).
  std::uint64_t tree_dropped_harvested_ = 0;
  std::uint64_t tree_cap_hits_harvested_ = 0;
};

}  // namespace ptar

#endif  // PTAR_SIM_ENGINE_H_
