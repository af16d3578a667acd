// Counting, caching front-end for exact shortest-path distance queries.
//
// The paper's main cost measure besides wall-clock time is "compdists": the
// number of shortest-path distance computations an algorithm performs. Every
// matcher draws distances exclusively through a DistanceOracle so the count
// is uniform across BA / SSA / DSA. A per-oracle memo cache means a pair is
// computed (and counted) at most once until the cache is cleared; matchers
// clear it per request.
//
// Two interchangeable exact backends sit below the cache:
//  - kDijkstra (default): plain Dijkstra sweeps (DijkstraEngine). A batch
//    from a source the oracle swept recently resumes that source's search
//    instead of restarting it.
//  - kCH: contraction-hierarchy queries (CHQuery over a shared prebuilt
//    CHGraph) — bidirectional point-to-point; one-to-many via buckets for
//    small batches or a PHAST-style downward sweep for large ones, reusing
//    a recent source's upward search and downward sweep.
// Both are exact; compdist accounting and BatchStats semantics are
// backend-independent. Values may differ between backends in the low bits
// (floating-point sums associate differently along shortcuts), which is
// inside the tolerance every cross-implementation comparison in this
// codebase already applies.
//
// Resumable per-source state: a matcher's batches come from two sources,
// request.start and request.destination, one cell batch at a time. The
// oracle therefore keeps the one-to-many search state of its two most
// recently used sources (least-recently-used replaced): on kDijkstra a
// paused DijkstraEngine run per source, on kCH the CHQuery's recorded
// upward search and downward-sweep array. The state is scoped to one cache
// epoch: ClearCache() drops it. It changes only how much a sweep costs,
// never a value, a compdist, or a BatchStats count other than `settled`:
// a resumed search performs the same heap operations (Dijkstra) or the same
// label sums (CH) that a fresh one would.
//
// Bit-determinism contract: within one cache epoch (between ClearCache
// calls) every query for a pair returns the exact same double, because the
// first computation is memoized under a symmetric key. The value is the
// backend's result in the direction the pair was first asked, which is
// itself deterministic for a deterministic query sequence. On kDijkstra,
// BatchDist(s, ts) is additionally bit-identical to the equivalent serial
// Dist calls: a sweep settles every target with exactly the value
// PointToPoint(s, t) would produce (the heap evolution up to t's
// settlement does not depend on the stopping rule). On kCH, batch and
// serial answers for the same pair may differ in the low bits when the
// batch takes the downward-sweep path (its sums associate top-down while
// the bidirectional query adds fwd + bwd halves) — the memo cache still
// makes whichever value was computed first the epoch-stable answer.
//
// Two tiers of batching:
//  - BatchDist: for pairs the caller is *guaranteed* to need. Counts one
//    compdist per uncached pair, exactly like the equivalent serial Dist
//    calls, so the paper's Section VII accounting is unchanged.
//  - WarmFrom: speculative prefetch for pairs a pruning hook may skip.
//    Sweeps the targets but parks the results in an uncounted side store;
//    Dist() promotes a warmed pair into the real cache and counts it at
//    that moment — the same moment a serial run would have computed it.
//
// Connected-component labels (computed once at construction) short-circuit
// unreachable pairs: they are answered kInfDistance — still cached and
// counted exactly as before — without running a search, so a sweep with
// unreachable targets no longer drains the whole component's queue.

#ifndef PTAR_GRAPH_DISTANCE_ORACLE_H_
#define PTAR_GRAPH_DISTANCE_ORACLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "graph/ch_graph.h"
#include "graph/ch_query.h"
#include "graph/dijkstra.h"
#include "graph/road_network.h"
#include "graph/types.h"

namespace ptar {

/// Which exact shortest-path engine serves a DistanceOracle's misses.
enum class DistanceBackend {
  kDijkstra,  ///< Plain Dijkstra sweeps; no preprocessing.
  kCH,        ///< Contraction hierarchy + bucket one-to-many queries.
};

/// "dijkstra" / "ch" (the --distance_backend flag vocabulary).
const char* DistanceBackendName(DistanceBackend backend);
StatusOr<DistanceBackend> ParseDistanceBackend(const std::string& name);

class DistanceOracle {
 public:
  /// Expected live pairs per request; used to pre-size the memo cache so the
  /// per-request fill never rehashes.
  static constexpr std::size_t kDefaultCacheReserve = 1024;

  /// Dijkstra-backed oracle.
  explicit DistanceOracle(const RoadNetwork* graph)
      : DistanceOracle(graph, nullptr) {}

  /// CH-backed oracle when `ch` is non-null (it must be built over `graph`
  /// and outlive the oracle); Dijkstra-backed otherwise.
  DistanceOracle(const RoadNetwork* graph, const CHGraph* ch);

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  DistanceBackend backend() const {
    return ch_ == nullptr ? DistanceBackend::kDijkstra : DistanceBackend::kCH;
  }

  /// Exact shortest-path distance between a and b (undirected, so symmetric).
  /// Counts one compdist unless the pair is already cached.
  Distance Dist(VertexId a, VertexId b);

  /// Distances from `source` to every target, in target order, via (at most)
  /// one one-to-many query. Semantically identical — including compdist
  /// accounting and returned bits — to calling Dist(source, t) for each t in
  /// order: cached pairs are served from the cache, every distinct uncached
  /// pair counts exactly one compdist, duplicates count once, and
  /// source==target pairs are 0.0 and free. `out` is resized to
  /// targets.size().
  void BatchDist(VertexId source, std::span<const VertexId> targets,
                 std::vector<Distance>* out);

  /// Speculative prefetch: one sweep from `source` covering every target not
  /// already cached or warmed. Counts **no** compdists and does not populate
  /// the memo cache; results wait in a side store until a Dist() call
  /// promotes (and counts) them. Safe to over-approximate the target set —
  /// pairs never asked for are never counted.
  void WarmFrom(VertexId source, std::span<const VertexId> targets);

  /// Shortest path (vertex sequence) between a and b. Counts one compdist and
  /// caches the endpoint distance. Empty if b is unreachable.
  std::vector<VertexId> Path(VertexId a, VertexId b);

  /// Number of actual point-to-point computations since construction or the
  /// last ResetStats().
  std::uint64_t compdists() const { return compdists_; }
  void ResetStats() {
    compdists_ = 0;
    faults_ = 0;
  }

  /// Fault-injection seam (src/check): the hook is consulted once per pair
  /// on every *actual* backend computation (point-to-point or per sweep
  /// target) — never for cached, warmed, or different-component pairs.
  /// Returning true makes the oracle answer kInfDistance for that pair,
  /// which is then cached and counted exactly like a real computation; the
  /// hook body may also sleep to emulate a slow backend. Decisions must be
  /// a pure function of the pair (plus hook-internal seeds) to preserve
  /// the oracle's determinism contract. Pass nullptr to uninstall.
  using FaultHook = std::function<bool(VertexId, VertexId)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }
  bool has_fault_hook() const { return static_cast<bool>(fault_hook_); }

  /// Number of computations the fault hook failed since ResetStats().
  /// Matchers use a nonzero count to tag their result `complete = false`.
  std::uint64_t faults() const { return faults_; }

  /// Batching instrumentation (sweeps run, pairs per sweep, warm hits,
  /// vertices settled).
  const BatchStats& batch_stats() const { return batch_stats_; }
  void ResetBatchStats() { batch_stats_ = BatchStats{}; }

  /// Drops all memoized pairs and the per-source search state (typically
  /// between requests) but keeps the tables' bucket capacity and the search
  /// workspaces, so steady-state request processing neither rehashes nor
  /// reallocates every request.
  void ClearCache();
  std::size_t cache_size() const { return cache_.size(); }
  std::size_t cache_bucket_count() const { return cache_.bucket_count(); }

  const RoadNetwork& graph() const { return *graph_; }

 private:
  static std::uint64_t Key(VertexId a, VertexId b) {
    static_assert(sizeof(VertexId) <= sizeof(std::uint32_t),
                  "Key() packs two VertexIds into 64 bits; widen the key "
                  "before widening VertexId");
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  bool SameComponent(VertexId a, VertexId b) const {
    return component_[a] == component_[b];
  }

  /// Backend dispatch for an uncached point-to-point pair (reachability
  /// already checked).
  Distance ComputePointToPoint(VertexId a, VertexId b);

  /// Backend dispatch for one one-to-many query over `sweep_targets_`;
  /// results land in `sweep_dists_` (same order).
  void ComputeSweep(VertexId source);

  /// kDijkstra: the engine whose paused run starts at `source` — found, or
  /// started in the least-recently-used slot.
  DijkstraEngine& SweepEngineFrom(VertexId source);

  /// Consults the fault hook for every sweep target, overriding failed
  /// targets in `sweep_dists_` with kInfDistance.
  void ApplyFaultHookToSweep(VertexId source);

  const RoadNetwork* graph_;
  const CHGraph* ch_;
  /// Point-to-point and path queries on kDijkstra.
  DijkstraEngine engine_;
  /// kDijkstra one-to-many: a resumable run per recent source.
  struct ResumableSweep {
    VertexId source = kInvalidVertex;
    std::uint64_t last_use = 0;  ///< 0 = free slot.
    std::unique_ptr<DijkstraEngine> engine;  ///< Allocated on first use.
  };
  std::array<ResumableSweep, 2> sweeps_;
  std::uint64_t sweep_clock_ = 0;
  /// Per-oracle CH workspace (null on the Dijkstra backend); the CHGraph
  /// itself is shared and immutable, so concurrent oracles never contend.
  std::unique_ptr<CHQuery> ch_query_;
  /// Connected-component label per vertex; pairs in different components
  /// are answered without a search.
  std::vector<int> component_;
  std::unordered_map<std::uint64_t, Distance> cache_;
  /// Uncounted prefetch results from WarmFrom; promoted into cache_ (and
  /// counted) on first Dist() use.
  std::unordered_map<std::uint64_t, Distance> warm_;
  std::uint64_t compdists_ = 0;
  std::uint64_t faults_ = 0;
  FaultHook fault_hook_;
  BatchStats batch_stats_;
  /// Scratch for BatchDist/WarmFrom (avoids per-call allocation).
  std::vector<VertexId> sweep_targets_;
  std::vector<Distance> sweep_dists_;
};

}  // namespace ptar

#endif  // PTAR_GRAPH_DISTANCE_ORACLE_H_
