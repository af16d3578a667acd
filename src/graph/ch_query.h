// Query workspace over a CHGraph: bidirectional point-to-point, bucket-based
// one-to-many, and shortest-path unpacking.
//
// All searches run on the upward graph only (the network is undirected, so
// the backward/downward side of a query is an upward search from the other
// endpoint). One workspace owns the per-vertex scratch arrays, reused across
// queries via version stamps, exactly like DijkstraEngine; a CHGraph may be
// shared by any number of workspaces concurrently.
//
// The one-to-many query picks between two exact strategies by batch size:
//
//  - Small batches use the bucket scheme from the ridesharing-routing
//    literature (BCH, Buchhold et al.): every target seeds *buckets* along
//    its upward search space (entries (target, dist) parked at each reached
//    vertex), then a single upward search from the source joins against the
//    buckets it passes — t + 1 small hierarchy searches, no full sweep.
//  - Large batches use a PHAST-style downward sweep: one upward search from
//    the source, then one linear pass over the vertices in descending rank
//    order relaxing each vertex from its (already-final) upward neighbors.
//    The pass costs O(n + m) with zero heap operations, so for city-scale
//    graphs it beats t per-target upward searches as soon as t exceeds a
//    small constant — per-target searches are what makes pure BCH lose to
//    a single Dijkstra drain when buckets cannot be amortized across many
//    sources.
//
// Both strategies return exact distances; they may differ from each other
// and from PointToPoint in the low bits because floating-point path sums
// associate differently (bucket joins add fwd + bwd halves, the sweep
// accumulates top-down). Callers that need bit-stability get it from
// DistanceOracle's per-epoch memo cache, not from the raw query layer.
//
// Repeated sources are cheap: both strategies start with an exhaustive
// upward search from the source that does not depend on the targets. The
// workspace keeps, for the two most recently used sources, that search in
// settle order (replayed by the bucket join) and, once a large batch needed
// it, the source's full downward-sweep array (large batches from it become
// lookups). Replaying a recorded search performs the same additions and
// comparisons as rerunning it, so answers keep their exact bits.
// ClearSourceCache() drops this state.
//
// Stall-on-demand prunes the *expansion* of provably suboptimal vertices
// but keeps their labels, and joins consider every reached vertex, so the
// results are exact regardless of stalling; the downward sweep recovers any
// stalled vertex's true distance through its higher-ranked neighbors.

#ifndef PTAR_GRAPH_CH_QUERY_H_
#define PTAR_GRAPH_CH_QUERY_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ch_graph.h"
#include "graph/types.h"

namespace ptar {

class CHQuery {
 public:
  explicit CHQuery(const CHGraph* ch);

  CHQuery(const CHQuery&) = delete;
  CHQuery& operator=(const CHQuery&) = delete;

  /// Exact shortest-path distance from s to t (kInfDistance if
  /// unreachable).
  Distance PointToPoint(VertexId s, VertexId t);

  /// Exact shortest path s..t as an original-graph vertex sequence, with
  /// every shortcut unpacked. Empty if t is unreachable; {s} if s == t.
  /// `dist`, if non-null, receives the path length.
  std::vector<VertexId> Path(VertexId s, VertexId t,
                             Distance* dist = nullptr);

  /// Batch sizes up to this run the bucket strategy; larger ones the
  /// downward sweep (see the file comment for the trade-off).
  static constexpr std::size_t kBucketBatchLimit = 8;

  /// Exact distances from `source` to every target. `out` must have
  /// targets.size() slots; unreachable targets report kInfDistance.
  /// Duplicate targets are fine (each slot is filled). Reuses the source's
  /// recorded upward search and downward sweep when it is one of the two
  /// most recent sources (see the file comment).
  void OneToMany(VertexId source, std::span<const VertexId> targets,
                 std::span<Distance> out);

  /// Forgets every recorded per-source search; the next OneToMany from any
  /// source searches afresh.
  void ClearSourceCache();

  /// Vertices settled across both sides of the most recent query (work
  /// measure; compare with DijkstraEngine::last_settled_count()). A
  /// downward sweep finalizes every vertex and counts all of them; replayed
  /// searches and reused sweeps count nothing.
  std::size_t last_settled_count() const { return last_settled_count_; }

  const CHGraph& ch() const { return *ch_; }

 private:
  struct QueueEntry {
    Distance dist;
    VertexId vertex;
    friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
      return a.dist > b.dist || (a.dist == b.dist && a.vertex > b.vertex);
    }
  };

  /// One direction of a bidirectional search (also the whole of a
  /// single-sided upward search).
  struct Side {
    std::vector<Distance> dist;
    std::vector<std::uint32_t> parent_arc;  ///< Pool index, kNoChild at seed.
    std::vector<VertexId> parent;
    std::vector<std::uint32_t> stamp;
    std::uint32_t run = 0;
    std::vector<QueueEntry> heap;

    void Begin(std::size_t n);
    bool Reached(VertexId v) const { return stamp[v] == run; }
  };

  /// Settles the next vertex of `side` (if any); returns whether a vertex
  /// was settled and fills *settled_vertex / *settled_dist. Skips stalled
  /// vertices' expansions but still reports them settled.
  bool SettleNext(Side& side, VertexId* settled_vertex,
                  Distance* settled_dist);

  /// Runs the bidirectional query, leaving labels in fwd_/bwd_. Returns
  /// the best meeting vertex (kInvalidVertex if none) and sets *best.
  VertexId RunBidirectional(VertexId s, VertexId t, Distance* best);

  /// What OneToMany keeps per recent source.
  struct SourceSearch {
    struct Label {
      VertexId vertex;
      Distance dist;
    };
    VertexId source = kInvalidVertex;
    std::uint64_t last_use = 0;  ///< 0 = free slot.
    /// The exhaustive upward search from `source`, in settle order.
    std::vector<Label> upward;
    /// Final distances from `source` indexed by sweep position (descending
    /// rank); empty until a large batch from `source` runs the sweep.
    std::vector<Distance> sweep_dist;
  };
  static constexpr std::size_t kSourceSlots = 2;

  /// The slot recording `source`'s upward search: found, or built in the
  /// least-recently-used slot.
  SourceSearch& SearchFrom(VertexId source);

  void BucketOneToMany(VertexId source, std::span<const VertexId> targets,
                       std::span<Distance> out);
  void SweepOneToMany(VertexId source, std::span<const VertexId> targets,
                      std::span<Distance> out);

  const CHGraph* ch_;
  Side fwd_;
  Side bwd_;
  std::size_t last_settled_count_ = 0;

  // Bucket storage for OneToMany: a stamped per-vertex head index into a
  // per-call entry pool chained with `next` (cleared in O(1) by bumping the
  // stamp, filled in O(search space) per target).
  struct BucketEntry {
    std::uint32_t target_index;
    Distance dist;
    std::uint32_t next;  ///< Index into bucket_entries_, or kNoEntry.
  };
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  std::vector<std::uint32_t> bucket_head_;
  std::vector<std::uint32_t> bucket_stamp_;
  std::uint32_t bucket_run_ = 0;
  std::vector<BucketEntry> bucket_entries_;

  std::array<SourceSearch, kSourceSlots> sources_;
  std::uint64_t source_clock_ = 0;
};

}  // namespace ptar

#endif  // PTAR_GRAPH_CH_QUERY_H_
