#include "graph/ch_query.h"

#include <algorithm>

#include "common/logging.h"

namespace ptar {

CHQuery::CHQuery(const CHGraph* ch) : ch_(ch) {
  PTAR_CHECK(ch != nullptr);
  const std::size_t n = ch->num_vertices();
  bucket_head_.assign(n, kNoEntry);
  bucket_stamp_.assign(n, 0);
}

void CHQuery::Side::Begin(std::size_t n) {
  if (dist.size() != n) {
    dist.assign(n, kInfDistance);
    parent_arc.assign(n, CHGraph::kNoChild);
    parent.assign(n, kInvalidVertex);
    stamp.assign(n, 0);
    run = 0;
  }
  ++run;
  if (run == 0) {
    std::fill(stamp.begin(), stamp.end(), 0);
    run = 1;
  }
  heap.clear();
}

bool CHQuery::SettleNext(Side& side, VertexId* settled_vertex,
                         Distance* settled_dist) {
  while (!side.heap.empty()) {
    std::pop_heap(side.heap.begin(), side.heap.end(), std::greater<>());
    const QueueEntry top = side.heap.back();
    side.heap.pop_back();
    const VertexId u = top.vertex;
    if (top.dist > side.dist[u]) continue;  // stale entry
    ++last_settled_count_;
    // Stall-on-demand: a reached higher-ranked neighbor proving a shorter
    // path to u means no shortest up-down path peaks above u through here,
    // so skip the expansion. u's label stays valid (it is a real path
    // length), so callers may still use it for meets and bucket joins.
    bool stalled = false;
    for (const CHGraph::UpArc& arc : ch_->UpArcs(u)) {
      if (side.Reached(arc.head) &&
          side.dist[arc.head] + arc.weight < top.dist) {
        stalled = true;
        break;
      }
    }
    if (!stalled) {
      for (const CHGraph::UpArc& arc : ch_->UpArcs(u)) {
        const VertexId v = arc.head;
        const Distance nd = top.dist + arc.weight;
        if (!side.Reached(v) || nd < side.dist[v]) {
          side.stamp[v] = side.run;
          side.dist[v] = nd;
          side.parent[v] = u;
          side.parent_arc[v] = arc.pool;
          side.heap.push_back({nd, v});
          std::push_heap(side.heap.begin(), side.heap.end(),
                         std::greater<>());
        }
      }
    }
    *settled_vertex = u;
    *settled_dist = top.dist;
    return true;
  }
  return false;
}

VertexId CHQuery::RunBidirectional(VertexId s, VertexId t, Distance* best) {
  const std::size_t n = ch_->num_vertices();
  fwd_.Begin(n);
  bwd_.Begin(n);
  fwd_.stamp[s] = fwd_.run;
  fwd_.dist[s] = 0.0;
  fwd_.parent[s] = kInvalidVertex;
  fwd_.parent_arc[s] = CHGraph::kNoChild;
  fwd_.heap.push_back({0.0, s});
  bwd_.stamp[t] = bwd_.run;
  bwd_.dist[t] = 0.0;
  bwd_.parent[t] = kInvalidVertex;
  bwd_.parent_arc[t] = CHGraph::kNoChild;
  bwd_.heap.push_back({0.0, t});

  *best = kInfDistance;
  VertexId meet = kInvalidVertex;
  while (!fwd_.heap.empty() || !bwd_.heap.empty()) {
    const Distance fmin =
        fwd_.heap.empty() ? kInfDistance : fwd_.heap.front().dist;
    const Distance bmin =
        bwd_.heap.empty() ? kInfDistance : bwd_.heap.front().dist;
    if (std::min(fmin, bmin) >= *best) break;
    Side& side = fmin <= bmin ? fwd_ : bwd_;
    Side& other = fmin <= bmin ? bwd_ : fwd_;
    VertexId v = kInvalidVertex;
    Distance d = 0.0;
    if (!SettleNext(side, &v, &d)) continue;
    if (other.Reached(v)) {
      const Distance candidate = d + other.dist[v];
      if (candidate < *best) {
        *best = candidate;
        meet = v;
      }
    }
  }
  return meet;
}

Distance CHQuery::PointToPoint(VertexId s, VertexId t) {
  last_settled_count_ = 0;
  if (s == t) return 0.0;
  Distance best = kInfDistance;
  RunBidirectional(s, t, &best);
  return best;
}

std::vector<VertexId> CHQuery::Path(VertexId s, VertexId t, Distance* dist) {
  last_settled_count_ = 0;
  if (s == t) {
    if (dist != nullptr) *dist = 0.0;
    return {s};
  }
  Distance best = kInfDistance;
  const VertexId meet = RunBidirectional(s, t, &best);
  if (dist != nullptr) *dist = best;
  if (meet == kInvalidVertex) return {};

  // Hierarchy arcs s..meet, recovered backwards from the forward tree.
  std::vector<std::uint32_t> up_chain;
  for (VertexId v = meet; v != s; v = fwd_.parent[v]) {
    up_chain.push_back(fwd_.parent_arc[v]);
  }
  std::reverse(up_chain.begin(), up_chain.end());

  std::vector<VertexId> path{s};
  for (const std::uint32_t arc : up_chain) {
    ch_->UnpackArc(arc, path.back(), &path);
  }
  PTAR_DCHECK(path.back() == meet);
  // meet..t follows the backward tree toward its seed t.
  for (VertexId v = meet; v != t; v = bwd_.parent[v]) {
    ch_->UnpackArc(bwd_.parent_arc[v], path.back(), &path);
  }
  PTAR_DCHECK(path.back() == t);
  return path;
}

CHQuery::SourceSearch& CHQuery::SearchFrom(VertexId source) {
  ++source_clock_;
  SourceSearch* lru = &sources_[0];
  for (SourceSearch& slot : sources_) {
    if (slot.source == source && slot.last_use != 0) {
      slot.last_use = source_clock_;
      return slot;
    }
    if (slot.last_use < lru->last_use) lru = &slot;
  }
  lru->source = source;
  lru->last_use = source_clock_;
  lru->upward.clear();
  lru->sweep_dist.clear();
  fwd_.Begin(ch_->num_vertices());
  fwd_.stamp[source] = fwd_.run;
  fwd_.dist[source] = 0.0;
  fwd_.heap.push_back({0.0, source});
  VertexId v = kInvalidVertex;
  Distance d = 0.0;
  while (SettleNext(fwd_, &v, &d)) lru->upward.push_back({v, d});
  return *lru;
}

void CHQuery::ClearSourceCache() {
  for (SourceSearch& slot : sources_) slot.last_use = 0;
}

void CHQuery::OneToMany(VertexId source, std::span<const VertexId> targets,
                        std::span<Distance> out) {
  PTAR_CHECK(out.size() == targets.size());
  last_settled_count_ = 0;
  if (targets.size() <= kBucketBatchLimit) {
    BucketOneToMany(source, targets, out);
  } else {
    SweepOneToMany(source, targets, out);
  }
}

void CHQuery::SweepOneToMany(VertexId source,
                             std::span<const VertexId> targets,
                             std::span<Distance> out) {
  SourceSearch& search = SearchFrom(source);
  if (search.sweep_dist.empty()) {
    // Downward sweep: visiting vertices in descending rank order, every
    // upward neighbor is already final, so one pass computes
    // min(up-label, min over up-arcs (final[head] + weight)) for all n
    // vertices without a heap. The sweep CSR indexes arcs and distances by
    // rank position, so offsets, arcs, and the writes all stream forward;
    // the only scattered reads are the (position-local) head slots.
    const std::size_t n = ch_->num_vertices();
    std::vector<Distance>& dist = search.sweep_dist;
    dist.assign(n, kInfDistance);
    for (const SourceSearch::Label& label : search.upward) {
      dist[ch_->SweepPos(label.vertex)] = label.dist;
    }
    for (std::uint32_t pos = 0; pos < n; ++pos) {
      Distance best = dist[pos];
      for (const CHGraph::SweepArc& arc : ch_->SweepArcs(pos)) {
        const Distance candidate = dist[arc.head_pos] + arc.weight;
        if (candidate < best) best = candidate;
      }
      dist[pos] = best;
    }
    last_settled_count_ += n;
  }
  for (std::size_t j = 0; j < targets.size(); ++j) {
    out[j] = targets[j] == source
                 ? 0.0
                 : search.sweep_dist[ch_->SweepPos(targets[j])];
  }
}

void CHQuery::BucketOneToMany(VertexId source,
                              std::span<const VertexId> targets,
                              std::span<Distance> out) {
  const std::size_t n = ch_->num_vertices();
  std::fill(out.begin(), out.end(), kInfDistance);

  // Bucket phase: one upward search per target; every reached vertex gets
  // a (target, dist-to-target) entry on its chain.
  ++bucket_run_;
  if (bucket_run_ == 0) {
    std::fill(bucket_stamp_.begin(), bucket_stamp_.end(), 0);
    bucket_run_ = 1;
  }
  bucket_entries_.clear();
  for (std::size_t j = 0; j < targets.size(); ++j) {
    const VertexId t = targets[j];
    if (t == source) {
      out[j] = 0.0;
      continue;
    }
    bwd_.Begin(n);
    bwd_.stamp[t] = bwd_.run;
    bwd_.dist[t] = 0.0;
    bwd_.heap.push_back({0.0, t});
    VertexId v = kInvalidVertex;
    Distance d = 0.0;
    while (SettleNext(bwd_, &v, &d)) {
      if (bucket_stamp_[v] != bucket_run_) {
        bucket_stamp_[v] = bucket_run_;
        bucket_head_[v] = kNoEntry;
      }
      bucket_entries_.push_back(
          {static_cast<std::uint32_t>(j), d, bucket_head_[v]});
      bucket_head_[v] = static_cast<std::uint32_t>(bucket_entries_.size()) - 1;
    }
  }

  // Join phase: the source's upward search (recorded once per source),
  // scanning the bucket chain of every vertex it settles.
  for (const SourceSearch::Label& label : SearchFrom(source).upward) {
    if (bucket_stamp_[label.vertex] != bucket_run_) continue;
    for (std::uint32_t e = bucket_head_[label.vertex]; e != kNoEntry;
         e = bucket_entries_[e].next) {
      const BucketEntry& entry = bucket_entries_[e];
      const Distance candidate = label.dist + entry.dist;
      if (candidate < out[entry.target_index]) {
        out[entry.target_index] = candidate;
      }
    }
  }
}

}  // namespace ptar
