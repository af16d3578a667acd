#include "graph/distance_oracle.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/generators.h"
#include "obs/trace.h"

namespace ptar {

const char* DistanceBackendName(DistanceBackend backend) {
  switch (backend) {
    case DistanceBackend::kDijkstra:
      return "dijkstra";
    case DistanceBackend::kCH:
      return "ch";
  }
  return "unknown";
}

StatusOr<DistanceBackend> ParseDistanceBackend(const std::string& name) {
  if (name == "dijkstra") return DistanceBackend::kDijkstra;
  if (name == "ch") return DistanceBackend::kCH;
  return Status::InvalidArgument("unknown distance backend '" + name +
                                 "' (expected dijkstra or ch)");
}

DistanceOracle::DistanceOracle(const RoadNetwork* graph, const CHGraph* ch)
    : graph_(graph), ch_(ch), engine_(graph) {
  if (ch_ != nullptr) {
    PTAR_CHECK(&ch_->graph() == graph);
    ch_query_ = std::make_unique<CHQuery>(ch_);
  }
  component_ = ConnectedComponents(*graph).label;
  cache_.reserve(kDefaultCacheReserve);
  warm_.reserve(kDefaultCacheReserve);
}

Distance DistanceOracle::ComputePointToPoint(VertexId a, VertexId b) {
  if (fault_hook_ && fault_hook_(a, b)) {
    ++faults_;
    return kInfDistance;
  }
  if (ch_query_ != nullptr) return ch_query_->PointToPoint(a, b);
  return engine_.PointToPoint(a, b);
}

void DistanceOracle::ApplyFaultHookToSweep(VertexId source) {
  if (!fault_hook_) return;
  for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
    if (fault_hook_(source, sweep_targets_[i])) {
      sweep_dists_[i] = kInfDistance;
      ++faults_;
    }
  }
}

DijkstraEngine& DistanceOracle::SweepEngineFrom(VertexId source) {
  ++sweep_clock_;
  ResumableSweep* lru = &sweeps_[0];
  for (ResumableSweep& slot : sweeps_) {
    if (slot.source == source && slot.last_use != 0) {
      slot.last_use = sweep_clock_;
      return *slot.engine;
    }
    if (slot.last_use < lru->last_use) lru = &slot;
  }
  if (lru->engine == nullptr) {
    lru->engine = std::make_unique<DijkstraEngine>(graph_);
  }
  lru->source = source;
  lru->last_use = sweep_clock_;
  lru->engine->BeginResumable(source);
  return *lru->engine;
}

void DistanceOracle::ComputeSweep(VertexId source) {
  sweep_dists_.assign(sweep_targets_.size(), kInfDistance);
  if (ch_query_ != nullptr) {
    ch_query_->OneToMany(source, sweep_targets_,
                         std::span<Distance>(sweep_dists_));
    batch_stats_.settled += ch_query_->last_settled_count();
  } else {
    DijkstraEngine& engine = SweepEngineFrom(source);
    engine.ResumeToTargets(sweep_targets_);
    batch_stats_.settled += engine.last_settled_count();
    for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
      sweep_dists_[i] = engine.Dist(sweep_targets_[i]);
    }
  }
  ApplyFaultHookToSweep(source);
}

void DistanceOracle::ClearCache() {
  cache_.clear();
  warm_.clear();
  for (ResumableSweep& slot : sweeps_) slot.last_use = 0;
  if (ch_query_ != nullptr) ch_query_->ClearSourceCache();
}

Distance DistanceOracle::Dist(VertexId a, VertexId b) {
  if (a == b) return 0.0;
  const std::uint64_t key = Key(a, b);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  if (!warm_.empty()) {
    auto wit = warm_.find(key);
    if (wit != warm_.end()) {
      // Promote a prefetched pair: this is the moment an unbatched run
      // would have computed it, so this is the moment it counts.
      ++compdists_;
      ++batch_stats_.warm_hits;
      cache_.emplace(key, wit->second);
      return wit->second;
    }
  }
  if (!SameComponent(a, b)) {
    // Unreachable: counted and cached like any computation, no search.
    ++compdists_;
    cache_.emplace(key, kInfDistance);
    return kInfDistance;
  }
  // Only the real search gets a span: cache and warm hits are nanosecond
  // paths and are accounted by BatchStats counters instead.
  PTAR_TRACE_SPAN("oracle_p2p");
  const Distance d = ComputePointToPoint(a, b);
  ++compdists_;
  cache_.emplace(key, d);
  return d;
}

void DistanceOracle::BatchDist(VertexId source,
                               std::span<const VertexId> targets,
                               std::vector<Distance>* out) {
  ++batch_stats_.batch_calls;
  batch_stats_.pairs_requested += targets.size();
  out->clear();
  out->resize(targets.size(), kInfDistance);

  // Pass 1: serve what the cache (or warm store) already has and collect the
  // distinct pairs that genuinely need a search.
  sweep_targets_.clear();
  std::size_t pending = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const VertexId t = targets[i];
    if (t == source) {
      (*out)[i] = 0.0;
      continue;
    }
    const std::uint64_t key = Key(source, t);
    if (auto it = cache_.find(key); it != cache_.end()) {
      (*out)[i] = it->second;
      ++batch_stats_.pairs_from_cache;
      continue;
    }
    if (auto wit = warm_.find(key); wit != warm_.end()) {
      // Same promotion rule as Dist(): counted on first real use.
      ++compdists_;
      ++batch_stats_.warm_hits;
      cache_.emplace(key, wit->second);
      (*out)[i] = wit->second;
      continue;
    }
    // Mark as pending so a duplicate later in `targets` is not swept (or
    // counted) twice; resolved in pass 2. For a different-component target
    // the pending marker kInfDistance *is* the answer, so it never joins
    // the sweep.
    if (cache_.emplace(key, kInfDistance).second) {
      ++pending;
      if (SameComponent(source, t)) sweep_targets_.push_back(t);
    }
  }

  if (pending > 0) {
    // Every distinct pending pair counts as one computation whether it was
    // resolved by the sweep or by the component labels — identical to the
    // pre-label accounting, where unreachable targets rode the sweep.
    ++batch_stats_.sweeps;
    batch_stats_.pairs_swept += pending;
    compdists_ += pending;
    if (!sweep_targets_.empty()) {
      // One sweep settles every pending target with bit-identical values to
      // per-target PointToPoint(source, t) runs: Dijkstra's heap evolution
      // up to each settlement is independent of the stopping rule, and the
      // CH bucket join minimizes the same label sums as the bidirectional
      // query.
      obs::TraceSpan span("oracle_sweep");
      span.AddArg("targets",
                  static_cast<std::int64_t>(sweep_targets_.size()));
      ComputeSweep(source);
      for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
        cache_[Key(source, sweep_targets_[i])] = sweep_dists_[i];
      }
    }
  }

  // Pass 2: fill the slots that were pending (including duplicates).
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const VertexId t = targets[i];
    if (t == source || (*out)[i] != kInfDistance) continue;
    const auto it = cache_.find(Key(source, t));
    PTAR_DCHECK(it != cache_.end());
    (*out)[i] = it->second;
  }
}

void DistanceOracle::WarmFrom(VertexId source,
                              std::span<const VertexId> targets) {
  sweep_targets_.clear();
  std::size_t pending = 0;
  for (const VertexId t : targets) {
    if (t == source) continue;
    const std::uint64_t key = Key(source, t);
    if (cache_.contains(key)) continue;
    // emplace doubles as the dedup check within this batch; as in
    // BatchDist, the kInfDistance marker is already correct for
    // different-component targets.
    if (warm_.emplace(key, kInfDistance).second) {
      ++pending;
      if (SameComponent(source, t)) sweep_targets_.push_back(t);
    }
  }
  if (pending > 0) ++batch_stats_.sweeps;
  if (sweep_targets_.empty()) return;
  obs::TraceSpan span("oracle_warm_sweep");
  span.AddArg("targets", static_cast<std::int64_t>(sweep_targets_.size()));
  ComputeSweep(source);
  for (std::size_t i = 0; i < sweep_targets_.size(); ++i) {
    warm_[Key(source, sweep_targets_[i])] = sweep_dists_[i];
  }
}

std::vector<VertexId> DistanceOracle::Path(VertexId a, VertexId b) {
  if (a == b) return {a};
  if (!SameComponent(a, b)) {
    ++compdists_;
    cache_[Key(a, b)] = kInfDistance;
    return {};
  }
  PTAR_TRACE_SPAN("oracle_path");
  ++compdists_;
  if (fault_hook_ && fault_hook_(a, b)) {
    ++faults_;
    cache_[Key(a, b)] = kInfDistance;
    return {};
  }
  if (ch_query_ != nullptr) {
    Distance d = kInfDistance;
    std::vector<VertexId> path = ch_query_->Path(a, b, &d);
    cache_[Key(a, b)] = d;
    return path;
  }
  const Distance d = engine_.PointToPoint(a, b);
  cache_[Key(a, b)] = d;
  return engine_.PathTo(b);
}

}  // namespace ptar
