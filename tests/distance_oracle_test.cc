// Tests for the counting, caching distance oracle.

#include "graph/distance_oracle.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "graph/ch_preprocessor.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

TEST(DistanceOracleTest, ExactDistances) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 8), 400.0);
  EXPECT_DOUBLE_EQ(oracle.Dist(0, 0), 0.0);
}

TEST(DistanceOracleTest, CountsOnlyRealComputations) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  EXPECT_EQ(oracle.compdists(), 0u);
  oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 1u);
  oracle.Dist(0, 8);  // cache hit
  EXPECT_EQ(oracle.compdists(), 1u);
  oracle.Dist(8, 0);  // symmetric cache hit
  EXPECT_EQ(oracle.compdists(), 1u);
  oracle.Dist(1, 2);
  EXPECT_EQ(oracle.compdists(), 2u);
}

TEST(DistanceOracleTest, SameVertexIsFree) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  EXPECT_DOUBLE_EQ(oracle.Dist(3, 3), 0.0);
  EXPECT_EQ(oracle.compdists(), 0u);
}

TEST(DistanceOracleTest, ClearCacheForcesRecount) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  oracle.Dist(0, 8);
  oracle.ClearCache();
  oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 2u);
}

TEST(DistanceOracleTest, ResetStatsKeepsCache) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  oracle.Dist(0, 8);
  oracle.ResetStats();
  EXPECT_EQ(oracle.compdists(), 0u);
  oracle.Dist(0, 8);  // still cached
  EXPECT_EQ(oracle.compdists(), 0u);
}

TEST(DistanceOracleTest, PathMatchesDistance) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(30, 50, 9);
  DistanceOracle oracle(&g);
  const std::vector<VertexId> path = oracle.Path(2, 21);
  ASSERT_GE(path.size(), 1u);
  EXPECT_EQ(path.front(), 2u);
  EXPECT_EQ(path.back(), 21u);
  const std::uint64_t before = oracle.compdists();
  const Distance d = oracle.Dist(2, 21);  // cached by Path
  EXPECT_EQ(oracle.compdists(), before);
  Distance sum = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Distance best = kInfDistance;
    for (const Arc& a : g.OutArcs(path[i])) {
      if (a.head == path[i + 1]) best = std::min(best, a.weight);
    }
    sum += best;
  }
  EXPECT_NEAR(sum, d, 1e-9);
}

TEST(DistanceOracleTest, AgreesWithFloydWarshall) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(25, 35, 21);
  const auto fw = testing::FloydWarshall(g);
  DistanceOracle oracle(&g);
  for (VertexId a = 0; a < g.num_vertices(); a += 2) {
    for (VertexId b = 1; b < g.num_vertices(); b += 3) {
      EXPECT_NEAR(oracle.Dist(a, b), fw[a][b], 1e-9);
    }
  }
}

TEST(DistanceOracleTest, ClearCacheKeepsBucketCapacity) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 60, 5);
  DistanceOracle oracle(&g);
  for (VertexId t = 1; t < g.num_vertices(); ++t) oracle.Dist(0, t);
  const std::size_t buckets = oracle.cache_bucket_count();
  EXPECT_GT(buckets, 0u);
  oracle.ClearCache();
  EXPECT_EQ(oracle.cache_size(), 0u);
  // Steady-state request processing must not rehash from scratch.
  EXPECT_EQ(oracle.cache_bucket_count(), buckets);
}

TEST(BatchDistTest, MatchesSerialDistBitForBit) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(50, 80, 17);
  DistanceOracle serial(&g);
  DistanceOracle batched(&g);
  const VertexId source = 23;
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g.num_vertices(); t += 3) targets.push_back(t);
  std::vector<Distance> expected;
  for (const VertexId t : targets) expected.push_back(serial.Dist(source, t));
  std::vector<Distance> got;
  batched.BatchDist(source, targets, &got);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "i=" << i;  // exact bits, not NEAR
  }
  EXPECT_EQ(batched.compdists(), serial.compdists());
}

TEST(BatchDistTest, CountsEachUncachedPairOnce) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  std::vector<Distance> out;
  // 5 requested pairs: one duplicate, one source==target.
  const std::vector<VertexId> targets = {8, 2, 8, 0, 6};
  oracle.BatchDist(0, targets, &out);
  EXPECT_EQ(oracle.compdists(), 3u);  // {8, 2, 6}
  EXPECT_DOUBLE_EQ(out[3], 0.0);
  EXPECT_EQ(out[0], out[2]);
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
  EXPECT_EQ(oracle.batch_stats().pairs_swept, 3u);
  // Re-batching the same targets is all cache hits: no sweep, no count.
  oracle.BatchDist(0, targets, &out);
  EXPECT_EQ(oracle.compdists(), 3u);
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
}

TEST(BatchDistTest, MixedCachedAndUncached) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  const Distance d8 = oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 1u);
  std::vector<Distance> out;
  const std::vector<VertexId> targets = {8, 4, 2};
  oracle.BatchDist(0, targets, &out);
  EXPECT_EQ(out[0], d8);  // served from cache, identical bits
  EXPECT_DOUBLE_EQ(out[1], 200.0);
  EXPECT_DOUBLE_EQ(out[2], 200.0);
  EXPECT_EQ(oracle.compdists(), 3u);
  EXPECT_EQ(oracle.batch_stats().pairs_from_cache, 1u);
}

TEST(BatchDistTest, UnreachableTargetIsInfinity) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(&*g);
  std::vector<Distance> out;
  const std::vector<VertexId> targets = {1, 2};
  oracle.BatchDist(0, targets, &out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], kInfDistance);
  EXPECT_EQ(oracle.compdists(), 2u);  // unreachable still counts, like Dist
  EXPECT_EQ(oracle.Dist(0, 2), kInfDistance);
  EXPECT_EQ(oracle.compdists(), 2u);  // ... and is cached
}

TEST(WarmFromTest, CountsOnlyOnUse) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DistanceOracle oracle(&g);
  const std::vector<VertexId> targets = {8, 4, 2};
  oracle.WarmFrom(0, targets);
  EXPECT_EQ(oracle.compdists(), 0u);  // speculative: nothing counted yet
  EXPECT_EQ(oracle.batch_stats().sweeps, 1u);
  EXPECT_DOUBLE_EQ(oracle.Dist(8, 0), 400.0);  // promoted (either direction)
  EXPECT_EQ(oracle.compdists(), 1u);
  EXPECT_EQ(oracle.batch_stats().warm_hits, 1u);
  oracle.Dist(0, 8);  // now a plain cache hit
  // Pairs never asked for ({0,4}, {0,2}) are never counted.
  EXPECT_EQ(oracle.compdists(), 1u);
}

TEST(WarmFromTest, WarmValueMatchesFreshSweepBits) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 70, 9);
  DistanceOracle warmed(&g);
  DistanceOracle batched(&g);
  const VertexId source = 11;
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g.num_vertices(); t += 2) targets.push_back(t);
  warmed.WarmFrom(source, targets);
  std::vector<Distance> direct;
  batched.BatchDist(source, targets, &direct);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == source) continue;
    EXPECT_EQ(warmed.Dist(source, targets[i]), direct[i]) << "i=" << i;
  }
  EXPECT_EQ(warmed.compdists(), batched.compdists());
}

TEST(WarmFromTest, ClearCacheDropsWarmStore) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DistanceOracle oracle(&g);
  oracle.WarmFrom(0, std::vector<VertexId>{8});
  oracle.ClearCache();
  oracle.Dist(0, 8);
  EXPECT_EQ(oracle.compdists(), 1u);
  EXPECT_EQ(oracle.batch_stats().warm_hits, 0u);  // computed, not promoted
}

// --- Per-source search state changes no observable -------------------------

/// Reference for the oracle's contract that starts every search from
/// scratch: a memo and a warm store with the documented accounting, where
/// each point-to-point query and each sweep runs on a freshly constructed
/// DijkstraEngine or CHQuery. Valid on connected graphs (the oracle's
/// component shortcut never fires there).
class FreshSearchOracle {
 public:
  FreshSearchOracle(const RoadNetwork* g, const CHGraph* ch)
      : g_(g), ch_(ch) {}

  Distance Dist(VertexId a, VertexId b) {
    if (a == b) return 0.0;
    const std::uint64_t key = Key(a, b);
    if (auto it = cache_.find(key); it != cache_.end()) return it->second;
    if (auto it = warm_.find(key); it != warm_.end()) {
      ++compdists_;
      ++stats_.warm_hits;
      return cache_[key] = it->second;
    }
    ++compdists_;
    if (ch_ != nullptr) return cache_[key] = CHQuery(ch_).PointToPoint(a, b);
    return cache_[key] = DijkstraEngine(g_).PointToPoint(a, b);
  }

  void BatchDist(VertexId s, const std::vector<VertexId>& targets,
                 std::vector<Distance>* out) {
    ++stats_.batch_calls;
    stats_.pairs_requested += targets.size();
    std::vector<VertexId> pending;
    for (const VertexId t : targets) {
      if (t == s) continue;
      const std::uint64_t key = Key(s, t);
      const bool seen =
          std::find(pending.begin(), pending.end(), t) != pending.end();
      if (seen || cache_.contains(key)) {
        // A repeat of a pair pending in this batch counts as a cache hit.
        ++stats_.pairs_from_cache;
      } else if (auto it = warm_.find(key); it != warm_.end()) {
        ++compdists_;
        ++stats_.warm_hits;
        cache_[key] = it->second;
      } else {
        pending.push_back(t);
      }
    }
    if (!pending.empty()) {
      ++stats_.sweeps;
      stats_.pairs_swept += pending.size();
      compdists_ += pending.size();
      const std::vector<Distance> d = FreshSweep(s, pending);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        cache_[Key(s, pending[i])] = d[i];
      }
    }
    out->clear();
    for (const VertexId t : targets) {
      out->push_back(t == s ? 0.0 : cache_.at(Key(s, t)));
    }
  }

  void WarmFrom(VertexId s, const std::vector<VertexId>& targets) {
    std::vector<VertexId> pending;
    for (const VertexId t : targets) {
      const std::uint64_t key = Key(s, t);
      if (t == s || cache_.contains(key) || warm_.contains(key)) continue;
      if (std::find(pending.begin(), pending.end(), t) == pending.end()) {
        pending.push_back(t);
      }
    }
    if (pending.empty()) return;
    ++stats_.sweeps;
    const std::vector<Distance> d = FreshSweep(s, pending);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      warm_[Key(s, pending[i])] = d[i];
    }
  }

  void ClearCache() {
    cache_.clear();
    warm_.clear();
  }
  std::uint64_t compdists() const { return compdists_; }
  const BatchStats& batch_stats() const { return stats_; }

 private:
  static std::uint64_t Key(VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  std::vector<Distance> FreshSweep(VertexId s,
                                   const std::vector<VertexId>& targets) {
    std::vector<Distance> out(targets.size(), kInfDistance);
    if (ch_ != nullptr) {
      CHQuery(ch_).OneToMany(s, targets, out);
    } else {
      DijkstraEngine engine(g_);
      engine.SingleSourceToTargets(s, targets);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        out[i] = engine.Dist(targets[i]);
      }
    }
    return out;
  }

  const RoadNetwork* g_;
  const CHGraph* ch_;
  std::unordered_map<std::uint64_t, Distance> cache_;
  std::unordered_map<std::uint64_t, Distance> warm_;
  std::uint64_t compdists_ = 0;
  BatchStats stats_;
};

std::uint64_t Bits(Distance d) { return std::bit_cast<std::uint64_t>(d); }

void ExpectSameAccounting(const DistanceOracle& got,
                          const FreshSearchOracle& want) {
  ASSERT_EQ(got.compdists(), want.compdists());
  const BatchStats& a = got.batch_stats();
  const BatchStats& b = want.batch_stats();
  ASSERT_EQ(a.batch_calls, b.batch_calls);
  ASSERT_EQ(a.sweeps, b.sweeps);
  ASSERT_EQ(a.pairs_requested, b.pairs_requested);
  ASSERT_EQ(a.pairs_from_cache, b.pairs_from_cache);
  ASSERT_EQ(a.pairs_swept, b.pairs_swept);
  ASSERT_EQ(a.warm_hits, b.warm_hits);
}

/// Replays matcher-shaped requests: per request a cache clear, then ~13
/// cell batches of BatchDist from the start plus WarmFrom from start and
/// destination, a detour source now and then (evicting one of the two
/// remembered sources), and Dist calls in both key directions.
void ExpectOracleMatchesFreshSearches(const RoadNetwork& g,
                                      const CHGraph* ch,
                                      std::uint64_t seed) {
  DistanceOracle oracle(&g, ch);
  FreshSearchOracle reference(&g, ch);
  Rng rng(seed);
  const auto vertex = [&] {
    return static_cast<VertexId>(rng.UniformIndex(g.num_vertices()));
  };
  const auto batch = [&](std::size_t max_size) {
    std::vector<VertexId> out(1 + rng.UniformIndex(max_size));
    for (VertexId& v : out) v = vertex();
    return out;
  };
  for (int request = 0; request < 4; ++request) {
    oracle.ClearCache();
    reference.ClearCache();
    const VertexId start = vertex();
    const VertexId dest = vertex();
    for (int cell = 0; cell < 13; ++cell) {
      SCOPED_TRACE("request " + std::to_string(request) + " cell " +
                   std::to_string(cell));
      const std::vector<VertexId> locations = batch(6);
      std::vector<Distance> got;
      std::vector<Distance> want;
      oracle.BatchDist(start, locations, &got);
      reference.BatchDist(start, locations, &want);
      for (std::size_t i = 0; i < locations.size(); ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "target " << locations[i];
      }
      std::vector<VertexId> points = batch(14);
      points.push_back(locations.front());
      oracle.WarmFrom(start, points);
      reference.WarmFrom(start, points);
      oracle.WarmFrom(dest, points);
      reference.WarmFrom(dest, points);
      if (rng.UniformIndex(4) == 0) {
        const VertexId detour = vertex();
        oracle.WarmFrom(detour, points);
        reference.WarmFrom(detour, points);
      }
      for (int k = 0; k < 4; ++k) {
        const VertexId p = points[rng.UniformIndex(points.size())];
        const VertexId q = rng.UniformIndex(3) == 0 ? vertex() : p;
        ASSERT_EQ(Bits(oracle.Dist(start, p)), Bits(reference.Dist(start, p)));
        ASSERT_EQ(Bits(oracle.Dist(p, dest)), Bits(reference.Dist(p, dest)));
        ASSERT_EQ(Bits(oracle.Dist(q, p)), Bits(reference.Dist(q, p)));
      }
      ExpectSameAccounting(oracle, reference);
    }
  }
  EXPECT_GT(oracle.batch_stats().settled, 0u);
}

TEST(ResumableOracleTest, DijkstraMatchesFreshSearches) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GridCityOptions opts;
    opts.rows = 14;
    opts.cols = 14;
    opts.seed = seed;
    auto g = MakeGridCity(opts);
    ASSERT_TRUE(g.ok());
    ExpectOracleMatchesFreshSearches(*g, nullptr, seed);
  }
}

TEST(ResumableOracleTest, CHMatchesFreshSearches) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RingRadialCityOptions opts;
    opts.rings = 7;
    opts.spokes = 14;
    opts.seed = seed;
    auto g = MakeRingRadialCity(opts);
    ASSERT_TRUE(g.ok());
    const CHGraph ch = CHPreprocessor(CHPreprocessorOptions{}).Build(*g);
    ExpectOracleMatchesFreshSearches(*g, &ch, seed);
  }
}

TEST(ResumableOracleTest, ResumingSettlesLessThanRestarting) {
  // Thirteen batches from one source: resuming settles each vertex at most
  // once, where restarting re-settles the whole prefix every time.
  GridCityOptions opts;
  opts.rows = 20;
  opts.cols = 20;
  auto g = MakeGridCity(opts);
  ASSERT_TRUE(g.ok());
  DistanceOracle oracle(&*g);
  Rng rng(5);
  std::size_t restarted = 0;
  DijkstraEngine fresh(&*g);
  for (int k = 0; k < 13; ++k) {
    std::vector<VertexId> targets(4);
    for (VertexId& t : targets) {
      t = static_cast<VertexId>(rng.UniformIndex(g->num_vertices()));
    }
    oracle.WarmFrom(0, targets);
    fresh.SingleSourceToTargets(0, targets);
    restarted += fresh.last_settled_count();
  }
  EXPECT_LE(oracle.batch_stats().settled, g->num_vertices());
  EXPECT_LT(oracle.batch_stats().settled, restarted);
  // A cache clear forgets the paused search: the next batch starts over.
  const std::uint64_t before = oracle.batch_stats().settled;
  oracle.ClearCache();
  const VertexId far = static_cast<VertexId>(g->num_vertices() - 1);
  oracle.WarmFrom(0, std::vector<VertexId>{far});
  fresh.SingleSourceToTargets(0, std::vector<VertexId>{far});
  EXPECT_EQ(oracle.batch_stats().settled - before,
            fresh.last_settled_count());
}

}  // namespace
}  // namespace ptar
