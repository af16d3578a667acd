// Tests for the Dijkstra engine, including a randomized property sweep
// against a Floyd-Warshall oracle.

#include "graph/dijkstra.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

TEST(DijkstraTest, TrivialSameVertex) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DijkstraEngine engine(&g);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(4, 4), 0.0);
}

TEST(DijkstraTest, GridDistances) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(0, 8), 400.0);  // corner to corner
  EXPECT_DOUBLE_EQ(engine.PointToPoint(0, 4), 200.0);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(3, 5), 200.0);
}

TEST(DijkstraTest, UnreachableReturnsInfinity) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  EXPECT_EQ(engine.PointToPoint(0, 2), kInfDistance);
}

TEST(DijkstraTest, SingleSourceMatchesPointToPoint) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(40, 60, 3);
  DijkstraEngine full(&g);
  DijkstraEngine p2p(&g);
  full.SingleSource(0);
  // Snapshot before p2p runs invalidate nothing (separate engines).
  for (VertexId t = 0; t < g.num_vertices(); ++t) {
    EXPECT_DOUBLE_EQ(full.Dist(t), p2p.PointToPoint(0, t)) << "t=" << t;
  }
}

TEST(DijkstraTest, PathReconstructionIsConsistent) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(30, 40, 11);
  DijkstraEngine engine(&g);
  const Distance d = engine.PointToPoint(0, 17);
  const std::vector<VertexId> path = engine.PathTo(17);
  ASSERT_GE(path.size(), 1u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 17u);
  // Sum of edge weights along the path equals the reported distance.
  Distance sum = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Distance best = kInfDistance;
    for (const Arc& a : g.OutArcs(path[i])) {
      if (a.head == path[i + 1]) best = std::min(best, a.weight);
    }
    ASSERT_NE(best, kInfDistance);
    sum += best;
  }
  EXPECT_NEAR(sum, d, 1e-9);
}

TEST(DijkstraTest, PathToUnreachedIsEmpty) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});
  b.AddEdge(0, 1, 1.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  engine.PointToPoint(0, 2);
  EXPECT_TRUE(engine.PathTo(2).empty());
}

TEST(DijkstraTest, TargetsStopEarlyButAreExact) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(60, 80, 5);
  DijkstraEngine engine(&g);
  DijkstraEngine reference(&g);
  reference.SingleSource(3);
  const std::vector<VertexId> targets = {7, 19, 42};
  engine.SingleSourceToTargets(3, targets);
  for (const VertexId t : targets) {
    EXPECT_DOUBLE_EQ(engine.Dist(t), reference.Dist(t));
    EXPECT_TRUE(engine.Settled(t));
  }
}

TEST(DijkstraTest, TargetsWithDuplicates) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DijkstraEngine engine(&g);
  const std::vector<VertexId> targets = {8, 8, 8};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
}

TEST(DijkstraTest, TargetsDisconnectedAreInfinity) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddVertex(Coord{2, 0});  // isolated
  b.AddVertex(Coord{3, 0});  // isolated
  b.AddEdge(0, 1, 5.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  // The run must terminate (heap exhaustion) even though two targets can
  // never be settled, and reachable targets must still be exact.
  const std::vector<VertexId> targets = {1, 2, 3};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(1), 5.0);
  EXPECT_TRUE(engine.Settled(1));
  EXPECT_EQ(engine.Dist(2), kInfDistance);
  EXPECT_FALSE(engine.Settled(2));
  EXPECT_EQ(engine.Dist(3), kInfDistance);
  EXPECT_FALSE(engine.Settled(3));
}

TEST(DijkstraTest, TargetsContainingSource) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  const std::vector<VertexId> targets = {0, 8};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 0.0);
  EXPECT_TRUE(engine.Settled(0));
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
  EXPECT_TRUE(engine.Settled(8));
}

TEST(DijkstraTest, TargetsOnlySource) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  const std::vector<VertexId> targets = {4, 4};
  engine.SingleSourceToTargets(4, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(4), 0.0);
  EXPECT_TRUE(engine.Settled(4));
  // A later unrelated run must not be confused by the degenerate one.
  engine.SingleSourceToTargets(0, std::vector<VertexId>{8});
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
}

TEST(DijkstraTest, TargetsMixedDuplicatesSourceAndUnreachable) {
  RoadNetwork::Builder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(Coord{double(i), 0});
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 2.0);
  b.AddEdge(3, 4, 1.0);  // separate component
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  const std::vector<VertexId> targets = {2, 0, 2, 4, 0, 4};
  engine.SingleSourceToTargets(0, targets);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 0.0);
  EXPECT_DOUBLE_EQ(engine.Dist(2), 3.0);
  EXPECT_EQ(engine.Dist(4), kInfDistance);
}

TEST(DijkstraTest, TargetsMatchBitIdenticalPointToPoint) {
  // The batched distance engine relies on a sweep settling every target
  // with exactly the value an early-terminated point-to-point run reports.
  const RoadNetwork g = testing::MakeRandomConnectedGraph(60, 90, 29);
  DijkstraEngine sweep(&g);
  DijkstraEngine p2p(&g);
  const VertexId source = 31;
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g.num_vertices(); t += 4) targets.push_back(t);
  sweep.SingleSourceToTargets(source, targets);
  std::vector<Distance> swept;
  swept.reserve(targets.size());
  for (const VertexId t : targets) swept.push_back(sweep.Dist(t));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Distance direct = p2p.PointToPoint(source, targets[i]);
    EXPECT_EQ(swept[i], direct) << "t=" << targets[i];  // exact bits
  }
}

TEST(DijkstraTest, BoundedStopsAtRadius) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  engine.BoundedSingleSource(0, 150.0);
  EXPECT_TRUE(engine.Settled(1));
  EXPECT_TRUE(engine.Settled(3));
  EXPECT_FALSE(engine.Settled(8));  // 400 away
}

TEST(DijkstraTest, MultiSourceMinimum) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  const std::vector<DijkstraSource> sources = {{0, 0.0, 1}, {8, 0.0, 2}};
  engine.MultiSource(sources);
  // Vertex 1 is 100 from source 0 and 300 from source 8.
  EXPECT_DOUBLE_EQ(engine.Dist(1), 100.0);
  EXPECT_EQ(engine.SourceLabel(1), 1u);
  EXPECT_DOUBLE_EQ(engine.Dist(7), 100.0);
  EXPECT_EQ(engine.SourceLabel(7), 2u);
}

TEST(DijkstraTest, MultiSourceOffsets) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  // Source 0 handicapped by 500: source 8 wins everywhere.
  const std::vector<DijkstraSource> sources = {{0, 500.0, 1}, {8, 0.0, 2}};
  engine.MultiSource(sources);
  EXPECT_EQ(engine.SourceLabel(0), 2u);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 400.0);
}

TEST(DijkstraTest, ReuseAcrossManyRuns) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(25, 30, 17);
  DijkstraEngine engine(&g);
  DijkstraEngine reference(&g);
  const auto fw = testing::FloydWarshall(g);
  // Interleave run types to exercise the stamp machinery.
  for (int round = 0; round < 50; ++round) {
    const VertexId s = round % g.num_vertices();
    const VertexId t = (round * 7 + 3) % g.num_vertices();
    EXPECT_NEAR(engine.PointToPoint(s, t), fw[s][t], 1e-9);
    engine.SingleSource(t);
    EXPECT_NEAR(engine.Dist(s), fw[t][s], 1e-9);
  }
}

TEST(DijkstraTest, MultiSourceWithNoSourcesReachesNothing) {
  const RoadNetwork g = testing::MakeSmallGrid();
  DijkstraEngine engine(&g);
  engine.MultiSource({});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(engine.Dist(v), kInfDistance);
    EXPECT_FALSE(engine.Settled(v));
  }
}

TEST(DijkstraTest, BoundedRadiusZeroSettlesOnlySource) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  engine.BoundedSingleSource(4, 0.0);
  EXPECT_TRUE(engine.Settled(4));
  EXPECT_DOUBLE_EQ(engine.Dist(4), 0.0);
  EXPECT_FALSE(engine.Settled(1));
}

TEST(DijkstraTest, SettledCountTracksWork) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  engine.SingleSource(0);
  EXPECT_EQ(engine.last_settled_count(), g.num_vertices());
  engine.PointToPoint(0, 1);  // adjacent: stops early
  EXPECT_LT(engine.last_settled_count(), g.num_vertices());
}

TEST(DijkstraTest, ParallelEdgesUseTheCheapest) {
  RoadNetwork::Builder b;
  b.AddVertex(Coord{0, 0});
  b.AddVertex(Coord{1, 0});
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(0, 1, 3.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(&*g);
  EXPECT_DOUBLE_EQ(engine.PointToPoint(0, 1), 3.0);
}

// --- Resumable runs: every segment bit-identical to a fresh run. ---

std::uint64_t Bits(Distance d) { return std::bit_cast<std::uint64_t>(d); }

/// Resumes one run from `source` through `segments` and checks each
/// segment's targets (distance bits, settledness, path) against a fresh
/// SingleSourceToTargets on a second engine. Also checks that resuming does
/// no repeated work: the segments together settle exactly what one fresh
/// run to the union of their targets settles.
void ExpectResumedMatchesFresh(
    const RoadNetwork& g, VertexId source,
    const std::vector<std::vector<VertexId>>& segments) {
  DijkstraEngine resumed(&g);
  DijkstraEngine fresh(&g);
  resumed.BeginResumable(source);
  std::size_t resumed_settled = 0;
  std::vector<VertexId> all_targets;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    SCOPED_TRACE("segment " + std::to_string(k));
    resumed.ResumeToTargets(segments[k]);
    resumed_settled += resumed.last_settled_count();
    fresh.SingleSourceToTargets(source, segments[k]);
    for (const VertexId t : segments[k]) {
      ASSERT_EQ(Bits(resumed.Dist(t)), Bits(fresh.Dist(t))) << "t=" << t;
      ASSERT_EQ(resumed.Settled(t), fresh.Settled(t)) << "t=" << t;
      ASSERT_EQ(resumed.PathTo(t), fresh.PathTo(t)) << "t=" << t;
    }
    all_targets.insert(all_targets.end(), segments[k].begin(),
                       segments[k].end());
  }
  fresh.SingleSourceToTargets(source, all_targets);
  EXPECT_EQ(resumed_settled, fresh.last_settled_count());
}

/// About 13 small segments in the shape the matchers issue (cell batches
/// from one request endpoint), salted with the edge cases a resume must
/// handle: duplicates, the source itself, targets earlier segments already
/// settled, and the previous segment's last-settled (unrelaxed) vertex and
/// its neighbors.
std::vector<std::vector<VertexId>> MakeSegments(const RoadNetwork& g,
                                                VertexId source,
                                                std::uint64_t seed) {
  Rng rng(seed);
  DijkstraEngine probe(&g);
  const auto random_vertex = [&] {
    return static_cast<VertexId>(rng.UniformIndex(g.num_vertices()));
  };
  std::vector<std::vector<VertexId>> segments;
  for (int k = 0; k < 13; ++k) {
    std::vector<VertexId> batch;
    const std::size_t size = 1 + rng.UniformIndex(10);
    for (std::size_t i = 0; i < size; ++i) batch.push_back(random_vertex());
    if (rng.UniformIndex(3) == 0) batch.push_back(batch.front());
    if (rng.UniformIndex(5) == 0) batch.push_back(source);
    if (!segments.empty()) {
      const std::vector<VertexId>& prev = segments.back();
      if (rng.UniformIndex(2) == 0) {
        batch.push_back(prev[rng.UniformIndex(prev.size())]);
      }
      // The previous segment stops at its farthest reachable target,
      // settled but with its arcs not yet relaxed.
      probe.SingleSourceToTargets(source, prev);
      VertexId last = kInvalidVertex;
      for (const VertexId t : prev) {
        if (probe.Dist(t) == kInfDistance) continue;
        if (last == kInvalidVertex || probe.Dist(t) > probe.Dist(last)) {
          last = t;
        }
      }
      if (last != kInvalidVertex && rng.UniformIndex(2) == 0) {
        batch.push_back(last);
        for (const Arc& arc : g.OutArcs(last)) batch.push_back(arc.head);
      }
    }
    segments.push_back(std::move(batch));
  }
  return segments;
}

TEST(DijkstraResumeTest, GridCitySegmentsMatchFreshRuns) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GridCityOptions opts;
    opts.rows = 12;
    opts.cols = 12;
    opts.seed = seed;
    auto g = MakeGridCity(opts);
    ASSERT_TRUE(g.ok());
    Rng rng(testing::DeriveSeed(seed, 1));
    const auto source =
        static_cast<VertexId>(rng.UniformIndex(g->num_vertices()));
    ExpectResumedMatchesFresh(*g, source,
                              MakeSegments(*g, source, seed));
  }
}

TEST(DijkstraResumeTest, RingRadialCitySegmentsMatchFreshRuns) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RingRadialCityOptions opts;
    opts.rings = 6;
    opts.spokes = 12;
    opts.seed = seed;
    auto g = MakeRingRadialCity(opts);
    ASSERT_TRUE(g.ok());
    Rng rng(testing::DeriveSeed(seed, 2));
    const auto source =
        static_cast<VertexId>(rng.UniformIndex(g->num_vertices()));
    ExpectResumedMatchesFresh(*g, source,
                              MakeSegments(*g, source, seed));
  }
}

TEST(DijkstraResumeTest, DisconnectedGraphSegmentsMatchFreshRuns) {
  // Two random components: a segment with targets in the other component
  // drains the source's component, and later segments resume a finished
  // run.
  const RoadNetwork a = testing::MakeRandomConnectedGraph(30, 20, 41);
  const RoadNetwork b = testing::MakeRandomConnectedGraph(12, 6, 42);
  RoadNetwork::Builder builder;
  for (const RoadNetwork* part : {&a, &b}) {
    const auto base = static_cast<VertexId>(builder.num_vertices());
    for (VertexId v = 0; v < part->num_vertices(); ++v) {
      builder.AddVertex(part->position(v));
    }
    for (EdgeId e = 0; e < part->num_edges(); ++e) {
      builder.AddEdge(base + part->EdgeU(e), base + part->EdgeV(e),
                      part->EdgeWeight(e));
    }
  }
  auto g = std::move(builder).Build();
  ASSERT_TRUE(g.ok());
  const VertexId source = 5;
  const std::vector<std::vector<VertexId>> segments = {
      {3, 7},         {31, 35, 3},  // 31.. lie in the other component
      {12, 12, 40},   {source, 7},  {29, 28, 27, 1},
      {33},           {0, 29}};
  ExpectResumedMatchesFresh(*g, source, segments);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectResumedMatchesFresh(*g, source, MakeSegments(*g, source, seed));
  }
}

TEST(DijkstraResumeTest, ResumeAfterDegenerateSegments) {
  const RoadNetwork g = testing::MakeSmallGrid(100.0);
  DijkstraEngine engine(&g);
  engine.BeginResumable(0);
  engine.ResumeToTargets({});
  EXPECT_EQ(engine.last_settled_count(), 0u);
  engine.ResumeToTargets(std::vector<VertexId>{0});
  EXPECT_EQ(engine.last_settled_count(), 1u);
  engine.ResumeToTargets(std::vector<VertexId>{0, 0});
  EXPECT_EQ(engine.last_settled_count(), 0u);  // already settled
  engine.ResumeToTargets(std::vector<VertexId>{8});
  EXPECT_DOUBLE_EQ(engine.Dist(8), 400.0);
  EXPECT_DOUBLE_EQ(engine.Dist(0), 0.0);
  // A new run discards the paused one.
  engine.SingleSourceToTargets(8, std::vector<VertexId>{6});
  EXPECT_DOUBLE_EQ(engine.Dist(6), 200.0);
  EXPECT_EQ(engine.Dist(0), kInfDistance);
}

// Property sweep: Dijkstra (all variants) vs. Floyd-Warshall on random
// connected graphs of varying density.
class DijkstraPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(DijkstraPropertyTest, MatchesFloydWarshall) {
  const auto [n, extra, seed] = GetParam();
  const RoadNetwork g = testing::MakeRandomConnectedGraph(n, extra, seed);
  const auto fw = testing::FloydWarshall(g);
  DijkstraEngine engine(&g);
  for (VertexId s = 0; s < g.num_vertices(); s += 3) {
    engine.SingleSource(s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      EXPECT_NEAR(engine.Dist(t), fw[s][t], 1e-9)
          << "s=" << s << " t=" << t;
    }
  }
  for (VertexId s = 1; s < g.num_vertices(); s += 7) {
    for (VertexId t = 0; t < g.num_vertices(); t += 5) {
      EXPECT_NEAR(engine.PointToPoint(s, t), fw[s][t], 1e-9)
          << "s=" << s << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DijkstraPropertyTest,
    ::testing::Values(std::make_tuple(15, 0, 1),    // tree
                      std::make_tuple(20, 10, 2),   // sparse
                      std::make_tuple(25, 60, 3),   // dense
                      std::make_tuple(40, 40, 4),
                      std::make_tuple(50, 120, 5),
                      std::make_tuple(30, 30, 6),
                      std::make_tuple(35, 200, 7)));  // very dense

}  // namespace
}  // namespace ptar
