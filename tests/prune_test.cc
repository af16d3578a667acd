// GeoPrune property tests: ellipse-containment axioms, a brute-force fuzz
// of the fast-reject containment predicate, calibration soundness of the
// Euclidean lower bound against exact shortest paths, candidate-enumeration
// parity between the matchers and the grid-scan ladder, and end-to-end
// prune-soundness (pruned and unpruned skylines must be identical — and a
// deliberately shrunk ellipse must diverge and be attributed to the prune
// stage). Registered under the compound `prune-tsan` CTest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "check/differential.h"
#include "common/random.h"
#include "graph/generators.h"
#include "grid/grid_index.h"
#include "prune/ellipse.h"
#include "prune/ellipse_prefilter.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ellipse_matcher.h"
#include "rideshare/matcher_internal.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"
#include "tests/scenario_builder.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

using prune::Contains;
using prune::Ellipse;
using prune::EllipsePrefilter;
using prune::EuclideanDistance;
using prune::FocalDistance;
using prune::FocalSum;
using prune::IsEmpty;
using prune::kContainmentTolerance;

constexpr double kTol = kContainmentTolerance;

// ---------------------------------------------------------------------------
// Containment axioms (pure geometry).

TEST(EllipseTest, FociAreSymmetric) {
  const Ellipse e{{10.0, 20.0}, {110.0, -40.0}, 150.0};
  const Ellipse swapped{e.f2, e.f1, e.sum_bound};
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const Coord p{rng.UniformReal(-200.0, 300.0),
                  rng.UniformReal(-200.0, 300.0)};
    EXPECT_EQ(Contains(e, p), Contains(swapped, p));
    EXPECT_DOUBLE_EQ(FocalSum(e, p), FocalSum(swapped, p));
  }
}

TEST(EllipseTest, ContainmentIsMonotoneInSlack) {
  // Growing sum_bound never evicts a point: the feasible set is nested in
  // the detour allowance, which is what lets the matcher check the
  // tightest bound first.
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    Ellipse e{{rng.UniformReal(0.0, 100.0), rng.UniformReal(0.0, 100.0)},
              {rng.UniformReal(0.0, 100.0), rng.UniformReal(0.0, 100.0)},
              rng.UniformReal(0.0, 300.0)};
    const Coord p{rng.UniformReal(-100.0, 200.0),
                  rng.UniformReal(-100.0, 200.0)};
    if (!Contains(e, p)) continue;
    e.sum_bound += rng.UniformReal(0.0, 100.0);
    EXPECT_TRUE(Contains(e, p));
  }
}

TEST(EllipseTest, BoundaryPointsAreInsideWithinTolerance) {
  // Foci (0,0) and (100,0), bound 140: the major axis crosses x = 120
  // exactly on the boundary (focal sum 120 + 20 = 140).
  const Ellipse e{{0.0, 0.0}, {100.0, 0.0}, 140.0};
  EXPECT_TRUE(Contains(e, Coord{120.0, 0.0}));
  EXPECT_TRUE(Contains(e, Coord{-20.0, 0.0}));
  // Both foci are always inside a non-empty ellipse.
  EXPECT_TRUE(Contains(e, e.f1));
  EXPECT_TRUE(Contains(e, e.f2));
  // Beyond the tolerance cushion the point is out.
  EXPECT_FALSE(Contains(e, Coord{120.001, 0.0}));
}

TEST(EllipseTest, FuzzContainsAgreesWithBruteForceFocalSum) {
  // The fast-reject in Contains (bail on |p-f1| alone) must be invisible:
  // 10k random (ellipse, point) pairs against the unshortcut definition.
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const Ellipse e{{rng.UniformReal(-500.0, 500.0),
                     rng.UniformReal(-500.0, 500.0)},
                    {rng.UniformReal(-500.0, 500.0),
                     rng.UniformReal(-500.0, 500.0)},
                    rng.UniformReal(0.0, 1500.0)};
    const Coord p{rng.UniformReal(-1000.0, 1000.0),
                  rng.UniformReal(-1000.0, 1000.0)};
    const bool brute = FocalSum(e, p) <= e.sum_bound + kTol;
    EXPECT_EQ(Contains(e, p), brute)
        << "focal sum " << FocalSum(e, p) << " vs bound " << e.sum_bound;
  }
}

TEST(EllipseTest, CoincidentFociGiveDisc) {
  // src == dst degenerates to a disc of radius sum_bound / 2.
  const Ellipse disc{{50.0, 50.0}, {50.0, 50.0}, 10.0};
  EXPECT_FALSE(IsEmpty(disc));
  EXPECT_TRUE(Contains(disc, Coord{50.0, 54.9}));
  EXPECT_TRUE(Contains(disc, Coord{55.0, 50.0}));  // boundary
  EXPECT_FALSE(Contains(disc, Coord{50.0, 55.1}));
}

TEST(EllipseTest, ZeroSlackGivesFocalSegment) {
  // sum_bound == |f1 - f2|: exactly the segment between the foci survives.
  const Ellipse seg{{0.0, 0.0}, {100.0, 0.0}, 100.0};
  EXPECT_FALSE(IsEmpty(seg));
  EXPECT_TRUE(Contains(seg, Coord{0.0, 0.0}));
  EXPECT_TRUE(Contains(seg, Coord{50.0, 0.0}));
  EXPECT_TRUE(Contains(seg, Coord{100.0, 0.0}));
  EXPECT_FALSE(Contains(seg, Coord{50.0, 1.0}));
  EXPECT_FALSE(Contains(seg, Coord{-1.0, 0.0}));
}

TEST(EllipseTest, SubFocalBoundIsEmpty) {
  const Ellipse empty{{0.0, 0.0}, {100.0, 0.0}, 99.0};
  EXPECT_TRUE(IsEmpty(empty));
  // No point can have a focal sum below the focal distance.
  EXPECT_FALSE(Contains(empty, Coord{50.0, 0.0}));
  EXPECT_FALSE(Contains(empty, empty.f1));
}

// ---------------------------------------------------------------------------
// Calibration soundness: alpha * euc must never exceed the true network
// distance, on jittered grid cities and on random connected graphs.

void ExpectLowerBoundSound(const RoadNetwork& g) {
  const EllipsePrefilter filter = EllipsePrefilter::Build(g);
  const std::vector<std::vector<Distance>> dist = testing::FloydWarshall(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (dist[u][v] == kInfDistance) continue;  // trivially consistent
      ASSERT_LE(filter.LowerBound(u, v), dist[u][v] + 1e-9)
          << "u=" << u << " v=" << v << " alpha=" << filter.alpha();
    }
  }
}

TEST(EllipsePrefilterTest, LowerBoundNeverExceedsNetworkDistanceOnGridCity) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    GridCityOptions copts;
    copts.rows = 6;
    copts.cols = 6;
    copts.seed = seed;
    auto g = MakeGridCity(copts);
    ASSERT_TRUE(g.ok());
    ExpectLowerBoundSound(g.value());
  }
}

TEST(EllipsePrefilterTest, LowerBoundNeverExceedsNetworkDistanceOnRandom) {
  // Random weights are uncorrelated with the embedding, so alpha has to do
  // all the work here.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ExpectLowerBoundSound(testing::MakeRandomConnectedGraph(
        40, 30, testing::DeriveSeed(seed, 1)));
  }
}

TEST(EllipsePrefilterTest, FeasibleEllipseMatchesDetourLowerBound) {
  // Containment of position(via) in FeasibleEllipse(a, b, B) must be the
  // same predicate as DetourLowerBound(a, via, b) <= B — the matcher uses
  // the latter form, the ablation suite the former.
  const RoadNetwork g = testing::MakeRandomConnectedGraph(30, 20, 99);
  const EllipsePrefilter filter = EllipsePrefilter::Build(g);
  ASSERT_GT(filter.alpha(), 0.0);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<VertexId>(rng.UniformIndex(g.num_vertices()));
    const auto b = static_cast<VertexId>(rng.UniformIndex(g.num_vertices()));
    const auto via =
        static_cast<VertexId>(rng.UniformIndex(g.num_vertices()));
    const double budget = rng.UniformReal(0.0, 2000.0);
    const Ellipse e = filter.FeasibleEllipse(a, b, budget);
    // The ellipse lives in raw coordinate space with the budget divided by
    // the calibration scale; tolerance scales the same way.
    const bool by_ellipse = Contains(e, g.position(via), kTol);
    const bool by_bound =
        filter.DetourLowerBound(a, via, b) <=
        budget + kTol * (filter.alpha() / filter.shrink_factor());
    EXPECT_EQ(by_ellipse, by_bound) << "a=" << a << " b=" << b
                                    << " via=" << via;
  }
}

TEST(EllipsePrefilterTest, ShrinkFactorInflatesTheBound) {
  const RoadNetwork g = testing::MakeRandomConnectedGraph(20, 10, 7);
  EllipsePrefilter::Options shrunk;
  shrunk.shrink_factor = 0.5;
  const EllipsePrefilter sound = EllipsePrefilter::Build(g);
  const EllipsePrefilter faulty = EllipsePrefilter::Build(g, shrunk);
  EXPECT_DOUBLE_EQ(sound.alpha(), faulty.alpha());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_DOUBLE_EQ(faulty.LowerBound(0, u), 2.0 * sound.LowerBound(0, u));
  }
}

TEST(EllipsePrefilterTest, DegenerateGraphDisablesFilterSoundly) {
  // Every vertex at the same coordinate: no edge has a positive chord, so
  // calibration is impossible and the filter must fall back to the trivial
  // lower bound 0 (never pruning) instead of crashing or over-pruning.
  RoadNetwork::Builder b;
  b.AddVertex(Coord{5.0, 5.0});
  b.AddVertex(Coord{5.0, 5.0});
  b.AddEdge(0, 1, 42.0);
  auto g = std::move(b).Build();
  ASSERT_TRUE(g.ok());
  const EllipsePrefilter filter = EllipsePrefilter::Build(g.value());
  EXPECT_EQ(filter.alpha(), 0.0);
  EXPECT_EQ(filter.LowerBound(0, 1), 0.0);
  const Ellipse e = filter.FeasibleEllipse(0, 1, 10.0);
  EXPECT_FALSE(IsEmpty(e));
  EXPECT_TRUE(Contains(e, Coord{1e9, -1e9}));  // all-containing
}

// ---------------------------------------------------------------------------
// Candidate-enumeration parity: the matchers' empty-vehicle base set and
// the grid-scan ladder must come from the same helper, so the helper must
// agree exactly with the spelled-out capacity filter on live fleet state.

struct Scenario {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
  std::vector<Request> requests;
};

Scenario MakeScenario(std::uint64_t seed) {
  Scenario sc;
  GridCityOptions copts;
  copts.rows = 8;
  copts.cols = 8;
  copts.seed = seed;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  sc.graph = std::move(g).value();
  auto grid = GridIndex::Build(&sc.graph, {.cell_size_meters = 300.0});
  PTAR_CHECK(grid.ok());
  sc.grid = std::make_unique<GridIndex>(std::move(grid).value());
  WorkloadOptions wopts;
  wopts.num_requests = 15;
  wopts.duration_seconds = 600.0;
  wopts.epsilon = 0.5;
  wopts.waiting_minutes = 3.0;
  wopts.seed = testing::DeriveSeed(seed, 2);
  auto reqs = GenerateWorkload(sc.graph, wopts);
  PTAR_CHECK(reqs.ok());
  sc.requests = std::move(reqs).value();
  return sc;
}

TEST(CandidateParityTest, HelperMatchesManualCapacityFilterAcross20Seeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario sc = MakeScenario(seed);
    EngineOptions eopts;
    eopts.num_vehicles = 12;
    eopts.seed = testing::DeriveSeed(seed, 3);
    Engine engine(&sc.graph, sc.grid.get(), eopts);
    SsaMatcher ssa(1.0);
    std::vector<Matcher*> matchers = {&ssa};

    for (const Request& request : sc.requests) {
      MatchContext ctx;
      ctx.grid = sc.grid.get();
      ctx.registry = &engine.registry();
      ctx.fleet = &engine.fleet();
      internal::RequestEnv env;
      env.request = &request;

      std::vector<char> emitted(engine.fleet().size(), 0);
      if (!engine.fleet().empty()) emitted[0] = 1;  // exercise dedup skip
      for (const CellId cell : sc.grid->active_cells()) {
        std::vector<VehicleId> manual;
        std::size_t manual_skipped = 0;
        for (const VehicleId v : CtxEmptyVehicles(ctx, cell)) {
          if (emitted[v]) continue;
          if ((*ctx.fleet)[v].capacity() < request.riders) {
            ++manual_skipped;
            continue;
          }
          manual.push_back(v);
        }
        std::vector<VehicleId> helper;
        const std::size_t helper_skipped = internal::AppendBoardableEmpties(
            cell, env, ctx, emitted, &helper);
        ASSERT_EQ(helper, manual) << "seed " << seed << " cell " << cell;
        ASSERT_EQ(helper_skipped, manual_skipped);

        // Grid-scan ladder path: empty `emitted` span means no dedup.
        std::vector<VehicleId> no_dedup;
        internal::AppendBoardableEmpties(cell, env, ctx, {}, &no_dedup);
        std::vector<VehicleId> manual_all;
        for (const VehicleId v : CtxEmptyVehicles(ctx, cell)) {
          if ((*ctx.fleet)[v].capacity() >= request.riders) {
            manual_all.push_back(v);
          }
        }
        ASSERT_EQ(no_dedup, manual_all);
      }
      engine.ProcessRequest(request, matchers);  // evolve fleet state
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end prune soundness via the differential harness.

check::MatcherFactory PrunedFactory(double shrink_factor) {
  return [shrink_factor] {
    EllipsePrefilter::Options popts;
    popts.shrink_factor = shrink_factor;
    std::vector<std::unique_ptr<Matcher>> matchers;
    matchers.push_back(std::make_unique<BaselineMatcher>());
    matchers.push_back(std::make_unique<PrunedMatcher>(
        std::make_unique<BaselineMatcher>(), popts));
    matchers.push_back(std::make_unique<PrunedMatcher>(
        std::make_unique<SsaMatcher>(1.0), popts));
    matchers.push_back(std::make_unique<PrunedMatcher>(
        std::make_unique<DsaMatcher>(1.0), popts));
    matchers.push_back(std::make_unique<EllipseMatcher>(popts));
    return matchers;
  };
}

TEST(PruneSoundnessTest, PrunedSkylinesMatchUnprunedReference) {
  const check::DifferentialConfig config;
  const check::MatcherFactory factory = PrunedFactory(1.0);
  std::uint64_t ellipse_checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const check::ScenarioSpec spec = check::MakeRandomSpec(seed);
    auto outcome = check::RunDifferential(spec, config, factory);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    for (const check::Divergence& d : outcome.value().divergences) {
      ADD_FAILURE() << "seed " << seed << ": " << d.Describe();
    }
    for (const check::MatcherSummary& m : outcome.value().matchers) {
      ellipse_checked += m.totals.ellipse_checked;
    }
  }
  // The sweep only means something if the prefilter actually ran.
  EXPECT_GT(ellipse_checked, 0u);
}

TEST(PruneSoundnessTest, ShrunkEllipseIsCaughtAndAttributed) {
  // The ShrinkEllipse fault makes the bound inflate past the true network
  // distance, so options go missing — and the divergence must carry the
  // ellipse_pruned counter that pins the loss on the prune stage.
  const check::DifferentialConfig config;
  const check::MatcherFactory factory = PrunedFactory(0.5);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const check::ScenarioSpec spec = check::MakeRandomSpec(seed);
    auto outcome = check::RunDifferential(spec, config, factory);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.value().ok()) continue;
    const check::Divergence& first = outcome.value().divergences.front();
    EXPECT_EQ(first.type, check::DivergenceType::kMissingOption)
        << first.Describe();
    EXPECT_GT(first.ellipse_pruned, 0u) << first.Describe();
    return;  // caught — done
  }
  FAIL() << "ShrinkEllipse(0.5) produced no divergence in 20 seeds";
}

// The prefilter is installed on every MatchContext the wave core builds,
// so RunPipelined prunes too — at any worker count, without changing a
// single commit.
TEST(PruneSoundnessTest, PipelinedEllipseCommitsEqualUnprunedRun) {
  const testing::GridWorld world = testing::MakeGridWorld();
  const std::vector<Request> requests = testing::MakeRequestStream(
      *world.graph, {.num_requests = 40, .duration_seconds = 300.0,
                     .seed = 21});
  struct Piped {
    std::vector<CommitRecord> log;
    std::uint64_t ellipse_checked = 0;
  };
  const auto run = [&](PruneMode prune, int engine_threads) {
    EngineOptions eopts;
    eopts.num_vehicles = 20;
    eopts.seed = 7;
    eopts.engine_threads = engine_threads;
    eopts.wave_size = 4;  // Pinned: commits depend on it, not on threads.
    eopts.audit_after_commit = false;
    eopts.prune = prune;
    Engine engine(world.graph.get(), world.grid.get(), eopts);
    Piped out;
    engine.RunPipelined(
        requests, [] { return std::make_unique<SsaMatcher>(1.0); },
        &out.log);
    out.ellipse_checked = engine.metrics().Counter("prune/ellipse_checked");
    return out;
  };

  const Piped reference = run(PruneMode::kNone, 1);
  ASSERT_EQ(reference.log.size(), requests.size());
  EXPECT_EQ(reference.ellipse_checked, 0u);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " engine threads");
    const Piped pruned = run(PruneMode::kEllipse, threads);
    EXPECT_EQ(pruned.log, reference.log);
    EXPECT_GT(pruned.ellipse_checked, 0u);
  }
}

}  // namespace
}  // namespace ptar
