// In-tree slice of the kinetic-tree twin: seeded op sequences drive an
// arena tree whose branch sets, insertion candidates and bookkeeping must
// match the brute-force schedule oracle, and the capped rider must stay
// subset-sound with attributed drops. The 200-seed sweep lives in
// `ptar_check --tree_twin` (run by differential-nightly on both backends);
// this test keeps a fast slice in every ctest run, including the sanitizer
// sweeps (`-L kinetic`, `-L tsan`). The hand-built cases pin the oracle
// itself: a small world checked against hand-listed orders, and a diff
// that must report each kind of fault.

#include "check/tree_twin.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "check/schedule_oracle.h"
#include "graph/distance_oracle.h"
#include "tests/test_util.h"

namespace ptar {
namespace {

using check::DiffAgainstOracle;
using check::EnumerateSchedules;
using check::Feasible;
using check::MinTotal;
using check::OracleDiff;
using check::RunTreeTwin;
using check::TreeTwinOutcome;
using check::VehicleState;

TEST(KineticTwinTest, DijkstraSeedsAgree) {
  TreeTwinOutcome total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    total.Fold(RunTreeTwin(seed, DistanceBackend::kDijkstra, /*cap=*/8));
  }
  for (const std::string& finding : total.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_EQ(total.divergences, 0u);
  // The op mix must actually exercise the tree, not idle through it.
  EXPECT_GT(total.commits, 0u);
  EXPECT_GT(total.arrivals, 0u);
  EXPECT_GT(total.branch_checks, 0u);
  EXPECT_GT(total.candidate_checks, 0u);
}

TEST(KineticTwinTest, CHBackendAgrees) {
  TreeTwinOutcome total;
  for (std::uint64_t seed = 7; seed <= 9; ++seed) {
    total.Fold(RunTreeTwin(seed, DistanceBackend::kCH, /*cap=*/8));
  }
  for (const std::string& finding : total.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_EQ(total.divergences, 0u);
  EXPECT_GT(total.commits, 0u);
}

TEST(KineticTwinTest, TightCapDropsBranchesButStaysSubsetSound) {
  // cap=2 forces heavy dropping; subset soundness and loss attribution are
  // asserted inside RunTreeTwin after the first drop.
  TreeTwinOutcome total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    total.Fold(RunTreeTwin(seed, DistanceBackend::kDijkstra, /*cap=*/2));
  }
  for (const std::string& finding : total.findings) {
    ADD_FAILURE() << finding;
  }
  EXPECT_EQ(total.divergences, 0u);
  EXPECT_GT(total.capped_drops, 0u);
}

TEST(KineticTwinTest, UncappedTwinReportsNoDrops) {
  const TreeTwinOutcome one =
      RunTreeTwin(3, DistanceBackend::kDijkstra, /*cap=*/0);
  EXPECT_EQ(one.divergences, 0u);
  EXPECT_EQ(one.capped_drops, 0u);
  EXPECT_EQ(one.capped_losses, 0u);
}

// Two requests on the 3x3 grid (vertex r*3+c, 100 m spacing), vehicle at
// the corner 0 with room for both. r1 rides 1 -> 8 (direct 300, bound 540),
// r2 rides 3 -> 5 (direct 200, bound 360). Of the six stop orders, three
// keep both rides within bounds:
//   s1 d1 s2 d2   rides 300 / 200, total 900
//   s1 s2 d2 d1   rides 500 / 200, total 600
//   s2 d2 s1 d1   rides 300 / 200, total 800
// while s1 s2 d1 d2 (r2 rides 400), s2 s1 d2 d1 (400) and s2 s1 d1 d2
// (600) break r2's bound.
class KineticOracleTest : public ::testing::Test {
 protected:
  KineticOracleTest()
      : graph_(testing::MakeSmallGrid()),
        oracle_(&graph_),
        dist_([this](VertexId a, VertexId b) { return oracle_.Dist(a, b); }),
        tree_(0, 0, /*capacity=*/4) {
    r1_.id = 1;
    r1_.start = 1;
    r1_.destination = 8;
    r1_.riders = 1;
    r1_.max_wait_dist = 1000.0;
    r1_.epsilon = 0.8;
    r2_ = r1_;
    r2_.id = 2;
    r2_.start = 3;
    r2_.destination = 5;
    state_.location = 0;
    state_.capacity = 4;
  }

  /// Commits `r` into the tree at its oracle-minimal pickup and mirrors the
  /// assignment into `state_` the way the tree records it.
  void Commit(const Request& r) {
    AssignedRequest a;
    a.request = r;
    a.direct_dist = dist_(r.start, r.destination);
    a.deadline_odometer = kInfDistance;
    VehicleState with = state_;
    with.assigned.push_back(a);
    Distance planned = kInfDistance;
    for (const Schedule& s : EnumerateSchedules(with, dist_)) {
      const auto it = std::find_if(
          s.stops.begin(), s.stops.end(), [&](const Stop& stop) {
            return stop.request == r.id && stop.type == StopType::kPickup;
          });
      planned = std::min(planned, s.PrefixDistance(it - s.stops.begin()));
    }
    ASSERT_TRUE(tree_.Commit(r, a.direct_dist, planned, dist_).ok());
    a.deadline_odometer = state_.odometer + (planned + r.max_wait_dist);
    state_.assigned.push_back(a);
  }

  /// A schedule with the given stops and legs from the oracle.
  Schedule Make(std::initializer_list<Stop> stops) const {
    Schedule s;
    VertexId at = state_.location;
    for (const Stop& stop : stops) {
      s.stops.push_back(stop);
      s.legs.push_back(dist_(at, stop.location));
      at = stop.location;
    }
    return s;
  }

  Stop S(const Request& r) const {
    return {StopType::kPickup, r.id, r.start};
  }
  Stop D(const Request& r) const {
    return {StopType::kDropoff, r.id, r.destination};
  }

  RoadNetwork graph_;
  DistanceOracle oracle_;
  KineticTree::DistFn dist_;
  KineticTree tree_;
  VehicleState state_;
  Request r1_;
  Request r2_;
};

TEST_F(KineticOracleTest, TwoRequestsMatchHandListedOrders) {
  Commit(r1_);
  Commit(r2_);
  EXPECT_EQ(check::BookkeepingMismatch(tree_, state_), "");

  const std::vector<Schedule> valid = {Make({S(r1_), D(r1_), S(r2_), D(r2_)}),
                                       Make({S(r1_), S(r2_), D(r2_), D(r1_)}),
                                       Make({S(r2_), D(r2_), S(r1_), D(r1_)})};
  const std::vector<Schedule> invalid = {
      Make({S(r1_), S(r2_), D(r1_), D(r2_)}),
      Make({S(r2_), S(r1_), D(r2_), D(r1_)}),
      Make({S(r2_), S(r1_), D(r1_), D(r2_)})};
  for (const Schedule& s : valid) EXPECT_TRUE(Feasible(state_, s));
  for (const Schedule& s : invalid) EXPECT_FALSE(Feasible(state_, s));

  const std::vector<Schedule> oracle = EnumerateSchedules(state_, dist_);
  EXPECT_TRUE(DiffAgainstOracle(oracle, MinTotal(oracle), valid).ok());
  EXPECT_DOUBLE_EQ(MinTotal(oracle), 600.0);

  const OracleDiff tree_diff =
      DiffAgainstOracle(tree_.Schedules(), tree_.CurrentTotal(), oracle);
  for (const std::string& line : tree_diff.findings) ADD_FAILURE() << line;
  EXPECT_DOUBLE_EQ(tree_.CurrentTotal(), 600.0);
}

TEST_F(KineticOracleTest, DiffReportsMissingSchedule) {
  Commit(r1_);
  Commit(r2_);
  const std::vector<Schedule> oracle = EnumerateSchedules(state_, dist_);
  std::vector<Schedule> branches = tree_.Schedules();
  ASSERT_EQ(branches.size(), 3u);
  // Drop a non-shortest branch so only the set, not the total, differs.
  const auto longest = std::max_element(
      branches.begin(), branches.end(),
      [](const Schedule& a, const Schedule& b) { return a.total() < b.total(); });
  branches.erase(longest);
  const OracleDiff diff =
      DiffAgainstOracle(branches, tree_.CurrentTotal(), oracle);
  EXPECT_EQ(diff.missing, 1u);
  EXPECT_EQ(diff.spurious, 0u);
  EXPECT_FALSE(diff.total_mismatch);
  // A capped tree may lack it.
  EXPECT_TRUE(DiffAgainstOracle(branches, tree_.CurrentTotal(), oracle,
                                /*subset=*/true)
                  .ok());
}

TEST_F(KineticOracleTest, DiffReportsScheduleBreakingCapacity) {
  state_.capacity = 1;
  tree_ = KineticTree(0, 0, /*capacity=*/1);
  Commit(r1_);
  Commit(r2_);
  const std::vector<Schedule> oracle = EnumerateSchedules(state_, dist_);
  // With one seat, only the orders that finish one rider first remain.
  EXPECT_EQ(oracle.size(), 2u);
  std::vector<Schedule> branches = oracle;
  branches.push_back(Make({S(r1_), S(r2_), D(r2_), D(r1_)}));  // two aboard
  EXPECT_FALSE(Feasible(state_, branches.back()));
  const OracleDiff diff = DiffAgainstOracle(branches, MinTotal(oracle), oracle);
  EXPECT_EQ(diff.spurious, 1u);
  EXPECT_EQ(diff.missing, 0u);
  // A subset check reports it too: a capped tree may lose, never invent.
  EXPECT_EQ(DiffAgainstOracle(branches, MinTotal(oracle), oracle,
                              /*subset=*/true)
                .spurious,
            1u);
}

TEST_F(KineticOracleTest, DiffReportsScheduleBreakingDeadline) {
  Commit(r1_);
  Commit(r2_);
  // Tighten r1's pickup deadline to 150 m of driving: only orders that
  // pick r1 up first (at 100 m) stay valid.
  state_.assigned[0].deadline_odometer = 150.0;
  const std::vector<Schedule> oracle = EnumerateSchedules(state_, dist_);
  EXPECT_EQ(oracle.size(), 2u);
  std::vector<Schedule> branches = oracle;
  branches.push_back(Make({S(r2_), D(r2_), S(r1_), D(r1_)}));  // r1 at 500
  const OracleDiff diff = DiffAgainstOracle(branches, MinTotal(oracle), oracle);
  EXPECT_EQ(diff.spurious, 1u);
  EXPECT_EQ(diff.missing, 0u);
}

TEST_F(KineticOracleTest, DiffReportsLegDriftAfterCorruption) {
  Commit(r1_);
  Commit(r2_);
  const std::vector<Schedule> oracle = EnumerateSchedules(state_, dist_);
  const Schedule before = tree_.BranchSchedule(0);
  tree_.CorruptLegForTest(0, 1, before.legs[1] + 5.0);
  const OracleDiff diff =
      DiffAgainstOracle(tree_.Schedules(), tree_.CurrentTotal(), oracle);
  EXPECT_GE(diff.drift, 1u);
  EXPECT_EQ(diff.missing, 0u);
  EXPECT_EQ(diff.spurious, 0u);
}

TEST_F(KineticOracleTest, ReportsBookkeepingMismatch) {
  Commit(r1_);
  EXPECT_EQ(check::BookkeepingMismatch(tree_, state_), "");
  VehicleState wrong = state_;
  wrong.assigned[0].deadline_odometer += 1.0;
  EXPECT_NE(check::BookkeepingMismatch(tree_, wrong).find(
                "deadline_odometer"),
            std::string::npos);
  wrong = state_;
  wrong.odometer += 1.0;
  EXPECT_EQ(check::BookkeepingMismatch(tree_, wrong), "odometer mismatch");
}

}  // namespace
}  // namespace ptar
