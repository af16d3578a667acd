#include "check/tree_twin.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "check/scenario.h"
#include "common/logging.h"
#include "graph/ch_graph.h"
#include "graph/ch_preprocessor.h"
#include "graph/dijkstra.h"
#include "kinetic/tree_auditor.h"

namespace ptar::check {

namespace {

/// SplitMix64: deterministic op-stream generator.
std::uint64_t NextRand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Trip distance to `id`'s pickup in `schedule` (kInfDistance if absent).
Distance PickupPrefix(const Schedule& schedule, RequestId id) {
  Distance prefix = 0.0;
  for (std::size_t i = 0; i < schedule.stops.size(); ++i) {
    prefix += schedule.legs[i];
    if (schedule.stops[i].request == id &&
        schedule.stops[i].type == StopType::kPickup) {
      return prefix;
    }
  }
  return kInfDistance;
}

/// Collects divergence findings for one seeded run; formats every line with
/// the (seed, op) coordinates needed to replay it.
class TwinChecker {
 public:
  TwinChecker(std::uint64_t seed, TreeTwinOutcome* outcome)
      : seed_(seed), outcome_(outcome) {}

  void SetOp(std::uint64_t op, const char* what) {
    op_ = op;
    what_ = what;
  }

  bool failed() const { return failed_; }

  void Fail(const std::string& detail) {
    std::ostringstream os;
    os << "seed=" << seed_ << " op=" << op_ << " (" << what_ << "): "
       << detail;
    outcome_->findings.push_back(os.str());
    outcome_->divergences++;
    failed_ = true;
  }

  void Bookkeeping(const char* which, const KineticTree& tree,
                   const VehicleState& state) {
    if (failed_) return;
    const std::string mismatch = BookkeepingMismatch(tree, state);
    if (!mismatch.empty()) Fail(std::string(which) + " " + mismatch);
  }

  void Diff(const std::string& what, const std::vector<Schedule>& got,
            Distance got_total, const std::vector<Schedule>& want,
            bool subset) {
    if (failed_) return;
    const OracleDiff diff = DiffAgainstOracle(got, got_total, want, subset);
    if (diff.ok()) return;
    std::ostringstream os;
    os << what << " vs oracle (" << got.size() << " vs " << want.size()
       << " schedules): " << diff.missing << " missing, " << diff.spurious
       << " spurious, " << diff.drift << " drifted"
       << (diff.total_mismatch ? ", total mismatch" : "");
    for (const std::string& line : diff.findings) os << "; " << line;
    Fail(os.str());
  }

  /// Candidates of `request` vs the oracle's schedules with it assigned.
  void Candidates(const std::string& what,
                  const std::vector<InsertionCandidate>& cands,
                  RequestId request, const std::vector<Schedule>& want,
                  bool subset) {
    if (failed_) return;
    std::vector<Schedule> got;
    got.reserve(cands.size());
    Distance got_total = kInfDistance;
    for (const InsertionCandidate& c : cands) {
      const Distance pickup = PickupPrefix(c.schedule, request);
      if (std::abs(c.pickup_dist - pickup) > kDistTolerance ||
          std::abs(c.total_dist - c.schedule.total()) > kDistTolerance) {
        return Fail(what + " metrics disagree with their schedule: " +
                    ScheduleString(c.schedule));
      }
      got_total = std::min(got_total, c.total_dist);
      got.push_back(c.schedule);
    }
    Diff(what, got, got_total, want, subset);
  }

 private:
  std::uint64_t seed_;
  TreeTwinOutcome* outcome_;
  std::uint64_t op_ = 0;
  const char* what_ = "";
  bool failed_ = false;
};

bool SameFirstStop(const KineticTree& a, const KineticTree& b) {
  const Schedule sa = a.ActiveSchedule();
  const Schedule sb = b.ActiveSchedule();
  if (sa.stops.empty() || sb.stops.empty()) {
    return sa.stops.empty() == sb.stops.empty();
  }
  return sa.stops[0] == sb.stops[0];
}

}  // namespace

std::string BookkeepingMismatch(const KineticTree& tree,
                                const VehicleState& state) {
  if (tree.location() != state.location) return "location mismatch";
  if (tree.odometer() != state.odometer) return "odometer mismatch";
  if (tree.onboard() != state.onboard) return "onboard mismatch";
  if (tree.capacity() != state.capacity) return "capacity mismatch";
  const std::vector<AssignedRequest>& got = tree.assigned();
  if (got.size() != state.assigned.size()) return "assigned count mismatch";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const AssignedRequest& g = got[i];
    const AssignedRequest& w = state.assigned[i];
    const char* field =
        g.request.id != w.request.id                 ? "id"
        : g.direct_dist != w.direct_dist             ? "direct_dist"
        : g.deadline_odometer != w.deadline_odometer ? "deadline_odometer"
        : g.picked_up != w.picked_up                 ? "picked_up"
        : g.pickup_odometer != w.pickup_odometer     ? "pickup_odometer"
                                                     : nullptr;
    if (field != nullptr) {
      return "assigned[" + std::to_string(i) + "]." + field +
             " mismatch for request " + std::to_string(w.request.id);
    }
  }
  return "";
}

TreeTwinOutcome RunTreeTwin(std::uint64_t seed, DistanceBackend backend,
                            std::size_t cap) {
  TreeTwinOutcome outcome;
  TwinChecker check(seed, &outcome);

  ScenarioSpec spec = MakeRandomSpec(seed);
  StatusOr<BuiltScenario> built = BuildScenario(spec);
  PTAR_CHECK(built.ok()) << built.status().message();
  const RoadNetwork& graph = *built->graph;

  std::unique_ptr<CHGraph> ch;
  if (backend == DistanceBackend::kCH) {
    CHPreprocessor preprocessor;
    ch = std::make_unique<CHGraph>(preprocessor.Build(graph));
  }
  DistanceOracle oracle =
      ch ? DistanceOracle(&graph, ch.get()) : DistanceOracle(&graph);
  const KineticTree::DistFn dist = [&oracle](VertexId a, VertexId b) {
    return oracle.Dist(a, b);
  };
  DijkstraEngine router(&graph);
  const KineticTreeAuditor auditor(dist);

  VehicleState state;
  state.location = spec.vehicle_starts.empty()
                       ? static_cast<VertexId>(seed % graph.num_vertices())
                       : spec.vehicle_starts[0];
  state.capacity = spec.vehicle_capacity;

  KineticTree tree(0, state.location, state.capacity);
  KineticTree capped(0, state.location, state.capacity,
                     cap > 0 ? cap : KineticTree::kUnlimitedBranches);
  // The capped tree is checked until a commit it cannot serve (its riders
  // then differ) or until its active branch departs from the uncapped
  // tree's (it would then drive elsewhere). It is exact until it drops.
  bool capped_live = cap > 0;
  bool capped_exact = capped_live;

  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;
  std::size_t next_spec_request = 0;
  RequestId synth_id = 1u << 20;

  auto make_request = [&]() -> Request {
    if (next_spec_request < spec.requests.size()) {
      return spec.requests[next_spec_request++];
    }
    Request r;
    r.id = synth_id++;
    r.start = static_cast<VertexId>(NextRand(rng) % graph.num_vertices());
    r.destination =
        static_cast<VertexId>(NextRand(rng) % graph.num_vertices());
    r.riders = 1 + static_cast<int>(NextRand(rng) % 2);
    r.epsilon = 1.2 + 0.1 * static_cast<double>(NextRand(rng) % 9);
    r.max_wait_dist = 500.0 + static_cast<double>(NextRand(rng) % 2000);
    return r;
  };

  auto refresh_all = [&]() {
    tree.Refresh(dist);
    if (capped_live) capped.Refresh(dist);
  };

  // Bookkeeping after every op; branch sets whenever the trees are fresh
  // (a stale tree's non-active first legs still measure from an old
  // location until Refresh).
  auto compare_all = [&]() {
    check.Bookkeeping("tree", tree, state);
    if (capped_live) check.Bookkeeping("capped tree", capped, state);
    if (check.failed() || tree.stale()) return;
    const std::vector<Schedule> want = EnumerateSchedules(state, dist);
    outcome.branch_checks++;
    check.Diff("branch set", tree.Schedules(), tree.CurrentTotal(), want,
               /*subset=*/false);
    if (capped_live && !capped.stale()) {
      check.Diff("capped branch set", capped.Schedules(),
                 capped.CurrentTotal(), want, /*subset=*/!capped_exact);
    }
    if (check.failed()) return;
    const AuditReport report = auditor.AuditTree(tree);
    if (!report.ok()) {
      check.Fail("auditor flagged the tree: " + report.findings[0]);
    }
  };

  constexpr std::uint64_t kOps = 160;
  for (std::uint64_t op = 0; op < kOps && !check.failed(); ++op) {
    outcome.ops++;
    const std::uint64_t roll = NextRand(rng) % 100;

    if (roll < 40 && state.assigned.size() < 6) {
      check.SetOp(op, "commit");
      if (tree.stale()) refresh_all();
      const Request request = make_request();
      if (request.start == request.destination) continue;
      const Distance direct = dist(request.start, request.destination);
      if (!(direct < kInfDistance)) continue;

      // The new request's waiting constraint holds at creation (planned ==
      // actual pickup), so the candidates carry no deadline for it.
      AssignedRequest assigned;
      assigned.request = request;
      assigned.direct_dist = direct;
      assigned.deadline_odometer = kInfDistance;
      VehicleState with_request = state;
      with_request.assigned.push_back(assigned);
      const std::vector<Schedule> want =
          EnumerateSchedules(with_request, dist);
      outcome.candidate_checks++;
      check.Candidates("candidates",
                       tree.EnumerateInsertions(request, direct, dist,
                                                InsertionHooks{}),
                       request.id, want, /*subset=*/false);
      if (capped_live) {
        check.Candidates("capped candidates",
                         capped.EnumerateInsertions(request, direct, dist,
                                                    InsertionHooks{}),
                         request.id, want, /*subset=*/!capped_exact);
      }
      if (check.failed() || want.empty()) continue;

      Distance planned = kInfDistance;
      for (const Schedule& s : want) {
        planned = std::min(planned, PickupPrefix(s, request.id));
      }
      const Status status = tree.Commit(request, direct, planned, dist);
      if (!status.ok()) {
        check.Fail("commit failed though the oracle lists a schedule: " +
                   std::string(status.message()));
        break;
      }
      outcome.commits++;
      // The tree's association order: odometer + (planned + w).
      assigned.deadline_odometer =
          state.odometer + (planned + request.max_wait_dist);
      state.assigned.push_back(assigned);
      if (capped_live) {
        const Status cs = capped.Commit(request, direct, planned, dist);
        if (cs.ok()) {
          capped_exact = capped_exact && capped.branches_dropped() == 0;
        } else if (capped.branches_dropped() > 0) {
          // The feasible insertion lived only in dropped branches: an
          // attributed option loss, after which the capped tree's riders
          // differ and its comparison window closes.
          outcome.capped_losses++;
          capped_live = false;
        } else {
          check.Fail("capped commit failed without any dropped branch: " +
                     std::string(cs.message()));
          break;
        }
      }
    } else if (roll < 70) {
      check.SetOp(op, "move");
      const VertexId target = tree.NextStopLocation();
      if (target == kInvalidVertex) continue;
      if (tree.location() == target) continue;  // already there; arrive op
      if (capped_live && capped.NextStopLocation() != target) {
        // The capped tree would drive a different branch; its physical
        // trajectory departs here, so the comparison window closes.
        capped_live = false;
      }
      (void)router.PointToPoint(tree.location(), target);
      const std::vector<VertexId> path = router.PathTo(target);
      if (path.size() < 2) continue;  // unreachable (cannot happen in-city)
      const VertexId hop = path[1];
      Distance hop_dist = 0.0;
      for (const Arc& arc : graph.OutArcs(tree.location())) {
        if (arc.head == hop) {
          hop_dist = arc.weight;
          break;
        }
      }
      PTAR_CHECK(hop_dist > 0.0);
      tree.MoveTo(hop, hop_dist);
      if (capped_live) capped.MoveTo(hop, hop_dist);
      state.location = hop;
      state.odometer += hop_dist;
    } else if (roll < 80) {
      check.SetOp(op, "arrive");
      const VertexId target = tree.NextStopLocation();
      if (target == kInvalidVertex || target != tree.location()) continue;
      const Stop served = tree.ActiveSchedule().stops[0];
      if (capped_live && !SameFirstStop(capped, tree)) {
        capped_live = false;  // would serve a different stop
      }
      const auto event = tree.ArriveAtNextStop();
      if (!event.ok()) {
        check.Fail("arrive failed at the active first stop: " +
                   std::string(event.status().message()));
        break;
      }
      outcome.arrivals++;
      auto it = std::find_if(state.assigned.begin(), state.assigned.end(),
                             [&](const AssignedRequest& a) {
                               return a.request.id == served.request;
                             });
      if (it == state.assigned.end() || event->request != served.request ||
          event->type != served.type ||
          event->riders != it->request.riders) {
        check.Fail("stop event does not match the served stop");
        break;
      }
      if (served.type == StopType::kPickup) {
        it->picked_up = true;
        it->pickup_odometer = state.odometer;
        state.onboard += it->request.riders;
      } else {
        state.onboard -= it->request.riders;
        state.assigned.erase(it);
      }
      if (capped_live) {
        const auto ce = capped.ArriveAtNextStop();
        if (!ce.ok() || ce->request != served.request) {
          check.Fail("capped arrive diverged on a shared stop");
          break;
        }
      }
    } else if (roll < 90) {
      check.SetOp(op, "refresh");
      refresh_all();
    } else {
      check.SetOp(op, "rebuild");
      if (!tree.RebuildBranches(dist).ok()) {
        check.Fail("rebuild failed");
        break;
      }
      if (capped_live && !capped.RebuildBranches(dist).ok()) {
        check.Fail("capped rebuild failed");
        break;
      }
    }

    compare_all();
  }

  if (cap > 0) outcome.capped_drops += capped.branches_dropped();
  return outcome;
}

}  // namespace ptar::check
