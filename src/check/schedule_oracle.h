// Brute-force schedule oracle: the complete set of valid trip schedules of
// one vehicle, written directly from the paper's constraints (Definition 2,
// Section IV.B) and independent of the kinetic tree's own validator,
// slack bookkeeping and insertion enumerator.
//
// The kinetic tree claims to hold *every* valid schedule (c.S_tr). The
// oracle lists them by depth-first search over the remaining stops and
// diffs the tree's branch set against that list, so it sees both a
// schedule the tree invented (spurious) and one it lost (missing). It also
// serves the differential ReferenceMatcher as a validity rule the matchers
// under test do not share.

#ifndef PTAR_CHECK_SCHEDULE_ORACLE_H_
#define PTAR_CHECK_SCHEDULE_ORACLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/types.h"
#include "kinetic/kinetic_tree.h"
#include "kinetic/schedule.h"

namespace ptar::check {

/// Slack for floating-point distance comparisons: the kinetic tree's own
/// tolerance, so the oracle and the tree judge a boundary alike.
inline constexpr Distance kDistTolerance = 1e-6;

/// What the constraints of one vehicle depend on. The oracle never reads a
/// KineticTree; callers build this from their own bookkeeping.
struct VehicleState {
  VertexId location = kInvalidVertex;
  Distance odometer = 0.0;
  int onboard = 0;
  int capacity = 0;
  std::vector<AssignedRequest> assigned;
};

/// True iff `schedule` (legs already exact) serves every assigned request
/// of `state` within the paper's constraints: each request's stops appear
/// exactly once (only the dropoff once its riders are on board), at the
/// request's own vertices, pickup before dropoff; onboard never exceeds
/// capacity; odometer + prefix(pickup) <= deadline_odometer; the ride is at
/// most (1 + eps) * direct, counted from pickup_odometer for riders already
/// on board. Comparisons allow the tree's 1e-6 tolerance.
bool Feasible(const VehicleState& state, const Schedule& schedule);

/// Every feasible schedule of `state`, legs from `dist`, in DFS order. An
/// idle state yields one empty schedule, like an idle tree. A prefix is cut
/// as soon as it breaks a deadline, a ride bound or capacity: prefix
/// distances only grow, so no completion of it can be feasible.
std::vector<Schedule> EnumerateSchedules(const VehicleState& state,
                                         const KineticTree::DistFn& dist);

/// Result of diffing a schedule set against the oracle's.
struct OracleDiff {
  std::size_t missing = 0;   ///< Oracle schedules absent from the set.
  std::size_t spurious = 0;  ///< Set members the oracle does not list.
  std::size_t drift = 0;     ///< Same stops, some leg off by more than 1e-6.
  bool total_mismatch = false;
  /// One line per finding, capped at a few of each kind.
  std::vector<std::string> findings;

  bool ok() const { return findings.empty(); }
};

/// Diffs `got` (stop sequences and legs) against `want`, the oracle's set,
/// and `got_total` (the shortest schedule the set drives) against the
/// oracle's minimum total. With `subset`, missing schedules are allowed and
/// `got_total` must only not beat the oracle's minimum: the contract of a
/// branch-capped tree once it has dropped branches.
OracleDiff DiffAgainstOracle(const std::vector<Schedule>& got,
                             Distance got_total,
                             const std::vector<Schedule>& want,
                             bool subset = false);

/// Shortest total over `schedules` (kInfDistance when empty).
Distance MinTotal(const std::vector<Schedule>& schedules);

/// "[s1@3 d1@8] total=..." for findings.
std::string ScheduleString(const Schedule& schedule);

}  // namespace ptar::check

#endif  // PTAR_CHECK_SCHEDULE_ORACLE_H_
