// Kinetic-tree twin harness: seeded op streams (commit / move / arrive /
// refresh / rebuild) drive an arena KineticTree, while the harness keeps
// its own VehicleState from the same stream. After every op that leaves the
// tree fresh, the tree's branch set must equal the brute-force schedule
// oracle's (check/schedule_oracle.h) for that state, and every commit's
// insertion candidates must equal the oracle's schedules with the new
// request added. The tree's bookkeeping must equal the harness's exactly
// and the tree must stay auditor-clean. Wired into ptar_check
// (--tree_twin=N), its CLI smoke tests and differential-nightly on both
// distance backends; tests/kinetic_twin_test.cc keeps a fast slice.

#ifndef PTAR_CHECK_TREE_TWIN_H_
#define PTAR_CHECK_TREE_TWIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/schedule_oracle.h"
#include "graph/distance_oracle.h"
#include "kinetic/kinetic_tree.h"

namespace ptar::check {

/// Aggregated result of twin runs. `findings` carries one line per
/// divergence (empty = the trees matched the oracle everywhere).
struct TreeTwinOutcome {
  std::uint64_t ops = 0;
  std::uint64_t commits = 0;
  std::uint64_t arrivals = 0;
  /// Branch sets and insertion-candidate sets compared with the oracle.
  std::uint64_t branch_checks = 0;
  std::uint64_t candidate_checks = 0;
  std::uint64_t divergences = 0;
  /// Capped-tree option losses, each attributed to a nonzero drop counter.
  std::uint64_t capped_losses = 0;
  /// Total branches the capped tree dropped (tree/branches_dropped).
  std::uint64_t capped_drops = 0;
  std::vector<std::string> findings;

  bool ok() const { return divergences == 0; }

  void Fold(const TreeTwinOutcome& other) {
    ops += other.ops;
    commits += other.commits;
    arrivals += other.arrivals;
    branch_checks += other.branch_checks;
    candidate_checks += other.candidate_checks;
    divergences += other.divergences;
    capped_losses += other.capped_losses;
    capped_drops += other.capped_drops;
    findings.insert(findings.end(), other.findings.begin(),
                    other.findings.end());
  }
};

/// Exact comparison of the tree's location, odometer, onboard count,
/// capacity and assigned requests (id, direct distance, deadline, pickup
/// state) with `state`. Returns "" when they agree, else the first
/// difference.
std::string BookkeepingMismatch(const KineticTree& tree,
                                const VehicleState& state);

/// Runs one seeded twin scenario on a generated city (see the file
/// comment). A capped tree (`cap` branches; 0 = none) rides along: it must
/// match the oracle exactly until its first drop, then stay a subset of the
/// oracle's set whose shortest branch never beats the oracle's minimum, and
/// attribute every lost commit to its drop counters.
TreeTwinOutcome RunTreeTwin(std::uint64_t seed, DistanceBackend backend,
                            std::size_t cap);

}  // namespace ptar::check

#endif  // PTAR_CHECK_TREE_TWIN_H_
