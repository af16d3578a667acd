// Brute-force reference matcher: ground truth for BA / SSA / DSA.
//
// Independence from the production path is the point. The production
// matchers share KineticTree::EnumerateInsertions, the lemma hooks, and
// SkylineSet; a bug in any of those would make "BA == SSA" vacuous. The
// reference enumerates every (pickup, dropoff) insertion pair of every
// branch itself, splices the stop sequences itself, recomputes *all* legs
// through plain oracle distances (no splicing of cached branch legs, no
// grid lower bounds, no lemma pruning), and keeps the non-dominated set via
// a naive quadratic end-filter instead of the incremental SkylineSet.
// Validity comes from the schedule oracle's Feasible (check/
// schedule_oracle.h), written from the paper's constraints rather than
// shared with KineticTree::IsValidSchedule. Branches still come from
// KineticTree::Schedules(): the harness pins a branch cap, so the matchers
// under test insert into a capped branch set and the reference must insert
// into the same one.

#ifndef PTAR_CHECK_REFERENCE_MATCHER_H_
#define PTAR_CHECK_REFERENCE_MATCHER_H_

#include <string>
#include <vector>

#include "rideshare/matcher.h"

namespace ptar::check {

/// Removes dominated options and exact duplicates (same vehicle and
/// values), then sorts canonically (pickup, price, vehicle). Quadratic;
/// exposed for the skyline property tests, which diff it against
/// SkylineSet's incremental maintenance.
std::vector<Option> NaiveSkyline(std::vector<Option> options);

class ReferenceMatcher : public Matcher {
 public:
  std::string name() const override { return "REF"; }
  MatchResult Match(const Request& request, MatchContext& ctx) override;

  /// Every option the last Match() enumerated, *before* skyline filtering.
  /// A budget- or fault-truncated production matcher may legally return an
  /// option that the full skyline dominates (the dominating vehicle was
  /// never visited), so partial results are checked for membership in this
  /// set rather than in the reference skyline.
  const std::vector<Option>& last_full_options() const {
    return last_full_options_;
  }

 private:
  std::vector<Option> last_full_options_;
};

}  // namespace ptar::check

#endif  // PTAR_CHECK_REFERENCE_MATCHER_H_
