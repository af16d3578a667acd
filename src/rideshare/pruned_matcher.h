// GeoPrune wrapper: run any matcher with the ellipse prefilter installed.
//
// PrunedMatcher decorates an inner matcher: on each Match it (lazily)
// builds an EllipsePrefilter for the context's graph, installs it as
// ctx.prune for the duration of the call, and restores the previous value
// on exit. The inner matcher picks the filter up through the shared
// verification helpers (matcher_internal), so BA / SSA / DSA / GRID all
// gain GeoPrune without per-matcher code. Wrapping BaselineMatcher gives
// the ablation configuration "BA+EL": a pruned full-fleet scan, i.e.
// GeoPrune with no grid lemma assistance on the empty side.

#ifndef PTAR_RIDESHARE_PRUNED_MATCHER_H_
#define PTAR_RIDESHARE_PRUNED_MATCHER_H_

#include <memory>
#include <utility>

#include "prune/ellipse_prefilter.h"
#include "rideshare/matcher.h"

namespace ptar {

class PrunedMatcher : public Matcher {
 public:
  /// Wraps `inner` (must not be null). `opts.shrink_factor != 1` is the
  /// ShrinkEllipse fault seam used by the differential harness; production
  /// use keeps the default.
  explicit PrunedMatcher(std::unique_ptr<Matcher> inner,
                         prune::EllipsePrefilter::Options opts = {})
      : inner_(std::move(inner)), opts_(opts) {}

  std::string name() const override { return inner_->name() + "+EL"; }
  MatchResult Match(const Request& request, MatchContext& ctx) override;

  Matcher& inner() { return *inner_; }

 private:
  std::unique_ptr<Matcher> inner_;
  prune::EllipsePrefilter::Options opts_;
  /// Lazily (re)built when the context's graph changes. Matcher instances
  /// are engine- and worker-local (never shared across threads), so plain
  /// members suffice.
  std::unique_ptr<prune::EllipsePrefilter> filter_;
  const RoadNetwork* filter_graph_ = nullptr;
};

}  // namespace ptar

#endif  // PTAR_RIDESHARE_PRUNED_MATCHER_H_
