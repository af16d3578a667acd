#include "rideshare/pruned_matcher.h"

namespace ptar {

MatchResult PrunedMatcher::Match(const Request& request, MatchContext& ctx) {
  const RoadNetwork* graph = &ctx.grid->graph();
  if (filter_ == nullptr || filter_graph_ != graph) {
    filter_ = std::make_unique<prune::EllipsePrefilter>(
        prune::EllipsePrefilter::Build(*graph, opts_));
    filter_graph_ = graph;
  }
  const prune::EllipsePrefilter* saved = ctx.prune;
  ctx.prune = filter_.get();
  MatchResult result = inner_->Match(request, ctx);
  ctx.prune = saved;
  return result;
}

}  // namespace ptar
