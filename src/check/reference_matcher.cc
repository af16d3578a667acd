#include "check/reference_matcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/schedule_oracle.h"
#include "common/timer.h"
#include "kinetic/kinetic_tree.h"
#include "kinetic/schedule.h"

namespace ptar::check {

namespace {

/// All options one non-empty vehicle offers: every (s-gap, d-gap) insertion
/// of every branch, with every leg recomputed from scratch.
void EnumerateVehicleOptions(const KineticTree& tree, const Request& request,
                             Distance direct, MatchContext& ctx,
                             std::vector<Option>* out) {
  const Distance base_total = tree.CurrentTotal();

  // Candidates are judged by the oracle's own Definition-2 rule, not the
  // tree's validator. The new request's waiting constraint is trivially
  // satisfied at creation (planned == actual pickup), matching the
  // production enumerator.
  VehicleState state{tree.location(), tree.odometer(), tree.onboard(),
                     tree.capacity(), tree.assigned()};
  AssignedRequest extra;
  extra.request = request;
  extra.direct_dist = direct;
  extra.deadline_odometer = kInfDistance;
  state.assigned.push_back(extra);

  const Stop s_stop{StopType::kPickup, request.id, request.start};
  const Stop d_stop{StopType::kDropoff, request.id, request.destination};

  const std::vector<Schedule> schedules = tree.Schedules();
  for (const Schedule& branch : schedules) {
    const std::size_t k = branch.stops.size();
    for (std::size_t i = 0; i <= k; ++i) {
      for (std::size_t j = i; j <= k; ++j) {
        // New stop order: branch[0..i) s branch[i..j) d branch[j..k).
        Schedule candidate;
        candidate.stops.reserve(k + 2);
        candidate.stops.assign(branch.stops.begin(),
                               branch.stops.begin() + i);
        candidate.stops.push_back(s_stop);
        candidate.stops.insert(candidate.stops.end(),
                               branch.stops.begin() + i,
                               branch.stops.begin() + j);
        candidate.stops.push_back(d_stop);
        candidate.stops.insert(candidate.stops.end(),
                               branch.stops.begin() + j, branch.stops.end());

        candidate.legs.reserve(k + 2);
        VertexId prev = tree.location();
        bool reachable = true;
        for (const Stop& stop : candidate.stops) {
          const Distance leg = ctx.oracle->Dist(prev, stop.location);
          if (leg == kInfDistance) {
            reachable = false;
            break;
          }
          candidate.legs.push_back(leg);
          prev = stop.location;
        }
        if (!reachable) continue;
        if (!Feasible(state, candidate)) continue;

        Option option;
        option.vehicle = tree.vehicle();
        option.pickup_dist = candidate.PrefixDistance(i);
        option.price = ctx.price_model.Price(
            request.riders, candidate.total() - base_total, direct);
        out->push_back(option);
      }
    }
  }
}

}  // namespace

std::vector<Option> NaiveSkyline(std::vector<Option> options) {
  std::vector<Option> kept;
  kept.reserve(options.size());
  for (std::size_t a = 0; a < options.size(); ++a) {
    bool dropped = false;
    for (std::size_t b = 0; b < options.size() && !dropped; ++b) {
      if (b != a && Dominates(options[b], options[a])) dropped = true;
    }
    if (!dropped) kept.push_back(options[a]);
  }
  std::sort(kept.begin(), kept.end(), [](const Option& a, const Option& b) {
    if (a.pickup_dist != b.pickup_dist) return a.pickup_dist < b.pickup_dist;
    if (a.price != b.price) return a.price < b.price;
    return a.vehicle < b.vehicle;
  });
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  return kept;
}

MatchResult ReferenceMatcher::Match(const Request& request,
                                    MatchContext& ctx) {
  Timer timer;
  ctx.oracle->ClearCache();
  ctx.oracle->ResetStats();

  const Distance direct =
      ctx.oracle->Dist(request.start, request.destination);
  const KineticTree::DistFn dist = [&ctx](VertexId a, VertexId b) {
    return ctx.oracle->Dist(a, b);
  };

  MatchResult result;
  std::vector<Option> options;
  for (KineticTree& tree : *ctx.fleet) {
    ++result.stats.verified_vehicles;
    if (tree.IsEmpty()) {
      if (tree.capacity() < request.riders) continue;
      const Distance pickup = ctx.oracle->Dist(tree.location(),
                                               request.start);
      if (pickup == kInfDistance) continue;
      Option option;
      option.vehicle = tree.vehicle();
      option.pickup_dist = pickup;
      option.price = ctx.price_model.EmptyVehiclePrice(request.riders,
                                                       pickup, direct);
      options.push_back(option);
    } else {
      tree.Refresh(dist);
      EnumerateVehicleOptions(tree, request, direct, ctx, &options);
    }
  }

  last_full_options_ = std::move(options);
  result.options = NaiveSkyline(last_full_options_);
  result.stats.compdists = ctx.oracle->compdists();
  result.stats.elapsed_micros = timer.ElapsedMicros();
  return result;
}

}  // namespace ptar::check
