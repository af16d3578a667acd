#include "check/schedule_oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "common/logging.h"

namespace ptar::check {

namespace {

/// Findings kept per kind; the counts in OracleDiff stay exact.
constexpr std::size_t kFindingsPerKind = 3;

Distance RideBound(const AssignedRequest& a) {
  return (1.0 + a.request.epsilon) * a.direct_dist;
}

/// Ride so far of a request whose riders are on board at trip distance
/// `prefix`; `boarded_at` is the prefix at its pickup in this schedule.
Distance Ride(const VehicleState& state, const AssignedRequest& a,
              Distance boarded_at, Distance prefix) {
  return a.picked_up ? (state.odometer - a.pickup_odometer) + prefix
                     : prefix - boarded_at;
}

bool LateForPickup(const VehicleState& state, const AssignedRequest& a,
                   Distance prefix) {
  return state.odometer + prefix > a.deadline_odometer + kDistTolerance;
}

bool RideTooLong(const VehicleState& state, const AssignedRequest& a,
                 Distance boarded_at, Distance prefix) {
  return Ride(state, a, boarded_at, prefix) > RideBound(a) + kDistTolerance;
}

/// Depth-first enumeration of stop orders. Per request the phase is
/// kWaiting (pickup pending), kRiding (dropoff pending) or kDone.
class Enumerator {
 public:
  Enumerator(const VehicleState& state, const KineticTree::DistFn& dist,
             std::vector<Schedule>* out)
      : state_(state),
        dist_(dist),
        out_(out),
        phase_(state.assigned.size()),
        boarded_at_(state.assigned.size(), 0.0) {
    std::size_t stops = 0;
    for (std::size_t r = 0; r < phase_.size(); ++r) {
      const bool riding = state.assigned[r].picked_up;
      phase_[r] = riding ? kRiding : kWaiting;
      stops += riding ? 1 : 2;
    }
    remaining_ = stops;
  }

  void Run() { Extend(state_.location, 0.0, state_.onboard); }

 private:
  enum Phase : char { kWaiting, kRiding, kDone };

  /// True once some pending stop can no longer be served in time: its
  /// pickup deadline or ride bound is already exceeded at `prefix`.
  bool Broken(Distance prefix) const {
    for (std::size_t r = 0; r < phase_.size(); ++r) {
      const AssignedRequest& a = state_.assigned[r];
      if (phase_[r] == kWaiting && LateForPickup(state_, a, prefix)) {
        return true;
      }
      if (phase_[r] == kRiding &&
          RideTooLong(state_, a, boarded_at_[r], prefix)) {
        return true;
      }
    }
    return false;
  }

  void Extend(VertexId at, Distance prefix, int onboard) {
    if (Broken(prefix)) return;
    if (remaining_ == 0) {
      PTAR_DCHECK(Feasible(state_, current_));
      out_->push_back(current_);
      return;
    }
    for (std::size_t r = 0; r < phase_.size(); ++r) {
      if (phase_[r] == kDone) continue;
      const AssignedRequest& a = state_.assigned[r];
      const bool pickup = phase_[r] == kWaiting;
      if (pickup && onboard + a.request.riders > state_.capacity) continue;
      const VertexId next = pickup ? a.request.start : a.request.destination;
      const Distance leg = dist_(at, next);
      if (leg == kInfDistance) continue;
      const Distance reached = prefix + leg;
      if (pickup ? LateForPickup(state_, a, reached)
                 : RideTooLong(state_, a, boarded_at_[r], reached)) {
        continue;
      }

      const Phase saved = phase_[r];
      phase_[r] = pickup ? kRiding : kDone;
      if (pickup) boarded_at_[r] = reached;
      current_.stops.push_back(
          Stop{pickup ? StopType::kPickup : StopType::kDropoff, a.request.id,
               next});
      current_.legs.push_back(leg);
      --remaining_;
      Extend(next, reached,
             onboard + (pickup ? a.request.riders : -a.request.riders));
      ++remaining_;
      current_.stops.pop_back();
      current_.legs.pop_back();
      phase_[r] = saved;
    }
  }

  const VehicleState& state_;
  const KineticTree::DistFn& dist_;
  std::vector<Schedule>* out_;
  std::vector<Phase> phase_;
  std::vector<Distance> boarded_at_;
  std::size_t remaining_ = 0;
  Schedule current_;
};

bool StopsLess(const Schedule& a, const Schedule& b) {
  return std::lexicographical_compare(
      a.stops.begin(), a.stops.end(), b.stops.begin(), b.stops.end(),
      [](const Stop& x, const Stop& y) {
        return std::tie(x.request, x.type, x.location) <
               std::tie(y.request, y.type, y.location);
      });
}

std::vector<const Schedule*> SortedByStops(
    const std::vector<Schedule>& schedules) {
  std::vector<const Schedule*> sorted;
  sorted.reserve(schedules.size());
  for (const Schedule& s : schedules) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const Schedule* a, const Schedule* b) {
              return StopsLess(*a, *b);
            });
  return sorted;
}

}  // namespace

bool Feasible(const VehicleState& state, const Schedule& schedule) {
  if (schedule.legs.size() != schedule.stops.size()) return false;
  const std::size_t n = state.assigned.size();
  std::vector<int> pickups(n, 0);
  std::vector<int> dropoffs(n, 0);
  std::vector<Distance> boarded_at(n, 0.0);
  int onboard = state.onboard;
  Distance prefix = 0.0;
  for (std::size_t i = 0; i < schedule.stops.size(); ++i) {
    prefix += schedule.legs[i];
    const Stop& stop = schedule.stops[i];
    std::size_t r = 0;
    while (r < n && state.assigned[r].request.id != stop.request) ++r;
    if (r == n) return false;  // a stop of no assigned request
    const AssignedRequest& a = state.assigned[r];
    if (stop.type == StopType::kPickup) {
      if (a.picked_up || pickups[r]++ > 0) return false;
      if (stop.location != a.request.start) return false;
      if (LateForPickup(state, a, prefix)) return false;
      boarded_at[r] = prefix;
      onboard += a.request.riders;
      if (onboard > state.capacity) return false;
    } else {
      if (dropoffs[r]++ > 0) return false;
      if (stop.location != a.request.destination) return false;
      if (!a.picked_up && pickups[r] == 0) return false;  // not yet aboard
      if (RideTooLong(state, a, boarded_at[r], prefix)) return false;
      onboard -= a.request.riders;
    }
  }
  // Every request is dropped off; a waiting one was therefore picked up.
  return std::all_of(dropoffs.begin(), dropoffs.end(),
                     [](int d) { return d == 1; });
}

std::vector<Schedule> EnumerateSchedules(const VehicleState& state,
                                         const KineticTree::DistFn& dist) {
  std::vector<Schedule> out;
  Enumerator(state, dist, &out).Run();
  return out;
}

OracleDiff DiffAgainstOracle(const std::vector<Schedule>& got,
                             Distance got_total,
                             const std::vector<Schedule>& want, bool subset) {
  OracleDiff diff;
  auto note = [&diff](std::size_t count, const std::string& line) {
    if (count <= kFindingsPerKind) diff.findings.push_back(line);
  };
  const std::vector<const Schedule*> g = SortedByStops(got);
  const std::vector<const Schedule*> w = SortedByStops(want);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < g.size() || j < w.size()) {
    if (j == w.size() || (i < g.size() && StopsLess(*g[i], *w[j]))) {
      // Includes a second copy of a schedule already matched.
      note(++diff.spurious, "spurious: " + ScheduleString(*g[i]));
      ++i;
    } else if (i == g.size() || StopsLess(*w[j], *g[i])) {
      if (!subset) note(++diff.missing, "missing: " + ScheduleString(*w[j]));
      ++j;
    } else {
      for (std::size_t m = 0; m < g[i]->legs.size(); ++m) {
        if (std::abs(g[i]->legs[m] - w[j]->legs[m]) > kDistTolerance) {
          std::ostringstream os;
          os << "leg " << m << " drift: " << g[i]->legs[m] << " vs oracle "
             << w[j]->legs[m] << " in " << ScheduleString(*w[j]);
          note(++diff.drift, os.str());
          break;
        }
      }
      ++i;
      ++j;
    }
  }
  const Distance want_total = MinTotal(want);
  diff.total_mismatch =
      got_total != want_total &&
      (subset ? got_total < want_total - kDistTolerance
              : !(std::abs(got_total - want_total) <= kDistTolerance));
  if (diff.total_mismatch) {
    std::ostringstream os;
    os << "active total " << got_total << " vs oracle minimum " << want_total;
    diff.findings.push_back(os.str());
  }
  return diff;
}

Distance MinTotal(const std::vector<Schedule>& schedules) {
  Distance best = kInfDistance;
  for (const Schedule& s : schedules) best = std::min(best, s.total());
  return best;
}

std::string ScheduleString(const Schedule& schedule) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < schedule.stops.size(); ++i) {
    const Stop& stop = schedule.stops[i];
    os << (i == 0 ? "" : " ")
       << (stop.type == StopType::kPickup ? "s" : "d") << stop.request << "@"
       << stop.location;
  }
  os << "] total=" << schedule.total();
  return os.str();
}

}  // namespace ptar::check
