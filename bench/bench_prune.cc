// GeoPrune effectiveness bench: verified-vehicles-per-request with and
// without the ellipse prefilter across fleet sizes, plus a pruned
// full-fleet scan (BA+EL) for ablation. Writes BENCH_prune.json; every row
// label is unique (the SSA rows carry their verified-cell fraction).
//
// Self-enforced bars (exit 1 on violation, deterministic inputs):
//   - every full-coverage pruned matcher (SSA(f=1.0)+EL, BA+EL) keeps
//     recall exactly 1.0 at every scale — the prefilter is lossless;
//   - the production partial-coverage pair has *identical* recall with and
//     without the prefilter (partial search misses options by design; the
//     prefilter must not change which ones);
//   - at the 10k-vehicle point, SSA(f=1.0)+EL verifies at least 3x fewer
//     vehicles per request than the grid-lower-bound SSA(f=1.0) baseline.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/pruned_matcher.h"
#include "rideshare/ssa_matcher.h"

int main(int argc, char** argv) {
  using namespace ptar;
  using namespace ptar::bench;
  PrintBanner("bench_prune",
              "ellipse-prefilter pruning power vs grid lower bounds");

  BenchConfig base;
  ObsSession obs(argc, argv, "bench_prune");
  Harness harness(base);
  harness.AttachObs(&obs);

  struct Scale {
    int num_vehicles;
    std::size_t num_requests;
  };
  // Fewer requests at the largest fleet keeps the bench in seconds; the
  // per-request means are what the bars are about.
  const std::vector<Scale> scales = {{1000, 100}, {10000, 100}, {50000, 40}};
  // Matcher row indexes within each BenchRow.
  constexpr std::size_t kFull = 1;        // SSA(1.0): grid baseline
  constexpr std::size_t kFullEl = 2;      // SSA(1.0)+EL: pruned twin
  constexpr std::size_t kPartial = 3;     // SSA(0.16): production fraction
  constexpr std::size_t kPartialEl = 4;   // SSA(0.16)+EL
  constexpr std::size_t kBaEl = 5;        // BA+EL ablation matcher
  // Row labels in the report: the two SSA fractions would otherwise share
  // the matcher names "SSA" and "SSA+EL".
  char part[32];
  std::snprintf(part, sizeof(part), "SSA(f=%g)", base.verified_grid_fraction);
  const std::vector<std::string> labels = {
      "BA", "SSA(f=1.0)", "SSA(f=1.0)+EL", part, std::string(part) + "+EL",
      "BA+EL"};

  std::vector<BenchRow> rows;
  std::printf("%-18s %-16s %12s %10s %12s %8s\n", "vehicles", "matcher",
              "time(ms)", "verified", "compdists", "recall");
  bool ok = true;
  for (const Scale& scale : scales) {
    BenchConfig cfg = base;
    cfg.num_vehicles = scale.num_vehicles;
    cfg.num_requests = scale.num_requests;

    BaselineMatcher ba;  // commits; the precision/recall reference
    SsaMatcher ssa_full(1.0);
    PrunedMatcher ssa_full_el(std::make_unique<SsaMatcher>(1.0));
    SsaMatcher ssa_part(base.verified_grid_fraction);
    PrunedMatcher ssa_part_el(
        std::make_unique<SsaMatcher>(base.verified_grid_fraction));
    PrunedMatcher ba_el(std::make_unique<BaselineMatcher>());
    std::vector<Matcher*> matchers = {&ba,       &ssa_full, &ssa_full_el,
                                      &ssa_part, &ssa_part_el, &ba_el};

    const std::string label = "vehicles=" + std::to_string(scale.num_vehicles);
    rows.push_back(harness.RunWith(cfg, label, matchers));
    for (std::size_t m = 0; m < labels.size(); ++m) {
      rows.back().stats.matchers[m].name = labels[m];
    }
    const BenchRow& row = rows.back();
    for (std::size_t m = 0; m < row.stats.matchers.size(); ++m) {
      const MatcherAggregate& agg = row.stats.matchers[m];
      std::printf("%-18s %-16s %12.3f %10.1f %12.1f %8.4f\n",
                  (m == 0 ? label.c_str() : ""), agg.name.c_str(),
                  agg.MeanMillis(), agg.MeanVerified(), agg.MeanCompdists(),
                  agg.MeanRecall());
    }

    // Bar 1: full-coverage pruned matchers are lossless.
    for (const std::size_t m : {kFullEl, kBaEl}) {
      const MatcherAggregate& agg = row.stats.matchers[m];
      if (agg.MeanRecall() < 1.0) {
        std::fprintf(stderr,
                     "FAIL %s: %s recall %.6f < 1.0 — the prefilter "
                     "dropped options\n",
                     label.c_str(), agg.name.c_str(), agg.MeanRecall());
        ok = false;
      }
    }
    // Bar 2: on the partial-coverage pair the prefilter must not change
    // the answer, only the work (their misses come from the verified-cell
    // budget, not from pruning).
    const double part = row.stats.matchers[kPartial].MeanRecall();
    const double part_el = row.stats.matchers[kPartialEl].MeanRecall();
    if (std::abs(part - part_el) > 1e-12) {
      std::fprintf(stderr,
                   "FAIL %s: partial-coverage recall changed under pruning "
                   "(%.9f vs %.9f)\n",
                   label.c_str(), part, part_el);
      ok = false;
    }
    // Bar 3: >= 3x verified-vehicle reduction at the 10k point.
    const double baseline = row.stats.matchers[kFull].MeanVerified();
    const double pruned = row.stats.matchers[kFullEl].MeanVerified();
    const double ratio = pruned > 0.0 ? baseline / pruned : 0.0;
    std::printf("%-18s verified-reduction SSA/SSA+EL = %.2fx at full "
                "coverage, %.2fx at %.0f%%\n",
                "", ratio,
                row.stats.matchers[kPartialEl].MeanVerified() > 0.0
                    ? row.stats.matchers[kPartial].MeanVerified() /
                          row.stats.matchers[kPartialEl].MeanVerified()
                    : 0.0,
                base.verified_grid_fraction * 100.0);
    if (scale.num_vehicles == 10000 && ratio < 3.0) {
      std::fprintf(stderr,
                   "FAIL %s: verified-vehicles reduction %.2fx < 3x bar\n",
                   label.c_str(), ratio);
      ok = false;
    }
  }

  if (!WriteMatchingJson("BENCH_prune.json", rows)) {
    std::fprintf(stderr, "failed to write BENCH_prune.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_prune.json\n");
  if (!ok) return 1;
  std::printf("bars met: lossless recall, >= 3x verified reduction at 10k "
              "vehicles\n");
  return 0;
}
