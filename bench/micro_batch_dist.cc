// Micro-benchmark: one batched one-to-many sweep (DistanceOracle::BatchDist)
// vs the equivalent sequence of point-to-point Dist calls, on the standard
// synthetic grid city. Targets are uniform random vertices, a pessimistic
// stand-in for a request's candidate batch (real candidate sets cluster
// around the request's start cell, which favors the sweep further).
//
// A second pair of rows, on both backends, replays the matchers' shape: 13
// successive small batches from one source, nearest first (cells in order
// of increasing lower bound). BM_RepeatedSourceFresh forgets the source's
// search before every batch, as each batch once restarted it;
// BM_RepeatedSourceResumed lets the oracle resume it.
//
// Startup verifies that batch and serial paths return bit-identical
// distances and count identical compdists, and that resumed batches return
// the same bits as fresh ones on both backends, before any timing runs.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/random.h"
#include "graph/ch_preprocessor.h"
#include "graph/distance_oracle.h"
#include "graph/generators.h"

namespace ptar {
namespace {

const RoadNetwork& City() {
  static const RoadNetwork* city = [] {
    GridCityOptions opts;
    opts.rows = 40;
    opts.cols = 40;
    opts.spacing_meters = 120.0;
    opts.seed = 42;
    auto built = MakeGridCity(opts);
    PTAR_CHECK(built.ok()) << built.status();
    return new RoadNetwork(std::move(built).value());
  }();
  return *city;
}

std::vector<VertexId> PickTargets(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> targets;
  targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets.push_back(
        static_cast<VertexId>(rng.UniformIndex(City().num_vertices())));
  }
  return targets;
}

VertexId PickSource() {
  return static_cast<VertexId>(City().num_vertices() / 2);
}

void BM_SerialDist(benchmark::State& state) {
  const auto targets =
      PickTargets(static_cast<std::size_t>(state.range(0)), 7);
  const VertexId source = PickSource();
  DistanceOracle oracle(&City());
  for (auto _ : state) {
    oracle.ClearCache();
    Distance sum = 0.0;
    for (const VertexId t : targets) sum += oracle.Dist(source, t);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_SerialDist)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_BatchDist(benchmark::State& state) {
  const auto targets =
      PickTargets(static_cast<std::size_t>(state.range(0)), 7);
  const VertexId source = PickSource();
  DistanceOracle oracle(&City());
  std::vector<Distance> dists;
  for (auto _ : state) {
    oracle.ClearCache();
    oracle.BatchDist(source, targets, &dists);
    benchmark::DoNotOptimize(dists.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_BatchDist)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

const CHGraph& CityCH() {
  static const CHGraph* ch =
      new CHGraph(CHPreprocessor(CHPreprocessorOptions{}).Build(City()));
  return *ch;
}

constexpr std::size_t kRepeatedBatches = 13;

/// kRepeatedBatches batches of `batch_size` random targets from
/// PickSource(), nearest (straight-line) first.
std::vector<std::vector<VertexId>> RepeatedSourceBatches(
    std::size_t batch_size) {
  std::vector<VertexId> targets =
      PickTargets(kRepeatedBatches * batch_size, 11);
  const VertexId source = PickSource();
  std::stable_sort(targets.begin(), targets.end(),
                   [source](VertexId a, VertexId b) {
                     return City().EuclideanDistance(source, a) <
                            City().EuclideanDistance(source, b);
                   });
  std::vector<std::vector<VertexId>> batches;
  for (std::size_t k = 0; k < kRepeatedBatches; ++k) {
    batches.emplace_back(targets.begin() + k * batch_size,
                         targets.begin() + (k + 1) * batch_size);
  }
  return batches;
}

/// range(0): 0 = Dijkstra, 1 = CH; range(1): targets per batch.
void RunRepeatedSource(benchmark::State& state, bool resume) {
  const auto batches =
      RepeatedSourceBatches(static_cast<std::size_t>(state.range(1)));
  const VertexId source = PickSource();
  DistanceOracle oracle(&City(), state.range(0) == 1 ? &CityCH() : nullptr);
  std::vector<Distance> dists;
  for (auto _ : state) {
    oracle.ClearCache();
    for (const std::vector<VertexId>& batch : batches) {
      // Clearing drops the source's paused search, so the batch restarts.
      if (!resume) oracle.ClearCache();
      oracle.BatchDist(source, batch, &dists);
      benchmark::DoNotOptimize(dists.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRepeatedBatches));
}

void BM_RepeatedSourceFresh(benchmark::State& state) {
  RunRepeatedSource(state, /*resume=*/false);
}
BENCHMARK(BM_RepeatedSourceFresh)
    ->ArgNames({"ch", "targets"})
    ->ArgsProduct({{0, 1}, {6, 24}});

void BM_RepeatedSourceResumed(benchmark::State& state) {
  RunRepeatedSource(state, /*resume=*/true);
}
BENCHMARK(BM_RepeatedSourceResumed)
    ->ArgNames({"ch", "targets"})
    ->ArgsProduct({{0, 1}, {6, 24}});

/// The resumed path's bar: on both backends, every batch of the repeated-
/// source replay returns the bits a fresh oracle returns for it.
void VerifyResumedMatchesFresh() {
  const VertexId source = PickSource();
  for (const CHGraph* ch : {static_cast<const CHGraph*>(nullptr), &CityCH()}) {
    for (const std::size_t batch_size : {6u, 24u}) {
      DistanceOracle resumed(&City(), ch);
      std::vector<Distance> got;
      std::vector<Distance> want;
      for (const std::vector<VertexId>& batch :
           RepeatedSourceBatches(batch_size)) {
        resumed.BatchDist(source, batch, &got);
        DistanceOracle fresh(&City(), ch);
        fresh.BatchDist(source, batch, &want);
        PTAR_CHECK(got.size() == want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          PTAR_CHECK(std::bit_cast<std::uint64_t>(got[i]) ==
                     std::bit_cast<std::uint64_t>(want[i]))
              << "resumed batch differs from fresh (ch=" << (ch != nullptr)
              << ", targets=" << batch_size << ", i=" << i << ")";
        }
      }
    }
  }
  std::printf("verified: resumed BatchDist == fresh BatchDist (bits) on "
              "dijkstra and ch\n");
}

/// The acceptance bar for the batch path: identical bits, identical
/// compdists, for every benchmarked batch size.
void VerifyBatchMatchesSerial() {
  const VertexId source = PickSource();
  for (const std::size_t n : {8u, 32u, 128u, 512u}) {
    const auto targets = PickTargets(n, 7);
    DistanceOracle serial(&City());
    DistanceOracle batched(&City());
    std::vector<Distance> expected;
    expected.reserve(n);
    for (const VertexId t : targets) {
      expected.push_back(serial.Dist(source, t));
    }
    std::vector<Distance> got;
    batched.BatchDist(source, targets, &got);
    PTAR_CHECK(got.size() == expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      PTAR_CHECK(got[i] == expected[i])
          << "bit mismatch at target " << i << " (n=" << n << ")";
    }
    PTAR_CHECK(batched.compdists() == serial.compdists())
        << "compdist mismatch at n=" << n;
  }
  std::printf("verified: BatchDist == serial Dist (bits and compdists) "
              "for n in {8, 32, 128, 512}\n");
}

}  // namespace
}  // namespace ptar

int main(int argc, char** argv) {
  ptar::VerifyBatchMatchesSerial();
  ptar::VerifyResumedMatchesFresh();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
