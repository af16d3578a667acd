// The wave core (DESIGN.md §12): the one request loop behind ProcessRequest,
// Run and RunPipelined.
//
// The paper's online setting (Section VII) handles one request at a time;
// the request-parallel pipeline overlaps many independent dispatch queries.
// Both are the same loop over waves:
//
//   admission -> advance -> refresh -> snapshot -> match
//            -> id-ordered commit -> (losers re-match, bounded) -> next wave
//
// ProcessRequest is a wave of one whose snapshot every matcher slot
// evaluates (slot 0 commits, slots 1..k are shadows on the `threads` pool),
// and Run loops over it. RunPipelined cuts the stream into waves of
// ResolvedWaveSize() requests matched by engine_threads workers, worker w
// on slot w.
//
// Determinism contract: for a fixed wave_size, committed assignments are
// identical at every threads / engine_threads value. Matcher slots read
// only the immutable snapshot and their own oracle/budget/matcher, the
// arbiter is id-ordered, and all rng and overload-ladder draws happen
// serially in id order on the calling thread. The only documented
// exception is a configured wall-clock deadline (overload.deadline_ms),
// which is nondeterministic by design. `--serial_check` re-runs the
// workload at engine_threads=1 and compares CommitRecords to enforce this.

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace ptar {

namespace {

/// Option-set overlap with a small numeric tolerance (used for Table III's
/// precision / recall against the exact result set).
bool ContainsOption(std::span<const Option> set, const Option& o) {
  for (const Option& x : set) {
    if (x.vehicle == o.vehicle &&
        std::abs(x.pickup_dist - o.pickup_dist) < 1e-6 &&
        std::abs(x.price - o.price) < 1e-6) {
      return true;
    }
  }
  return false;
}

/// Share of `of` that `in` contains; 1 when `of` is empty.
double Coverage(std::span<const Option> of, std::span<const Option> in) {
  if (of.empty()) return 1.0;
  std::size_t hit = 0;
  for (const Option& o : of) {
    if (ContainsOption(in, o)) ++hit;
  }
  return static_cast<double>(hit) / of.size();
}

}  // namespace

struct Engine::InFlight {
  const Request* request = nullptr;
  /// Ladder level captured at admission; fixes this request's budget and
  /// matcher even if the ladder moves before its slot runs.
  DegradeLevel level = DegradeLevel::kFull;
  /// [0] is the committing match; [1..k] are the shadow slots of a
  /// ProcessRequest wave. Slots that did not run stay default-constructed.
  std::vector<MatchResult> results;
  // --- Latched from slot 0's match: its slot re-arms the budget for the
  // next request. ---
  const Matcher* matcher = nullptr;  ///< Configured matcher or fallback.
  double elapsed_micros = 0.0;
  bool budget_exhausted = false;
  bool deadline_hit = false;  ///< The budget's latched wall deadline.
  std::uint64_t budget_limit = 0;
  std::uint64_t budget_spent = 0;
  std::uint64_t snapshot_epoch = 0;
  // --- Arbitration (deterministic; recorded at commit). ---
  std::uint64_t conflicts = 0;       ///< Times a lower id took the vehicle.
  std::uint64_t rematch_rounds = 0;  ///< Snapshot re-matches run.
  bool serial_tail = false;          ///< Exhausted the re-match bound.

  bool shed() const { return level == DegradeLevel::kShed; }
};

struct Engine::WaveRun {
  std::span<Matcher* const> slots;  ///< See StartRun.
  bool pipelined = false;
  ThreadPool* pool = nullptr;  ///< Runs slots concurrently; null = inline.
  /// stats.matchers has one aggregate per slot, or one for all pipeline
  /// workers (they run one configured matcher).
  RunStats stats;
  /// Per-request distributions, parallel to stats.matchers.
  struct Histograms {
    obs::LatencyHistogram* latency_us;
    obs::LatencyHistogram* compdists;
    obs::LatencyHistogram* options;
  };
  std::vector<Histograms> hists;
  std::vector<CommitRecord>* records = nullptr;  ///< Filled when non-null.
  RequestOutcome* outcome = nullptr;             ///< ProcessRequest's answer.
};

int Engine::ResolvedWaveSize() const {
  if (options_.wave_size > 0) return options_.wave_size;
  return std::max(1, 2 * options_.engine_threads);
}

Engine::RequestOutcome Engine::ProcessRequest(
    const Request& request, std::span<Matcher* const> matchers) {
  RequestOutcome outcome;
  WaveRun run = StartRun(matchers, /*pipelined=*/false);
  run.outcome = &outcome;
  RunWave({&request, 1}, run);
  return outcome;
}

RunStats Engine::Run(std::span<const Request> requests,
                     std::span<Matcher* const> matchers) {
  WaveRun run = StartRun(matchers, /*pipelined=*/false);
  for (const Request& request : requests) RunWave({&request, 1}, run);
  HarvestRunMetrics(run);
  return std::move(run.stats);
}

RunStats Engine::RunPipelined(std::span<const Request> requests,
                              const MatcherFactory& make_matcher,
                              std::vector<CommitRecord>* commit_log) {
  PTAR_CHECK(make_matcher != nullptr);
  // One matcher per worker, built per call: the factory may capture caller
  // configuration, and per-call construction keeps the engine free of
  // matcher-type state.
  std::vector<std::unique_ptr<Matcher>> owned;
  std::vector<Matcher*> workers;
  for (int w = 0; w < options_.engine_threads; ++w) {
    owned.push_back(make_matcher());
    PTAR_CHECK(owned.back() != nullptr);
    workers.push_back(owned.back().get());
  }
  WaveRun run = StartRun(workers, /*pipelined=*/true);
  if (commit_log != nullptr) {
    commit_log->clear();
    run.records = commit_log;
  }
  const auto wave_size = static_cast<std::size_t>(ResolvedWaveSize());
  for (std::size_t next = 0; next < requests.size(); next += wave_size) {
    ++run.stats.waves;
    RunWave(requests.subspan(next, std::min(wave_size, requests.size() - next)),
            run);
  }
  HarvestRunMetrics(run);
  if (commit_log != nullptr) {
    // Id order, not commit order: the serial_check contract compares each
    // request's final disposition, independent of the internal schedule.
    std::sort(commit_log->begin(), commit_log->end(),
              [](const CommitRecord& a, const CommitRecord& b) {
                return a.request < b.request;
              });
  }
  return std::move(run.stats);
}

Engine::WaveRun Engine::StartRun(std::span<Matcher* const> slots,
                                 bool pipelined) {
  PTAR_CHECK(!slots.empty());
  WaveRun run;
  run.slots = slots;
  run.pipelined = pipelined;
  std::unique_ptr<ThreadPool>& pool = pipelined ? engine_pool_ : pool_;
  const int threads = pipelined ? options_.engine_threads : options_.threads;
  if (threads > 1 && pool == nullptr) {
    pool = std::make_unique<ThreadPool>(threads);
    // Queue-wait intervals land on the worker's own trace track; the
    // recorder drops them (one branch) when tracing is off.
    pool->SetTaskWaitObserver([](double wait_micros) {
      obs::TraceRecorder::Global().RecordEndingNow("pool_queue_wait",
                                                   wait_micros);
    });
  }
  run.pool = pool.get();
  EnsureMatcherOracles(slots.size());
  EnsureSlotBudgets(slots.size());

  run.stats.matchers.resize(pipelined ? 1 : slots.size());
  // Histogram slots are resolved under the quiesce lock: metrics_ is part
  // of the quiesced state a concurrent AuditFleet may touch.
  std::lock_guard<std::mutex> quiesced(quiesce_mu_);
  for (std::size_t m = 0; m < run.stats.matchers.size(); ++m) {
    run.stats.matchers[m].name = slots[m]->name();
    const std::string base = "matcher/" + slots[m]->name();
    run.hists.push_back({&metrics_.Histogram(base + "/latency_us"),
                         &metrics_.Histogram(base + "/compdists"),
                         &metrics_.Histogram(base + "/options")});
  }
  return run;
}

void Engine::RunWave(std::span<const Request> wave, WaveRun& run) {
  // One wave per lock hold: outside threads (AuditFleet) observe the world
  // only at wave boundaries — the quiesced epoch.
  std::lock_guard<std::mutex> quiesced(quiesce_mu_);
  // The maintenance memo is a per-wave cache: without this clear it would
  // grow by every pair the engine's bookkeeping ever asked for.
  maintenance_oracle_.ClearCache();
  obs::TraceSpan wave_span(run.pipelined ? "wave" : "request");
  wave_span.AddArg("wave", static_cast<std::int64_t>(run.stats.waves));
  Timer wave_timer;
  const std::size_t num_slots = run.slots.size();

  // --- Admission (id order): shed or capture the ladder level. ---
  std::vector<InFlight> pending;
  pending.reserve(wave.size());
  for (const Request& request : wave) {
    InFlight inf;
    inf.request = &request;
    inf.level = overload_.level();
    inf.results.resize(run.pipelined ? 1 : num_slots);
    run.stats.ladder_requests[static_cast<int>(inf.level)] += 1;
    if (overload_.enabled()) {
      metrics_.AddCounter("degrade/level" +
                              std::to_string(static_cast<int>(inf.level)) +
                              "_requests",
                          1);
    }
    if (inf.shed()) {
      metrics_.AddCounter("degrade/shed_requests", 1);
      // Shedding is (nearly) free, so it counts as a good signal: after
      // recover_after consecutive sheds the ladder steps back, and later
      // requests of the same wave then match again.
      ObserveOverload(0.0, /*budget_exhausted=*/false);
      RecordOutcome(run, inf, nullptr, 0.0);
      continue;
    }
    pending.push_back(std::move(inf));
  }

  // --- Advance the world to the wave's horizon, once per wave. ---
  {
    PTAR_TRACE_SPAN("advance");
    Timer timer;
    AdvanceTo(wave.back().submit_time);
    phase_advance_us_->Add(timer.ElapsedMicros());
  }
  {
    PTAR_TRACE_SPAN("refresh");
    Timer timer;
    RefreshStaleTrees();
    phase_refresh_us_->Add(timer.ElapsedMicros());
  }

  // Runs `match(s)` for slots [0, active): on the run's pool when more than
  // one slot is active, inline otherwise. One task per slot, not per
  // request: coarse tasks keep queue traffic negligible.
  const auto run_slots = [&run](std::size_t active, const auto& match) {
    if (run.pool == nullptr || active <= 1) {
      for (std::size_t s = 0; s < active; ++s) match(s);
      return;
    }
    std::vector<std::future<void>> tasks;
    tasks.reserve(active);
    for (std::size_t s = 0; s < active; ++s) {
      tasks.push_back(run.pool->Submit([&match, s] { match(s); }));
    }
    for (std::future<void>& task : tasks) task.get();
  };
  // Commits the chosen option (if any) and records the final disposition.
  const auto settle = [&](InFlight& inf, const Option* chosen) {
    if (chosen != nullptr) {
      CommitChoice(*inf.request, *chosen);
      if (options_.audit_after_commit) AuditAfterCommit(chosen->vehicle);
    }
    RecordOutcome(run, inf, chosen, wave_timer.ElapsedMicros());
  };

  // --- Match / commit rounds. ---
  std::unordered_set<VehicleId> touched;
  for (int round = 0; !pending.empty(); ++round) {
    RegistrySnapshot snapshot;
    {
      Timer timer;
      snapshot = registry_.TakeSnapshot();
      phase_snapshot_us_->Add(timer.ElapsedMicros());
    }
    {
      obs::TraceSpan span(!run.pipelined && num_slots > 1 ? "shadow_match"
                                                          : "match_round");
      Timer timer;
      if (run.pipelined) {
        run_slots(std::min(pending.size(), num_slots), [&](std::size_t s) {
          for (std::size_t i = s; i < pending.size(); i += num_slots) {
            MatchSlot(run, pending[i], 0, s, snapshot);
          }
        });
      } else {
        // Every slot evaluates the wave's one request. At degraded levels
        // only slot 0 runs (an engine-owned fallback): shadow slots are
        // skipped to shed their load too.
        InFlight& inf = pending.front();
        run_slots(inf.level == DegradeLevel::kFull ? num_slots : 1,
                  [&](std::size_t s) { MatchSlot(run, inf, s, s, snapshot); });
      }
      phase_match_us_->Add(timer.ElapsedMicros());
    }
    // Commits mutate the registry in place once no snapshot shares its
    // shards; drop the view before the commit pass so the steady state
    // never pays a COW clone.
    snapshot = RegistrySnapshot();

    PTAR_TRACE_SPAN("commit");
    Timer commit_timer;
    touched.clear();
    std::vector<InFlight> losers;
    for (InFlight& inf : pending) {
      if (round == 0) RecordMatch(run, inf);
      const Option* chosen = ChooseOption(inf.results[0].options);
      if (chosen != nullptr && touched.contains(chosen->vehicle)) {
        // Conflict: a lower-id request of this round already took the
        // vehicle, so this result is stale. Re-match against a fresh
        // snapshot next round. The first loser of the next round faces
        // an empty touched set, so every round commits >= 1 request.
        ++run.stats.conflicts;
        ++inf.conflicts;
        losers.push_back(std::move(inf));
        continue;
      }
      if (chosen != nullptr) touched.insert(chosen->vehicle);
      settle(inf, chosen);
    }
    phase_commit_us_->Add(commit_timer.ElapsedMicros());

    if (losers.empty()) break;
    if (round >= options_.max_rematch_rounds) {
      // Re-match bound exhausted: the stragglers match serially against
      // live state, which cannot conflict.
      for (InFlight& inf : losers) {
        ++run.stats.serial_rematches;
        inf.serial_tail = true;
        MatchSlot(run, inf, 0, 0, registry_.TakeSnapshot());
        settle(inf, ChooseOption(inf.results[0].options));
      }
      break;
    }
    run.stats.rematches += losers.size();
    for (InFlight& inf : losers) ++inf.rematch_rounds;
    pending = std::move(losers);
  }
}

void Engine::MatchSlot(const WaveRun& run, InFlight& inf, std::size_t m,
                       std::size_t slot, const RegistrySnapshot& snapshot) {
  Matcher* matcher = run.slots[slot];
  if (inf.level == DegradeLevel::kSsa) matcher = &fallback_ssa_;
  if (inf.level == DegradeLevel::kGridScan) matcher = &fallback_grid_;
  // The span name carries the matcher name (interned only while tracing);
  // request and wave ids let a Perfetto track be correlated with the
  // lifecycle log's records.
  obs::TraceSpan span(obs::TraceRecorder::Global().enabled()
                          ? obs::InternSpanName("match_" + matcher->name())
                          : "match");
  span.AddArg("slot", static_cast<std::int64_t>(slot));
  span.AddArg("request", static_cast<std::int64_t>(inf.request->id));
  span.AddArg("wave", static_cast<std::int64_t>(run.stats.waves));
  MatchContext ctx = MakeMatchContextFor(slot);
  ctx.snapshot = &snapshot;
  // Armed on the slot's own thread so a wall deadline starts when the
  // matcher does, not while the task waits in the pool queue.
  ctx.budget = ArmSlotBudget(slot, inf.level);
  Timer timer;
  inf.results[m] = matcher->Match(*inf.request, ctx);
  if (m != 0) return;
  inf.matcher = matcher;
  inf.elapsed_micros = timer.ElapsedMicros();
  inf.snapshot_epoch = snapshot.global_epoch();
  if (ctx.budget != nullptr) {
    inf.budget_exhausted = ctx.budget->Exhausted();
    inf.deadline_hit = ctx.budget->deadline_hit();
    inf.budget_limit = ctx.budget->max_units();
    inf.budget_spent = ctx.budget->used();
  }
}

void Engine::RecordMatch(WaveRun& run, const InFlight& inf) {
  ObserveOverload(inf.elapsed_micros, inf.budget_exhausted, inf.deadline_hit);
  const MatchResult& committing = inf.results[0];
  if (!committing.complete) {
    ++run.stats.partial_skylines;
    metrics_.AddCounter("degrade/partial_skylines", 1);
  }
  // GeoPrune observability for slot 0, ladder fallbacks included (they run
  // with the prefilter installed too). The histogram gives the per-request
  // pruned-vs-(pruned+verified) share in percent.
  if (prune_filter_ != nullptr) {
    const MatchStats& st = committing.stats;
    metrics_.AddCounter("prune/ellipse_checked", st.ellipse_checked);
    metrics_.AddCounter("prune/ellipse_pruned", st.ellipse_pruned);
    metrics_.AddCounter("prune/verified_vehicles", st.verified_vehicles);
    const std::uint64_t denom = st.ellipse_pruned + st.verified_vehicles;
    if (denom > 0) {
      metrics_.Histogram("prune/pruned_share_pct")
          .Add(100.0 * static_cast<double>(st.ellipse_pruned) /
               static_cast<double>(denom));
    }
  }
  // Per-matcher aggregates describe the *configured* matchers; at degraded
  // levels slot 0 ran an engine-owned fallback instead (and shadow slots
  // ran nothing), so those requests are excluded.
  if (inf.level != DegradeLevel::kFull) return;
  for (std::size_t m = 0; m < inf.results.size(); ++m) {
    const MatchResult& result = inf.results[m];
    MatcherAggregate& agg = run.stats.matchers[m];
    agg.totals.Accumulate(result.stats);
    agg.latency_ms.Add(result.stats.elapsed_micros / 1e3);
    ++agg.requests;
    agg.options_sum += result.options.size();
    // Precision / recall vs. the committing matcher (Table III).
    agg.precision_sum += Coverage(result.options, committing.options);
    agg.recall_sum += Coverage(committing.options, result.options);
    run.hists[m].latency_us->Add(result.stats.elapsed_micros);
    run.hists[m].compdists->Add(static_cast<double>(result.stats.compdists));
    run.hists[m].options->Add(static_cast<double>(result.options.size()));
  }
}

void Engine::RecordOutcome(WaveRun& run, InFlight& inf, const Option* chosen,
                           double latency_micros) {
  const Request& request = *inf.request;
  const bool shed = inf.shed();
  if (chosen != nullptr) {
    ++run.stats.served;
  } else {
    ++run.stats.unserved;
  }
  if (shed) ++run.stats.shed_requests;
  if (!shed) request_latency_us_->Add(latency_micros);
  if (run.records != nullptr) {
    CommitRecord record{.request = request.id, .shed = shed};
    if (chosen != nullptr) {
      record.served = true;
      record.vehicle = chosen->vehicle;
      record.pickup_dist = chosen->pickup_dist;
      record.price = chosen->price;
    }
    run.records->push_back(record);
  }

  if (obs::MetricsRegistry* w = TelemetryWindowFor(request.submit_time)) {
    w->AddCounter(obs::kWindowRequests);
    w->AddCounter(obs::kWindowLadderLevels[static_cast<int>(inf.level)]);
    if (shed) {
      w->AddCounter(obs::kWindowShed);
    } else {
      w->AddCounter(chosen != nullptr ? obs::kWindowServed
                                      : obs::kWindowUnserved);
      if (!inf.results[0].complete) w->AddCounter(obs::kWindowPartial);
      if (inf.conflicts > 0) {
        w->AddCounter(obs::kWindowConflicts, inf.conflicts);
      }
      if (inf.rematch_rounds > 0) {
        w->AddCounter(obs::kWindowRematches, inf.rematch_rounds);
      }
      w->Histogram(obs::kWindowCommitLatencyUs).Add(latency_micros);
    }
  }

  if (lifecycle_ != nullptr && lifecycle_->enabled() &&
      lifecycle_->Sampled(request.id)) {
    obs::LifecycleEvent event;
    event.request = request.id;
    event.submit_time = request.submit_time;
    event.wave = run.stats.waves;
    event.level = DegradeLevelName(inf.level);
    event.disposition =
        shed ? "shed" : (chosen != nullptr ? "served" : "unserved");
    if (!shed) {
      event.snapshot_epoch = inf.snapshot_epoch;
      event.matcher = inf.matcher->name();
      event.budget_limit = inf.budget_limit;
      event.budget_spent = inf.budget_spent;
      event.budget_exhausted = inf.budget_exhausted;
      event.partial = !inf.results[0].complete;
      event.options = inf.results[0].options.size();
      event.conflicts = inf.conflicts;
      event.rematch_rounds = inf.rematch_rounds;
      event.serial_tail = inf.serial_tail;
      if (chosen != nullptr) {
        event.vehicle = chosen->vehicle;
        event.pickup_dist = chosen->pickup_dist;
        event.price = chosen->price;
      }
      event.match_us = inf.elapsed_micros;
      if (overload_.DeadlineMicros() > 0.0) {
        event.deadline_slack_us = std::max(
            0.0, overload_.DeadlineMicros() - inf.elapsed_micros);
      }
    }
    lifecycle_->Record(event);
  }

  if (run.outcome != nullptr) {
    RequestOutcome& out = *run.outcome;
    out.degrade_level = inf.level;
    out.shed = shed;
    if (shed) {
      out.status = Status::ResourceExhausted(
          "overload ladder at shed level: request refused unmatched");
    }
    out.served = chosen != nullptr;
    if (chosen != nullptr) out.chosen = *chosen;
    out.evaluated.assign(inf.results.size(), 0);
    for (std::size_t m = 0; m < inf.results.size(); ++m) {
      out.evaluated[m] = !shed && (m == 0 || inf.level == DegradeLevel::kFull);
    }
    out.results = std::move(inf.results);
  }
}

void Engine::HarvestRunMetrics(WaveRun& run) {
  std::lock_guard<std::mutex> quiesced(quiesce_mu_);
  run.stats.shared = shared_requests_.size();
  if (run.pipelined) {
    metrics_.AddCounter("pipeline/waves", run.stats.waves);
    metrics_.AddCounter("pipeline/conflicts", run.stats.conflicts);
    metrics_.AddCounter("pipeline/rematches", run.stats.rematches);
    metrics_.AddCounter("pipeline/serial_rematches",
                        run.stats.serial_rematches);
  }
  // Oracle batching stats accumulate per slot oracle; merge the delta since
  // the last harvest under the slot matcher's name and reset the source so
  // two calls don't double count. Pipeline workers run one matcher, so
  // their slots merge into one key whose sum over requests is identical at
  // every worker count (worker assignment only partitions the work).
  for (std::size_t s = 0; s < run.slots.size(); ++s) {
    DistanceOracle* oracle =
        s == 0 ? &match_oracle_ : matcher_oracles_[s - 1].get();
    metrics_.MergeBatchStats("matcher/" + run.slots[s]->name() + "/batch",
                             oracle->batch_stats());
    oracle->ResetBatchStats();
  }
  const auto harvest_pool = [this](const ThreadPool* pool,
                                   const std::string& prefix,
                                   PoolHarvest& done) {
    if (pool == nullptr) return;
    const std::uint64_t tasks = pool->tasks_run();
    const std::uint64_t wait = pool->total_wait_micros();
    metrics_.AddCounter(prefix + "tasks_run", tasks - done.tasks);
    metrics_.AddCounter(prefix + "queue_wait_micros",
                        wait - done.wait_micros);
    done = {tasks, wait};
  };
  harvest_pool(pool_.get(), "pool/", pool_harvested_);
  harvest_pool(engine_pool_.get(), "pool/engine_", engine_pool_harvested_);
  if (options_.tree_max_branches != KineticTree::kUnlimitedBranches) {
    // Attribute capped-enumeration option loss. Per-tree counters are
    // lifetime-cumulative, so fold only the delta since the last harvest.
    std::uint64_t dropped = 0;
    std::uint64_t cap_hits = 0;
    for (const KineticTree& tree : fleet_) {
      dropped += tree.branches_dropped();
      cap_hits += tree.cap_hits();
    }
    metrics_.AddCounter("tree/branches_dropped",
                        dropped - tree_dropped_harvested_);
    metrics_.AddCounter("tree/cap_hits", cap_hits - tree_cap_hits_harvested_);
    tree_dropped_harvested_ = dropped;
    tree_cap_hits_harvested_ = cap_hits;
  }
}

}  // namespace ptar
