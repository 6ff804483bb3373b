// Randomized failure injection: sessions and runs driven by random
// revocation / join / rollback schedules must never crash, deadlock, or
// violate trace invariants. Parameterized over seeds so ctest surfaces
// each scenario individually.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cmdare/resource_manager.hpp"
#include "nn/model_zoo.hpp"
#include "obs/ledger.hpp"
#include "scenario/spec.hpp"
#include "simcore/simulator.hpp"
#include "train/session.hpp"
#include "train/sync_session.hpp"

namespace cmdare {
namespace {

class SessionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SessionFuzz, RandomChurnKeepsInvariants) {
  const int scenario = GetParam();
  util::Rng rng(9000 + scenario);
  simcore::Simulator sim;

  train::SessionConfig config;
  config.max_steps = 3000 + static_cast<long>(rng.uniform_index(3000));
  config.checkpoint_interval_steps =
      rng.bernoulli(0.7) ? 200 + static_cast<long>(rng.uniform_index(800))
                         : 0;
  config.ps_count = 1 + static_cast<int>(rng.uniform_index(3));
  config.mode = rng.bernoulli(0.5) ? train::FaultToleranceMode::kCmDare
                                   : train::FaultToleranceMode::kVanillaTf;

  const nn::CnnModel model =
      nn::all_models()[rng.uniform_index(20)];
  train::TrainingSession session(sim, model, config,
                                 rng.fork("session"));

  // Initial cluster: 1-4 workers of random GPU types.
  const int initial = 1 + static_cast<int>(rng.uniform_index(4));
  for (int i = 0; i < initial; ++i) {
    train::WorkerSpec spec;
    spec.gpu = static_cast<cloud::GpuType>(rng.uniform_index(3));
    spec.label = "w" + std::to_string(i);
    session.add_worker(spec, rng.uniform(0.0, 60.0));
  }

  // Random churn: every 20-200 s, revoke a random active worker or add a
  // new one (randomly reusing the chief IP in vanilla mode).
  std::function<void()> churn = [&] {
    if (session.finished()) return;
    if (rng.bernoulli(0.5) && session.active_worker_count() > 0) {
      // Revoke a random active worker.
      std::vector<train::WorkerId> active;
      for (train::WorkerId w = 0; w < session.worker_count(); ++w) {
        if (session.worker_active(w)) active.push_back(w);
      }
      if (!active.empty()) {
        session.revoke_worker(active[rng.uniform_index(active.size())]);
      }
    }
    if (session.active_worker_count() < 4 && rng.bernoulli(0.8)) {
      train::WorkerSpec spec;
      spec.gpu = static_cast<cloud::GpuType>(rng.uniform_index(3));
      session.add_worker(spec, rng.uniform(0.0, 30.0),
                         rng.bernoulli(0.3));  // sometimes reuse chief IP
    }
    sim.schedule_after(rng.uniform(20.0, 200.0), churn);
  };
  sim.schedule_after(rng.uniform(20.0, 200.0), churn);

  // Bound the run; with churn adding workers back it should finish, but a
  // hostile schedule may legitimately starve it — the invariants below
  // hold either way.
  sim.run_until(24.0 * 3600.0);

  // Invariants.
  const auto& trace = session.trace();
  EXPECT_LE(session.global_step(), trace.max_global_step());
  if (config.max_steps > 0 && session.finished()) {
    EXPECT_GE(trace.max_global_step(), config.max_steps);
  }
  // Step times recorded for reached steps are positive and finite.
  for (long s = 1; s <= std::min<long>(trace.max_global_step(), 500); ++s) {
    const auto t = trace.try_time_of_step(s);
    ASSERT_TRUE(t.has_value()) << "step " << s << " missing";
    EXPECT_GE(*t, 0.0);
    EXPECT_TRUE(std::isfinite(*t));
  }
  // Checkpoints are well-formed and attributed to real workers.
  for (const auto& c : trace.checkpoints()) {
    EXPECT_GT(c.duration(), 0.0);
    EXPECT_LT(c.by_worker, session.worker_count());
    EXPECT_GE(c.at_step, 1);
  }
  // Events are time-ordered.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].at, trace.events()[i].at);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SessionFuzz, ::testing::Range(0, 12));

class RunFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RunFuzz, TransientRunSurvivesChurnyRegions) {
  const int scenario = GetParam();
  util::Rng rng(7000 + scenario);
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, rng.fork("provider"));

  core::RunConfig config;
  config.session.max_steps = 20000 + static_cast<long>(
                                          rng.uniform_index(40000));
  config.session.checkpoint_interval_steps = 4000;
  // Random (region, GPU) combos from the measured set.
  const auto& targets = cloud::revocation_targets();
  const int workers = 2 + static_cast<int>(rng.uniform_index(3));
  for (int i = 0; i < workers; ++i) {
    const auto& t = targets[rng.uniform_index(targets.size())];
    train::WorkerSpec spec;
    spec.gpu = t.gpu;
    spec.region = t.region;
    spec.label = "w" + std::to_string(i);
    config.workers.push_back(spec);
  }

  core::TransientTrainingRun run(provider, nn::resnet15(), config,
                                 rng.fork("run"));
  run.start();
  // Occasionally reconfigure mid-run.
  if (rng.bernoulli(0.4)) {
    sim.schedule_at(rng.uniform(600.0, 3000.0), [&] {
      run.restart_with_ps_count(2);
    });
  }
  sim.run();

  EXPECT_TRUE(run.finished());
  EXPECT_GE(run.completed_steps(), config.session.max_steps);
  EXPECT_EQ(run.counters().replacements, run.counters().revocations);
  EXPECT_GT(run.cost_so_far(), 0.0);
  EXPECT_GT(run.elapsed_seconds(), 0.0);
  // All instances released at completion.
  for (const auto& record : provider.records()) {
    EXPECT_FALSE(record.alive());
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, RunFuzz, ::testing::Range(0, 8));

class SyncFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SyncFuzz, BarrierNeverDeadlocks) {
  util::Rng rng(8000 + GetParam());
  simcore::Simulator sim;
  train::SyncTrainingSession session(
      sim, nn::all_models()[rng.uniform_index(20)],
      1 + static_cast<int>(rng.uniform_index(2)),
      500 + static_cast<long>(rng.uniform_index(1500)), rng.fork("sync"));
  const int workers = 1 + static_cast<int>(rng.uniform_index(4));
  for (int i = 0; i < workers; ++i) {
    train::WorkerSpec spec;
    spec.gpu = static_cast<cloud::GpuType>(rng.uniform_index(3));
    session.add_worker(spec);
  }
  session.start();

  // Revoke workers at random times, but never the last one.
  std::function<void()> churn = [&] {
    if (session.finished() || session.active_worker_count() <= 1) return;
    // Picking any id is safe: revoking an already-revoked worker is a
    // no-op, and the active_worker_count() guard above keeps at least
    // one worker alive.
    session.revoke_worker(
        rng.uniform_index(static_cast<std::uint64_t>(workers)));
    sim.schedule_after(rng.uniform(5.0, 60.0), churn);
  };
  sim.schedule_after(rng.uniform(5.0, 60.0), churn);
  sim.run_until(12.0 * 3600.0);
  EXPECT_TRUE(session.finished());
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SyncFuzz, ::testing::Range(0, 8));

class SpecParseFuzz : public ::testing::TestWithParam<int> {};

/// Every key the spec codec reads: the keys serialize() emits for a spec
/// whose lists are all non-empty, plus the write-only ones.
std::vector<std::string> spec_keys() {
  scenario::ScenarioSpec spec;
  spec.workers.emplace_back();
  spec.faults.stockouts.emplace_back();
  spec.faults.storms.emplace_back();
  spec.faults.tier_outages.emplace_back();
  std::vector<std::string> keys = {"fault_rate", "worker", "stockout", "storm",
                                   "ckpt.tier_outage"};
  std::istringstream lines(scenario::serialize(spec));
  std::string line;
  while (std::getline(lines, line)) {
    keys.push_back(line.substr(0, line.find(" = ")));
  }
  return keys;
}

TEST_P(SpecParseFuzz, RandomBytesNeverCrashTheParser) {
  // ScenarioSpec::parse is the boundary that eats user files: any byte
  // soup must come back as diagnostics, never a throw or a crash.
  util::Rng rng(6000 + GetParam());
  // Bias toward structure so parsing goes deeper than line 1: newlines,
  // separators, values, and real keys.
  std::vector<std::string> fragments = {
      "\n", "=", "#", " x ", " @ ", "..", ",", "-", "1e", "true", "run",
      "K80", "us-central1", "*", "/", "nan", "inf", "round-robin",
      "cost-optimal", "kill=", "hazard=", "slow=", "local", "regional",
      "cold"};
  for (std::string& key : spec_keys()) fragments.push_back(std::move(key));
  for (int doc = 0; doc < 50; ++doc) {
    std::string text;
    const std::size_t length = rng.uniform_index(2000);
    text.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      if (rng.bernoulli(0.15)) {
        text += fragments[rng.uniform_index(fragments.size())];
      } else {
        text += static_cast<char>(rng.uniform_index(256));
      }
    }
    const scenario::ParseResult result = scenario::parse(text);
    // Diagnostics must reference real lines of the input (or line 0 for
    // file-level semantic errors).
    for (const scenario::Diagnostic& d : result.diagnostics) {
      EXPECT_GE(d.line, 0);
      EXPECT_FALSE(d.message.empty());
    }
    // Whatever survived parsing must serialize, and the canonical text
    // must itself parse without per-line errors.
    const std::string canonical = scenario::serialize(result.spec);
    const scenario::ParseResult again = scenario::parse(canonical);
    for (const scenario::Diagnostic& d : again.diagnostics) {
      EXPECT_EQ(d.line, 0) << "canonical text rejected: " << d.message;
    }
    EXPECT_EQ(scenario::serialize(again.spec), canonical);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SpecParseFuzz, ::testing::Range(0, 8));

class LedgerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LedgerFuzz, RandomBytesNeverCrashTheReader) {
  // parse_ledger_jsonl eats whatever file the user hands run_report: any
  // byte soup must come back as per-line diagnostics, never a throw, and
  // every event that did parse must re-serialize and re-parse cleanly.
  util::Rng rng(7000 + GetParam());
  for (int doc = 0; doc < 50; ++doc) {
    std::string text;
    const std::size_t length = rng.uniform_index(2000);
    text.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      if (rng.bernoulli(0.2)) {
        // Bias toward JSONL structure so parsing reaches field handling:
        // braces, quoted keys, kind tokens, numbers, escapes.
        static const char* kFragments[] = {
            "\n", "{", "}", "\"", ":", ",", "\"at\"", "\"kind\"",
            "\"source\"", "\"instance\"", "\"worker\"", "\"step\"",
            "\"seconds\"", "\"usd\"", "\"detail\"", "billing",
            "launch_attempt", "revocation", "catchup_complete", "-1",
            "1e308", "0.25", "\\u00e9", "\\\"", "true", "null", "[", "]",
            "tenant_placement", "eviction", "migration",
            "tenant_complete", "breaker_transition", "elastic_shrink",
            "elastic_grow", "ckpt_quarantine", "ckpt_restore",
            "ckpt_compact"};
        text += kFragments[rng.uniform_index(std::size(kFragments))];
      } else {
        text += static_cast<char>(rng.uniform_index(256));
      }
    }
    const obs::LedgerParseResult result = obs::parse_ledger_jsonl(text);
    for (const std::string& error : result.errors) {
      EXPECT_EQ(error.find("line "), 0u) << error;
    }
    // Survivors round-trip: serialize -> parse -> serialize is stable.
    std::ostringstream out;
    obs::write_ledger_jsonl(result.ledger, out);
    const obs::LedgerParseResult again = obs::parse_ledger_jsonl(out.str());
    EXPECT_TRUE(again.ok());
    EXPECT_EQ(again.ledger.size(), result.ledger.size());
    std::ostringstream out2;
    obs::write_ledger_jsonl(again.ledger, out2);
    EXPECT_EQ(out2.str(), out.str());
  }
}

INSTANTIATE_TEST_SUITE_P(Ledgers, LedgerFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace cmdare
