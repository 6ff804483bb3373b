#include "exp/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/journal.hpp"
#include "exp/pool.hpp"
#include "obs/ledger.hpp"

namespace cmdare::exp {
namespace {

int hardware_jobs() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// The test grid: 4 cells x 64 replicas at seed 7.
constexpr std::size_t kCells = 4;
constexpr int kReplicas = 64;
constexpr std::uint64_t kSeed = 7;

// A cheap, fully deterministic replica: a few floating-point
// observations derived from the replica's private stream and the cell
// index.
ReplicaResult arithmetic_replica(std::size_t cell, int /*replica*/,
                                 util::Rng& rng, obs::Telemetry*) {
  ReplicaResult result;
  double acc = static_cast<double>(cell + 1);
  for (int i = 0; i < 16; ++i) {
    acc += rng.uniform() * static_cast<double>(cell % 2 == 0 ? 1 : 3);
    result.observe("acc", acc);
  }
  result.observe("first_uniform", rng.uniform());
  return result;
}

GridResult run_test_grid(const GridReplicaFn& replica,
                         const RunOptions& options, int replicas = kReplicas,
                         std::uint64_t seed = kSeed) {
  return run_grid(kCells, replicas, seed, replica, options);
}

/// Every aggregate, each value in exact hex-float form, so two runs
/// compare bit for bit.
std::string aggregate_dump(const GridResult& result) {
  std::string out;
  char number[32];
  const auto put = [&](double value) {
    std::snprintf(number, sizeof number, " %a", value);
    out += number;
  };
  for (std::size_t c = 0; c < result.aggregates.size(); ++c) {
    const CellAggregate& agg = result.aggregates[c];
    out += "cell " + std::to_string(c) + " ok " +
           std::to_string(agg.replicas_ok) + " failed " +
           std::to_string(agg.replicas_failed) + "\n";
    for (const auto& [metric, m] : agg.metrics) {
      out += metric;
      for (const double v : {m.running.mean(), m.running.stddev(),
                             m.running.min(), m.running.max()}) {
        put(v);
      }
      for (const double v : m.values) put(v);
      out += "\n";
    }
  }
  return out;
}

TEST(Campaign, RunGridRejectsEmptyGridsAndBadReplicaCounts) {
  EXPECT_THROW(run_grid(kCells, 1, kSeed, {}), std::invalid_argument);
  EXPECT_THROW(run_grid(0, 1, kSeed, arithmetic_replica),
               std::invalid_argument);
  EXPECT_THROW(run_grid(kCells, 0, kSeed, arithmetic_replica),
               std::invalid_argument);
}

TEST(Campaign, ReplicaSeedsFollowTheForkChain) {
  RunOptions options;
  options.jobs = 1;
  const GridResult result = run_test_grid(arithmetic_replica, options, 3);

  const util::Rng root(kSeed);
  for (std::size_t c = 0; c < result.aggregates.size(); ++c) {
    const auto& firsts = result.aggregates[c].metrics.at("first_uniform");
    ASSERT_EQ(firsts.values.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      util::Rng expected = root.fork(static_cast<std::uint64_t>(c))
                               .fork(static_cast<std::uint64_t>(r));
      // arithmetic_replica consumes 16 uniforms before recording.
      for (int i = 0; i < 16; ++i) (void)expected.uniform();
      EXPECT_DOUBLE_EQ(firsts.values[static_cast<std::size_t>(r)],
                       expected.uniform())
          << "cell " << c << " replica " << r;
    }
  }
}

TEST(Campaign, AggregateCsvIsByteIdenticalAcrossJobCounts) {
  std::vector<std::string> dumps;  // 4 cells x 64 replicas each
  for (const int jobs : {1, 4, hardware_jobs()}) {
    RunOptions options;
    options.jobs = jobs;
    dumps.push_back(aggregate_dump(run_test_grid(arithmetic_replica,
                                                 options)));
  }
  EXPECT_EQ(dumps[0], dumps[1]) << "--jobs 1 vs --jobs 4";
  EXPECT_EQ(dumps[0], dumps[2]) << "--jobs 1 vs --jobs hardware_concurrency";
  EXPECT_NE(dumps[0].find("acc "), std::string::npos);
}

TEST(Campaign, SameSeedSameResultDifferentSeedDifferentResult) {
  RunOptions options;
  options.jobs = 2;
  const std::string a =
      aggregate_dump(run_test_grid(arithmetic_replica, options));
  const std::string b =
      aggregate_dump(run_test_grid(arithmetic_replica, options));
  EXPECT_EQ(a, b);
  const std::string c = aggregate_dump(
      run_test_grid(arithmetic_replica, options, kReplicas, kSeed + 1));
  EXPECT_NE(a, c);
}

TEST(Campaign, ThrowingReplicasAreIsolatedAndRecorded) {
  const GridReplicaFn replica = [](std::size_t cell, int r, util::Rng& rng,
                                   obs::Telemetry* telemetry) {
    if (cell == 1 && (r == 2 || r == 5)) {
      throw std::runtime_error("synthetic replica crash");
    }
    return arithmetic_replica(cell, r, rng, telemetry);
  };

  std::vector<std::string> dumps;
  for (const int jobs : {1, 4}) {
    RunOptions options;
    options.jobs = jobs;
    const GridResult result = run_test_grid(replica, options, 8);
    EXPECT_EQ(result.progress.replicas_failed, 2u);
    const CellAggregate& crashed = result.aggregates[1];
    EXPECT_EQ(crashed.replicas_failed, 2);
    EXPECT_EQ(crashed.replicas_ok, 6);
    ASSERT_EQ(crashed.failures.size(), 2u);
    EXPECT_EQ(crashed.failures[0].replica, 2);
    EXPECT_EQ(crashed.failures[1].replica, 5);
    EXPECT_EQ(crashed.failures[0].error, "synthetic replica crash");
    // Surviving replicas of the crashed cell still aggregated.
    EXPECT_EQ(crashed.metrics.at("first_uniform").values.size(), 6u);
    // Untouched cells are complete.
    EXPECT_EQ(result.aggregates[0].replicas_ok, 8);
    dumps.push_back(aggregate_dump(result));
  }
  EXPECT_EQ(dumps[0], dumps[1]) << "failures must not break determinism";
}

TEST(Campaign, ProgressIsSerializedMonotonicAndComplete) {
  RunOptions options;  // 256 replicas
  options.jobs = 4;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  Progress final{};
  options.on_progress = [&](const Progress& p) {
    // Serialized by the engine's fold mutex: plain variables suffice.
    ++calls;
    EXPECT_EQ(p.replicas_done, last_done + 1);
    last_done = p.replicas_done;
    EXPECT_LE(p.cells_done, p.cells_total);
    final = p;
  };
  const GridResult result = run_test_grid(arithmetic_replica, options);
  EXPECT_EQ(calls, result.progress.replicas_total);
  EXPECT_EQ(final.replicas_done, final.replicas_total);
  EXPECT_EQ(final.cells_done, final.cells_total);
  EXPECT_EQ(final.replicas_failed, 0u);
}

TEST(Campaign, CapturedTelemetryMergesDeterministically) {
  const GridReplicaFn replica = [](std::size_t, int, util::Rng& rng,
                                   obs::Telemetry* telemetry) {
    // Instrumented code inside a replica sees the per-replica bundle as
    // the thread's active telemetry.
    EXPECT_EQ(obs::telemetry(), telemetry);
    obs::registry()->counter("replica.work").inc();
    obs::tracer()->complete(obs::tracer()->track("replica"), "work", "exp",
                            0.0, 1.0);
    ReplicaResult result;
    result.observe("x", rng.uniform());
    return result;
  };
  RunOptions options;
  options.jobs = 4;
  options.capture_telemetry = true;
  const GridResult result = run_test_grid(replica, options, 4);
  ASSERT_NE(result.telemetry, nullptr);
  EXPECT_DOUBLE_EQ(result.telemetry->registry.counter("replica.work").value(),
                   static_cast<double>(result.progress.replicas_total));
  // Every replica's track merged under its cell/replica prefix.
  EXPECT_EQ(result.telemetry->tracer.spans().size(),
            result.progress.replicas_total);
  const auto& tracks = result.telemetry->tracer.track_names();
  EXPECT_NE(std::find(tracks.begin(), tracks.end(), "cell0/replica0/replica"),
            tracks.end());
}

// --- Crash-resumable campaign journal (exp/journal.hpp) ---

std::string journal_path_for(const std::string& name) {
  return ::testing::TempDir() + "cmdare_" + name + ".journal";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Keeps the journal header plus the first `entries` completed lines —
/// the on-disk prefix a crash at that point would leave behind.
std::string journal_prefix(const std::string& text, std::size_t entries) {
  std::size_t pos = 0;
  for (std::size_t line = 0; line < entries + 1; ++line) {
    pos = text.find('\n', pos);
    EXPECT_NE(pos, std::string::npos);
    ++pos;
  }
  return text.substr(0, pos);
}

/// arithmetic_replica plus one ledger event, so resume tests cover the
/// merged-ledger half of the byte-identity contract too.
ReplicaResult ledgered_replica(std::size_t cell, int replica, util::Rng& rng,
                               obs::Telemetry* telemetry) {
  ReplicaResult result = arithmetic_replica(cell, replica, rng, telemetry);
  if (obs::Ledger* ledger = obs::ledger()) {
    obs::LedgerEvent event;
    event.kind = obs::LedgerEventKind::kUpload;
    event.at = static_cast<double>(replica) + 0.5;
    event.source = "test";
    event.step = static_cast<long>(cell);
    event.detail = {{"bytes", "123"}};
    ledger->record(std::move(event));
  }
  return result;
}

TEST(CampaignJournal, FormatAndParseRoundTripIncludingEscapes) {
  JournalHeader header;
  header.seed = 42;
  header.cells = 3;
  header.replicas = 5;
  header.telemetry = true;

  JournalEntry ok;
  ok.cell = 2;
  ok.replica = 4;
  ok.observations = {{"plain", 1.5},
                     {"tab\tnewline\nbackslash\\", -0.062500001},
                     {"plain", 3.0}};  // repeated metric names survive
  obs::LedgerEvent event;
  event.kind = obs::LedgerEventKind::kCkptQuarantine;
  event.at = 12.5;
  event.source = "ckpt";
  event.step = 30;
  event.detail = {{"generation", "2"}, {"reason", "checksum"}};
  ok.ledger = {event};

  JournalEntry fail;
  fail.cell = 1;
  fail.replica = 0;
  fail.failed = true;
  fail.error = "boom\twith\nnoise\\";

  const std::string text = format_journal_header(header) + "\n" +
                           format_journal_entry(ok) + "\n" +
                           format_journal_entry(fail) + "\n";
  const JournalContents contents = parse_journal(text);
  EXPECT_EQ(contents.header.seed, 42u);
  EXPECT_EQ(contents.header.cells, 3u);
  EXPECT_EQ(contents.header.replicas, 5);
  EXPECT_TRUE(contents.header.telemetry);
  ASSERT_EQ(contents.entries.size(), 2u);

  const JournalEntry& a = contents.entries[0];
  EXPECT_EQ(a.cell, 2u);
  EXPECT_EQ(a.replica, 4);
  EXPECT_FALSE(a.failed);
  ASSERT_EQ(a.observations.size(), 3u);
  EXPECT_EQ(a.observations[1].first, "tab\tnewline\nbackslash\\");
  EXPECT_EQ(a.observations[1].second, -0.062500001);
  ASSERT_EQ(a.ledger.size(), 1u);
  EXPECT_EQ(obs::serialize_ledger_event(a.ledger[0]),
            obs::serialize_ledger_event(event));

  const JournalEntry& b = contents.entries[1];
  EXPECT_TRUE(b.failed);
  EXPECT_EQ(b.cell, 1u);
  EXPECT_EQ(b.replica, 0);
  EXPECT_EQ(b.error, "boom\twith\nnoise\\");
}

TEST(CampaignJournal, TornFinalLineDropsButEarlierCorruptionThrows) {
  JournalHeader header;
  header.cells = 2;
  header.replicas = 2;
  JournalEntry entry;
  entry.cell = 0;
  entry.replica = 1;
  entry.observations = {{"x", 1.0}};
  const std::string good = format_journal_header(header) + "\n" +
                           format_journal_entry(entry) + "\n";

  // The writer died mid-append: the final line has no "end" marker.
  const JournalContents torn = parse_journal(good + "1\t0\tok\t2\tme");
  ASSERT_EQ(torn.entries.size(), 1u);
  EXPECT_EQ(torn.entries[0].cell, 0u);

  // The same malformed text *before* a completed line is corruption,
  // and the diagnostic carries the 1-based line number.
  const std::string corrupt = format_journal_header(header) + "\n" +
                              "1\t0\tok\t2\tme\n" +
                              format_journal_entry(entry) + "\n";
  try {
    parse_journal(corrupt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }

  // A missing or foreign header is never a resumable journal.
  EXPECT_THROW(parse_journal(format_journal_entry(entry) + "\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_journal("#some-other-file v9\n"), std::invalid_argument);
}

TEST(CampaignJournal, ResumeRefusesAMismatchedHeader) {
  RunOptions options;
  options.jobs = 1;
  options.journal_path = journal_path_for("mismatch");
  (void)run_test_grid(arithmetic_replica, options, 2);

  options.resume = true;
  // Same grid, different seed: a different campaign.
  EXPECT_THROW(run_test_grid(arithmetic_replica, options, 2, kSeed + 1),
               std::invalid_argument);
  options.capture_telemetry = true;  // telemetry flag is part of identity
  EXPECT_THROW(run_test_grid(arithmetic_replica, options, 2),
               std::invalid_argument);
}

TEST(CampaignJournal, ResumedRunIsByteIdenticalAndSkipsJournaledReplicas) {
  const int replicas = 3;  // 4 cells x 3 replicas = 12

  // Reference: one uninterrupted recorded run.
  RunOptions record;
  record.jobs = 1;
  record.capture_telemetry = true;
  record.journal_path = journal_path_for("reference");
  const GridResult reference =
      run_test_grid(ledgered_replica, record, replicas);
  const std::string ref_dump = aggregate_dump(reference);
  std::ostringstream ref_ledger_out;
  obs::write_ledger_jsonl(reference.telemetry->ledger, ref_ledger_out);
  const std::string ref_ledger = ref_ledger_out.str();
  const std::string full_journal = read_file(record.journal_path);

  // Simulate the crash: 5 of 12 replicas made it to disk, plus a torn
  // partial line from the append that was in flight.
  const std::string crashed = journal_prefix(full_journal, 5) + "1\t2\tok\t3";

  for (const int jobs : {1, 4}) {
    RunOptions resume;
    resume.jobs = jobs;
    resume.capture_telemetry = true;
    resume.journal_path =
        journal_path_for("resume_j" + std::to_string(jobs));
    write_file(resume.journal_path, crashed);
    resume.resume = true;

    std::atomic<int> calls{0};
    const GridReplicaFn counting = [&calls](std::size_t cell, int replica,
                                            util::Rng& rng,
                                            obs::Telemetry* telemetry) {
      calls.fetch_add(1);
      return ledgered_replica(cell, replica, rng, telemetry);
    };
    const GridResult resumed = run_test_grid(counting, resume, replicas);

    // Journaled replicas replay from disk; only the missing 7 run.
    EXPECT_EQ(calls.load(), 7) << "--jobs " << jobs;
    EXPECT_EQ(resumed.progress.replicas_done, 12u);
    EXPECT_EQ(aggregate_dump(resumed), ref_dump) << "--jobs " << jobs;
    ASSERT_NE(resumed.telemetry, nullptr);
    std::ostringstream ledger_out;
    obs::write_ledger_jsonl(resumed.telemetry->ledger, ledger_out);
    EXPECT_EQ(ledger_out.str(), ref_ledger) << "--jobs " << jobs;

    // At --jobs 1 the fold order matches the reference run exactly, so
    // the healed journal is the uninterrupted journal, byte for byte.
    if (jobs == 1) {
      EXPECT_EQ(read_file(resume.journal_path), full_journal);
    }
  }

  // Resuming from an absent journal is a plain recorded run.
  RunOptions fresh;
  fresh.jobs = 1;
  fresh.capture_telemetry = true;
  fresh.journal_path = journal_path_for("fresh_resume");
  std::remove(fresh.journal_path.c_str());
  fresh.resume = true;
  const GridResult scratch = run_test_grid(ledgered_replica, fresh, replicas);
  EXPECT_EQ(aggregate_dump(scratch), ref_dump);
  EXPECT_EQ(read_file(fresh.journal_path), full_journal);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_GE(resolve_jobs(0), 1);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 3, 8}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(pool.size(), jobs);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForIsReusable) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(100, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterAllTasksRun) {
  for (const int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 10) throw std::runtime_error("task failed");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task failed");
    }
    EXPECT_EQ(ran.load(), 64);
  }
}

}  // namespace
}  // namespace cmdare::exp
