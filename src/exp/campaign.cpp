#include "exp/campaign.hpp"

#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "exp/journal.hpp"
#include "exp/pool.hpp"
#include "stats/descriptive.hpp"

namespace cmdare::exp {
namespace {

/// Installs a telemetry bundle on the current thread for a scope and
/// restores the previous one (null on pool workers) on exit.
class ThreadTelemetryGuard {
 public:
  explicit ThreadTelemetryGuard(obs::Telemetry* bundle)
      : previous_(obs::telemetry()) {
    obs::install(bundle);
  }
  ~ThreadTelemetryGuard() { obs::install(previous_); }
  ThreadTelemetryGuard(const ThreadTelemetryGuard&) = delete;
  ThreadTelemetryGuard& operator=(const ThreadTelemetryGuard&) = delete;

 private:
  obs::Telemetry* previous_;
};

/// One replica's landing slot. The owning worker fills it without a
/// lock (slots are disjoint), then flips `done` under the engine mutex;
/// the in-order fold drains it under the same mutex.
struct Slot {
  bool done = false;
  bool failed = false;
  /// Replayed from the resume journal — already on disk, never re-append.
  bool from_journal = false;
  ReplicaResult result;
  std::string error;
  std::unique_ptr<obs::Telemetry> telemetry;
};

}  // namespace

double MetricAggregate::cov() const {
  if (running.count() < 2) return 0.0;
  const double m = running.mean();
  return m == 0.0 ? 0.0 : running.stddev() / m;
}

double MetricAggregate::quantile(double q) const {
  if (values.empty()) return 0.0;
  return stats::quantile(values, q);
}

GridResult run_grid(std::size_t cells, int replica_count, std::uint64_t seed,
                    const GridReplicaFn& replica, const RunOptions& options) {
  if (!replica) {
    throw std::invalid_argument("run_grid: replica function is empty");
  }
  if (cells == 0) {
    throw std::invalid_argument("run_grid: zero cells");
  }
  if (replica_count < 1) {
    throw std::invalid_argument("run_grid: replicas < 1");
  }
  const auto started = std::chrono::steady_clock::now();

  GridResult result;
  result.aggregates.assign(cells, {});
  result.jobs_used = resolve_jobs(options.jobs);

  const std::size_t replicas = static_cast<std::size_t>(replica_count);
  const std::size_t total = cells * replicas;
  result.progress.replicas_total = total;
  result.progress.cells_total = cells;

  const util::Rng root(seed);
  std::vector<Slot> slots(total);
  // Per-cell fold cursor: replica r of cell c folds only after replicas
  // 0..r-1 of that cell have folded, which pins the aggregation order —
  // and therefore every floating-point sum — for any thread count.
  std::vector<std::size_t> next_fold(cells, 0);
  std::vector<std::unique_ptr<obs::Telemetry>> cell_telemetry(cells);
  std::mutex fold_mutex;

  // Crash-resumable journal: cached[] points at the journal entry of a
  // replica already on disk (replayed instead of re-run); journal_out
  // receives one flushed line per newly completed replica, written under
  // the fold lock so the file is always whole lines plus at most one
  // torn trailing append.
  JournalContents journal;
  std::vector<const JournalEntry*> cached(total, nullptr);
  std::ofstream journal_out;
  if (!options.journal_path.empty()) {
    const JournalHeader header{seed, cells, replica_count,
                               options.capture_telemetry};
    if (options.resume) {
      std::ifstream in(options.journal_path);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        journal = parse_journal(buffer.str());
        if (journal.header.seed != header.seed ||
            journal.header.cells != header.cells ||
            journal.header.replicas != header.replicas ||
            journal.header.telemetry != header.telemetry) {
          throw std::invalid_argument(
              "run_grid: journal \"" + options.journal_path +
              "\" does not match this campaign (journal \"" +
              format_journal_header(journal.header) + "\", campaign \"" +
              format_journal_header(header) + "\")");
        }
        for (const JournalEntry& entry : journal.entries) {
          if (entry.cell < cells && entry.replica >= 0 &&
              entry.replica < replica_count) {
            cached[entry.cell * replicas +
                   static_cast<std::size_t>(entry.replica)] = &entry;
          }
        }
      }
    }
    // Rewrite from the parsed contents — dropping any torn trailing
    // line — then keep appending.
    journal_out.open(options.journal_path, std::ios::trunc);
    if (!journal_out) {
      throw std::invalid_argument("run_grid: cannot write journal \"" +
                                  options.journal_path + "\"");
    }
    journal_out << format_journal_header(header) << "\n";
    for (const JournalEntry& entry : journal.entries) {
      journal_out << format_journal_entry(entry) << "\n";
    }
    journal_out.flush();
  }

  auto fold_ready = [&](std::size_t c) {
    CellAggregate& agg = result.aggregates[c];
    while (next_fold[c] < replicas) {
      Slot& slot = slots[c * replicas + next_fold[c]];
      if (!slot.done) break;
      const int r = static_cast<int>(next_fold[c]);
      if (journal_out.is_open() && !slot.from_journal) {
        JournalEntry entry;
        entry.cell = c;
        entry.replica = r;
        entry.failed = slot.failed;
        entry.error = slot.error;
        entry.observations = slot.result.observations;
        if (slot.telemetry) entry.ledger = slot.telemetry->ledger.events();
        journal_out << format_journal_entry(entry) << "\n";
        journal_out.flush();
      }
      if (slot.failed) {
        ++agg.replicas_failed;
        ++result.progress.replicas_failed;
        agg.failures.push_back({r, std::move(slot.error)});
      } else {
        ++agg.replicas_ok;
        for (auto& [metric, value] : slot.result.observations) {
          MetricAggregate& m = agg.metrics[metric];
          m.running.add(value);
          m.values.push_back(value);
        }
      }
      if (slot.telemetry) {
        if (!cell_telemetry[c]) {
          cell_telemetry[c] = std::make_unique<obs::Telemetry>();
        }
        const std::string prefix = "replica" + std::to_string(r) + "/";
        cell_telemetry[c]->registry.merge(slot.telemetry->registry);
        cell_telemetry[c]->tracer.merge(slot.telemetry->tracer, prefix);
        cell_telemetry[c]->ledger.merge(slot.telemetry->ledger, prefix);
      }
      slot = Slot{};  // release the buffered result eagerly
      ++next_fold[c];
      ++result.progress.replicas_done;
      if (next_fold[c] == replicas) ++result.progress.cells_done;
      if (options.on_progress) options.on_progress(result.progress);
    }
  };

  {
    ThreadPool pool(options.jobs);
    pool.parallel_for(total, [&](std::size_t task) {
      const std::size_t c = task / replicas;
      const std::size_t r = task % replicas;
      Slot& slot = slots[task];
      if (const JournalEntry* hit = cached[task]) {
        // Replay the journaled outcome; the replica function never runs.
        slot.from_journal = true;
        if (hit->failed) {
          slot.failed = true;
          slot.error = hit->error;
        } else {
          slot.result.observations = hit->observations;
        }
        if (options.capture_telemetry) {
          slot.telemetry = std::make_unique<obs::Telemetry>();
          for (const obs::LedgerEvent& event : hit->ledger) {
            slot.telemetry->ledger.record(event);
          }
        }
        std::lock_guard<std::mutex> lock(fold_mutex);
        slot.done = true;
        fold_ready(c);
        return;
      }
      util::Rng rng = root.fork(static_cast<std::uint64_t>(c))
                          .fork(static_cast<std::uint64_t>(r));
      obs::Telemetry* telemetry = nullptr;
      if (options.capture_telemetry) {
        slot.telemetry = std::make_unique<obs::Telemetry>();
        telemetry = slot.telemetry.get();
      }
      {
        ThreadTelemetryGuard guard(telemetry);
        try {
          slot.result = replica(c, static_cast<int>(r), rng, telemetry);
        } catch (const std::exception& e) {
          slot.failed = true;
          slot.error = e.what();
        } catch (...) {
          slot.failed = true;
          slot.error = "unknown error";
        }
      }
      std::lock_guard<std::mutex> lock(fold_mutex);
      slot.done = true;
      fold_ready(c);
    });
  }

  // Deterministic cross-cell telemetry merge, on the calling thread.
  if (options.capture_telemetry) {
    result.telemetry = std::make_unique<obs::Telemetry>();
    for (std::size_t c = 0; c < cell_telemetry.size(); ++c) {
      if (!cell_telemetry[c]) continue;
      const std::string prefix = "cell" + std::to_string(c) + "/";
      result.telemetry->registry.merge(cell_telemetry[c]->registry);
      result.telemetry->tracer.merge(cell_telemetry[c]->tracer, prefix);
      result.telemetry->ledger.merge(cell_telemetry[c]->ledger, prefix);
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

}  // namespace cmdare::exp
