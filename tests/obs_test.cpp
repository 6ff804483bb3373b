// Telemetry layer: registry semantics, tracer recording, exporter output,
// and the cross-layer instrumentation of a real training run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "cloud/storage.hpp"
#include "nn/model_zoo.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/sim_profiler.hpp"
#include "obs/trace.hpp"
#include "train/session.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace cmdare {
namespace {

// --- a minimal JSON syntax checker (RFC 8259) for exporter validation ---
//
// Accepts exactly one JSON value and requires the whole input consumed.
// No semantic model — the tests only need "is this well-formed".
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- metrics registry ---

TEST(Metrics, CounterAccumulatesAndRejectsNegative) {
  obs::Counter c;
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.inc(-1.0), std::invalid_argument);
  c.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Metrics, LabelsDistinguishSeries) {
  obs::Registry registry;
  registry.counter("ps.updates_total", {{"shard", "0"}}).inc(3.0);
  registry.counter("ps.updates_total", {{"shard", "1"}}).inc(5.0);
  EXPECT_DOUBLE_EQ(
      registry.counter("ps.updates_total", {{"shard", "0"}}).value(), 3.0);
  EXPECT_DOUBLE_EQ(
      registry.counter("ps.updates_total", {{"shard", "1"}}).value(), 5.0);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  obs::Registry registry;
  registry.counter("x", {{"a", "1"}, {"b", "2"}}).inc();
  registry.counter("x", {{"b", "2"}, {"a", "1"}}).inc();
  EXPECT_EQ(registry.series_count(), 1u);
  EXPECT_DOUBLE_EQ(registry.counter("x", {{"a", "1"}, {"b", "2"}}).value(),
                   2.0);
}

TEST(Metrics, KindMixingThrows) {
  obs::Registry registry;
  registry.counter("train.steps_total").inc();
  EXPECT_THROW(registry.gauge("train.steps_total"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("train.steps_total"),
               std::invalid_argument);
}

TEST(Metrics, HistogramStats) {
  obs::Histogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 2.0, 3.0, 50.0, 500.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  // Bucket counts: <=1: 1, <=10: 2, <=100: 1, +inf: 1.
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  // Quantiles stay within the observed range and are monotone.
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p90, h.max());
  EXPECT_LE(p50, p90);
  EXPECT_THROW(h.quantile(1.5), std::invalid_argument);
}

TEST(Metrics, HistogramBoundsMustIncrease) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram(std::vector<double>{}), std::invalid_argument);
}

TEST(Metrics, SnapshotIsSortedAndComplete) {
  obs::Registry registry;
  registry.gauge("b.gauge").set(7.0);
  registry.counter("a.counter").inc(2.0);
  registry.histogram("c.hist").observe(1.0);
  const auto rows = registry.snapshot();
  ASSERT_GE(rows.size(), 2u + 8u);  // counter + gauge + 8 histogram fields
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                             [](const auto& x, const auto& y) {
                               return std::tie(x.name, x.field) <
                                      std::tie(y.name, y.field);
                             }));
  EXPECT_EQ(rows.front().name, "a.counter");
  EXPECT_EQ(rows.front().kind, "counter");
  EXPECT_DOUBLE_EQ(rows.front().value, 2.0);
}

TEST(Metrics, PrefixFilteredSnapshot) {
  obs::Registry registry;
  registry.counter("faults.injected_total").inc();
  registry.counter("faults.suppressed_total").inc(3.0);
  registry.counter("train.steps_total").inc(10.0);
  registry.gauge("storage.blobs").set(2.0);

  const auto faults = registry.snapshot(std::string_view("faults."));
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].name, "faults.injected_total");
  EXPECT_EQ(faults[1].name, "faults.suppressed_total");

  // Multi-prefix form: union of the matches, still globally sorted.
  const auto picked =
      registry.snapshot(std::vector<std::string>{"storage.", "train."});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].name, "storage.blobs");
  EXPECT_EQ(picked[1].name, "train.steps_total");

  // A prefix is a name prefix, not a substring match; and the empty
  // prefix list yields nothing.
  EXPECT_TRUE(registry.snapshot(std::string_view("aults")).empty());
  EXPECT_TRUE(registry.snapshot(std::vector<std::string>{}).empty());
}

TEST(Metrics, CsvExportParsesBack) {
  obs::Registry registry;
  registry.counter("steps", {{"worker", "a,b"}}).inc(4.0);  // comma in label
  std::ostringstream out;
  registry.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(util::csv_parse_line(line),
            (std::vector<std::string>{"kind", "name", "labels", "field",
                                      "value"}));
  ASSERT_TRUE(std::getline(in, line));
  const auto fields = util::csv_parse_line(line);
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "counter");
  EXPECT_EQ(fields[1], "steps");
  EXPECT_EQ(fields[2], "worker=a,b");
  EXPECT_EQ(fields[3], "value");
}

TEST(Metrics, TextExportAndReset) {
  obs::Registry registry;
  registry.counter("train.steps_total").inc(12.0);
  std::ostringstream out;
  registry.write_text(out);
  EXPECT_NE(out.str().find("train.steps_total"), std::string::npos);
  EXPECT_NE(out.str().find("12"), std::string::npos);
  registry.reset_all();
  EXPECT_DOUBLE_EQ(registry.counter("train.steps_total").value(), 0.0);
  EXPECT_EQ(registry.series_count(), 1u);  // definition survives reset
}

// --- tracer ---

TEST(Tracer, CompleteSpansAndValidation) {
  obs::Tracer tracer;
  const auto track = tracer.track("worker-0");
  EXPECT_EQ(track, tracer.track("worker-0"));  // find-or-create is stable
  tracer.complete(track, "worker.compute", "train", 1.0, 2.5,
                  {{"local_step", "3"}});
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].duration(), 1.5);
  EXPECT_THROW(tracer.complete(track, "bad", "train", 2.0, 1.0),
               std::invalid_argument);
}

TEST(Tracer, BeginEndNesting) {
  obs::Tracer tracer;
  const auto track = tracer.track("chief");
  tracer.begin(track, "outer", "train", 0.0);
  tracer.begin(track, "inner", "train", 1.0);
  EXPECT_EQ(tracer.open_spans(track), 2u);
  tracer.end(track, 2.0);  // closes inner
  tracer.end(track, 3.0);  // closes outer
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].name, "inner");
  EXPECT_EQ(tracer.spans()[1].name, "outer");
  EXPECT_THROW(tracer.end(track, 4.0), std::logic_error);
}

TEST(Tracer, ClearKeepsTracks) {
  obs::Tracer tracer;
  const auto track = tracer.track("storage");
  tracer.instant(track, "x", "storage", 1.0);
  tracer.counter("depth", 1.0, 2.0);
  EXPECT_EQ(tracer.record_count(), 2u);
  tracer.clear();
  EXPECT_EQ(tracer.record_count(), 0u);
  EXPECT_EQ(tracer.track("storage"), track);
}

// --- merging (per-replica bundles -> one campaign bundle) ---

TEST(Metrics, HistogramMergeAddsBuckets) {
  obs::Histogram a({1.0, 10.0});
  obs::Histogram b({1.0, 10.0});
  a.observe(0.5);
  a.observe(5.0);
  b.observe(5.0);
  b.observe(50.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 60.5);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 50.0);
  EXPECT_EQ(a.bucket_counts()[0], 1u);  // <= 1
  EXPECT_EQ(a.bucket_counts()[1], 2u);  // <= 10
  EXPECT_EQ(a.bucket_counts()[2], 1u);  // +inf
  // Merging an empty histogram is a no-op either direction.
  obs::Histogram empty({1.0, 10.0});
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Metrics, HistogramMergeRejectsDifferentBounds) {
  obs::Histogram a({1.0, 10.0});
  obs::Histogram b({1.0, 20.0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Metrics, RegistryMergeCombinesEveryKind) {
  obs::Registry a;
  obs::Registry b;
  a.counter("steps").inc(3.0);
  b.counter("steps").inc(4.0);
  b.counter("only_b", {{"shard", "1"}}).inc();
  a.gauge("queue").set(2.0);
  b.gauge("queue").set(7.0);
  a.histogram("lat", {}, {1.0, 10.0}).observe(0.5);
  b.histogram("lat", {}, {1.0, 10.0}).observe(5.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter("steps").value(), 7.0);
  EXPECT_DOUBLE_EQ(a.counter("only_b", {{"shard", "1"}}).value(), 1.0);
  // Gauges are instantaneous readings: last merge wins.
  EXPECT_DOUBLE_EQ(a.gauge("queue").value(), 7.0);
  EXPECT_EQ(a.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("lat").sum(), 5.5);
}

TEST(Metrics, RegistryMergeCreatesHistogramWithSourceBounds) {
  obs::Registry a;
  obs::Registry b;
  b.histogram("lat", {}, {2.0, 4.0}).observe(3.0);
  a.merge(b);
  ASSERT_EQ(a.histogram("lat").bounds(), (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(a.histogram("lat").count(), 1u);
}

TEST(Tracer, MergeRemapsTracksWithPrefix) {
  obs::Tracer replica;
  const auto worker = replica.track("worker-0");
  replica.complete(worker, "step", "train", 0.0, 1.0);
  replica.instant(worker, "revoked", "cloud", 2.0);
  replica.counter("queue.depth", 1.0, 3.0);

  obs::Tracer campaign;
  campaign.complete(campaign.track("campaign"), "setup", "exp", 0.0, 0.5);
  campaign.merge(replica, "cell0/replica1/");

  ASSERT_EQ(campaign.spans().size(), 2u);
  const auto& names = campaign.track_names();
  const auto merged_track = campaign.spans()[1].track;
  EXPECT_EQ(names[merged_track], "cell0/replica1/worker-0");
  EXPECT_EQ(campaign.spans()[0].track, campaign.track("campaign"));
  ASSERT_EQ(campaign.instants().size(), 1u);
  EXPECT_EQ(names[campaign.instants()[0].track], "cell0/replica1/worker-0");
  ASSERT_EQ(campaign.counter_samples().size(), 1u);
  EXPECT_EQ(campaign.counter_samples()[0].name, "cell0/replica1/queue.depth");
}

TEST(Tracer, MergeSharesTracksWithoutPrefixAndSkipsOpenSpans) {
  obs::Tracer a;
  obs::Tracer b;
  const auto track_a = a.track("worker");
  const auto track_b = b.track("worker");
  a.complete(track_a, "x", "t", 0.0, 1.0);
  b.complete(track_b, "y", "t", 1.0, 2.0);
  b.begin(track_b, "open", "t", 3.0);  // never ended
  a.merge(b);
  ASSERT_EQ(a.spans().size(), 2u);
  EXPECT_EQ(a.spans()[1].name, "y");
  EXPECT_EQ(a.spans()[1].track, track_a);  // remapped by name onto "worker"
  EXPECT_EQ(a.track_names().size(), 1u);
  EXPECT_EQ(a.open_spans(track_a), 0u);  // open span did not cross
}

// --- exporters ---

TEST(Export, JsonEscape) {
  EXPECT_EQ(util::json::escape("plain"), "plain");
  EXPECT_EQ(util::json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(util::json::escape("x\ny"), "x\\ny");
  EXPECT_EQ(util::json::escape("\b\f\t"), "\\b\\f\\t");
  EXPECT_EQ(util::json::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Export, ChromeTraceIsValidJson) {
  obs::Tracer tracer;
  const auto worker = tracer.track("worker-0");
  const auto ps = tracer.track("ps-0");
  tracer.complete(worker, "worker.compute", "train", 0.0, 0.5);
  tracer.complete(ps, "ps.queue", "train", 0.25, 0.75, {{"shard", "0"}},
                  /*async=*/true);
  tracer.instant(worker, "worker.revoked", "train", 1.0);
  tracer.counter("ps.queue_depth/0", 0.5, 3.0);

  std::ostringstream out;
  obs::write_chrome_trace(tracer, out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // sync span
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // async begin
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);  // async end
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
}

TEST(Export, JsonlEveryLineIsAnObject) {
  obs::Tracer tracer;
  const auto track = tracer.track("cloud");
  tracer.complete(track, "provider.startup", "cloud", 0.0, 42.0);
  tracer.instant(track, "provider.revoked", "cloud", 100.0);
  tracer.counter("x", 1.0, 2.0);

  std::ostringstream out;
  obs::write_trace_jsonl(tracer, out);
  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    EXPECT_EQ(line.front(), '{');
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(out.str().find("\"track\":\"cloud\""), std::string::npos);
}

// --- global install / scoping ---

TEST(Obs, DisabledByDefault) {
  EXPECT_EQ(obs::telemetry(), nullptr);
  EXPECT_EQ(obs::registry(), nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
  EXPECT_FALSE(obs::enabled());
}

TEST(Obs, ScopedTelemetryInstallsAndRestores) {
  EXPECT_FALSE(obs::enabled());
  {
    obs::ScopedTelemetry outer;
    EXPECT_EQ(obs::registry(), &outer->registry);
    {
      obs::ScopedTelemetry inner;
      EXPECT_EQ(obs::registry(), &inner->registry);
    }
    EXPECT_EQ(obs::registry(), &outer->registry);  // restored, not cleared
  }
  EXPECT_FALSE(obs::enabled());
}

// --- engine profiler ---

TEST(SimProfiler, AttributesEventsToTags) {
  simcore::Simulator sim;
  obs::SimProfiler profiler;
  sim.set_observer(&profiler);
  sim.schedule_at(1.0, [] {}, "tag.a");
  sim.schedule_at(2.0, [&] { sim.schedule_after(1.0, [] {}, "tag.a"); },
                  "tag.b");
  sim.schedule_at(4.0, [] {});  // untagged
  sim.run();
  sim.set_observer(nullptr);

  EXPECT_EQ(profiler.total_scheduled(), 4u);
  EXPECT_EQ(profiler.total_fired(), 4u);
  EXPECT_GE(profiler.max_queue_depth(), 3u);
  ASSERT_EQ(profiler.tags().count("tag.a"), 1u);
  EXPECT_EQ(profiler.tags().at("tag.a").fired, 2u);
  EXPECT_EQ(profiler.tags().at("tag.b").fired, 1u);
  EXPECT_EQ(profiler.tags().at("(untagged)").fired, 1u);
  EXPECT_GE(profiler.total_wall_seconds(), 0.0);

  std::ostringstream report;
  profiler.write_report(report);
  EXPECT_NE(report.str().find("tag.a"), std::string::npos);
}

// --- cross-layer integration: a real session records into the bundle ---

TEST(Obs, TrainingRunProducesCrossLayerTelemetry) {
  obs::ScopedTelemetry telemetry;
  simcore::Simulator sim;
  cloud::CloudProvider provider(sim, util::Rng(41));
  cloud::ObjectStore storage(sim, util::Rng(42));

  train::SessionConfig config;
  config.ps_count = 2;
  config.checkpoint_interval_steps = 100;
  // Long enough that the forced revocation below lands mid-run (the two
  // K80 workers move at a few steps per second).
  config.max_steps = 2000;
  config.mode = train::FaultToleranceMode::kVanillaTf;
  train::TrainingSession session(sim, nn::resnet32(), config, util::Rng(43),
                                 &storage);

  // One worker arrives through the provider (for provider.startup).
  train::WorkerSpec spec;
  spec.gpu = cloud::GpuType::kK80;
  cloud::InstanceCallbacks callbacks;
  callbacks.on_running = [&](cloud::InstanceId) { session.add_worker(spec); };
  cloud::InstanceRequest request;
  request.transient = false;  // no hazard; revocation is forced below
  provider.request_instance(request, std::move(callbacks));
  session.add_worker(spec);  // chief, present from t=0

  // Force a chief revocation + IP-reusing replacement -> rollback.
  sim.schedule_at(150.0, [&] {
    session.revoke_worker(*session.checkpoint_owner());
    session.add_worker(spec, 30.0, /*reuse_chief_ip=*/true);
  });
  sim.run();

  EXPECT_TRUE(session.finished());
  obs::Registry& registry = telemetry->registry;
  EXPECT_GE(registry.counter("train.steps_total").value(),
            static_cast<double>(config.max_steps));
  EXPECT_DOUBLE_EQ(registry.counter("train.rollbacks_total").value(), 1.0);
  EXPECT_GE(registry.counter("train.checkpoints_total").value(), 1.0);
  EXPECT_GE(registry.counter("storage.uploads_total").value(), 1.0);
  EXPECT_GE(registry.histogram("train.compute_seconds").count(), 2000u);

  std::set<std::string> span_names;
  std::set<std::string> categories;
  for (const auto& span : telemetry->tracer.spans()) {
    span_names.insert(span.name);
    categories.insert(span.category);
  }
  for (const auto& name :
       {"worker.compute", "ps.queue", "ps.apply", "chief.checkpoint",
        "storage.upload", "provider.startup"}) {
    EXPECT_EQ(span_names.count(name), 1u) << "missing span " << name;
  }
  EXPECT_GE(span_names.size(), 5u);
  EXPECT_GE(categories.size(), 3u);  // train, cloud, storage

  bool saw_rollback = false;
  for (const auto& instant : telemetry->tracer.instants()) {
    if (instant.name == "session.rollback") saw_rollback = true;
  }
  EXPECT_TRUE(saw_rollback);

  // The whole trace exports to valid Chrome JSON.
  std::ostringstream out;
  obs::write_chrome_trace(telemetry->tracer, out);
  EXPECT_TRUE(JsonChecker(out.str()).valid());
}

// With no telemetry installed, the same run works and records nothing.
TEST(Obs, DisabledTelemetryIsInert) {
  ASSERT_FALSE(obs::enabled());
  simcore::Simulator sim;
  train::SessionConfig config;
  config.max_steps = 50;
  train::TrainingSession session(sim, nn::resnet32(), config, util::Rng(3));
  session.add_worker(train::WorkerSpec{});
  sim.run();
  EXPECT_TRUE(session.finished());
}

}  // namespace
}  // namespace cmdare
