#include "obs/export.hpp"

#include <ostream>
#include <string>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace cmdare::obs {
namespace {

using util::json::escape;

constexpr double kMicrosPerSecond = 1e6;

std::string json_number(double value) {
  // Fixed-point with enough precision for microsecond timestamps; JSON
  // forbids the "1e+06" the default ostream formatting could produce for
  // NaN/inf (and those are invalid JSON anyway, so clamp them to 0).
  if (!(value == value) || value > 1e300 || value < -1e300) return "0";
  std::string s = util::format_double(value, 6);
  // Trim trailing zeros (keeps files at Chrome-scale sizes readable).
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string json_args(const LabelSet& args) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += escape(key);
    out += "\":\"";
    out += escape(value);
    out += '"';
  }
  out += '}';
  return out;
}

void write_event_common(std::ostream& out, const std::string& name,
                        const std::string& category, std::uint32_t track,
                        double ts_us) {
  out << "{\"name\":\"" << escape(name) << "\",\"cat\":\""
      << escape(category.empty() ? "default" : category)
      << "\",\"pid\":1,\"tid\":" << track << ",\"ts\":" << json_number(ts_us);
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto separator = [&out, &first] {
    if (!first) out << ",\n";
    first = false;
  };

  separator();
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"cmdare-sim\"}}";
  const auto& tracks = tracer.track_names();
  for (std::uint32_t id = 0; id < tracks.size(); ++id) {
    separator();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << id
        << ",\"args\":{\"name\":\"" << escape(tracks[id]) << "\"}}";
  }

  std::uint64_t next_async_id = 1;
  for (const SpanRecord& span : tracer.spans()) {
    const double ts = span.begin * kMicrosPerSecond;
    const double dur = span.duration() * kMicrosPerSecond;
    separator();
    if (span.async) {
      const std::uint64_t id = next_async_id++;
      write_event_common(out, span.name, span.category, span.track, ts);
      out << ",\"ph\":\"b\",\"id\":" << id << ",\"args\":"
          << json_args(span.args) << "}";
      separator();
      write_event_common(out, span.name, span.category, span.track,
                         span.end * kMicrosPerSecond);
      out << ",\"ph\":\"e\",\"id\":" << id << ",\"args\":{}}";
    } else {
      write_event_common(out, span.name, span.category, span.track, ts);
      out << ",\"ph\":\"X\",\"dur\":" << json_number(dur)
          << ",\"args\":" << json_args(span.args) << "}";
    }
  }

  for (const InstantRecord& instant : tracer.instants()) {
    separator();
    write_event_common(out, instant.name, instant.category, instant.track,
                       instant.at * kMicrosPerSecond);
    out << ",\"ph\":\"i\",\"s\":\"t\",\"args\":" << json_args(instant.args)
        << "}";
  }

  for (const CounterSample& sample : tracer.counter_samples()) {
    separator();
    out << "{\"name\":\"" << escape(sample.name)
        << "\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
        << json_number(sample.at * kMicrosPerSecond)
        << ",\"args\":{\"value\":" << json_number(sample.value) << "}}";
  }

  out << "\n]}\n";
}

void write_trace_jsonl(const Tracer& tracer, std::ostream& out) {
  const auto& tracks = tracer.track_names();
  const auto track_name = [&tracks](std::uint32_t id) {
    return id < tracks.size() ? tracks[id] : std::string("?");
  };
  for (const SpanRecord& span : tracer.spans()) {
    out << "{\"type\":\"span\",\"name\":\"" << escape(span.name)
        << "\",\"category\":\"" << escape(span.category)
        << "\",\"track\":\"" << escape(track_name(span.track))
        << "\",\"begin_s\":" << json_number(span.begin)
        << ",\"end_s\":" << json_number(span.end)
        << ",\"duration_s\":" << json_number(span.duration())
        << ",\"args\":" << json_args(span.args) << "}\n";
  }
  for (const InstantRecord& instant : tracer.instants()) {
    out << "{\"type\":\"instant\",\"name\":\"" << escape(instant.name)
        << "\",\"category\":\"" << escape(instant.category)
        << "\",\"track\":\"" << escape(track_name(instant.track))
        << "\",\"at_s\":" << json_number(instant.at)
        << ",\"args\":" << json_args(instant.args) << "}\n";
  }
  for (const CounterSample& sample : tracer.counter_samples()) {
    out << "{\"type\":\"counter\",\"name\":\"" << escape(sample.name)
        << "\",\"at_s\":" << json_number(sample.at)
        << ",\"value\":" << json_number(sample.value) << "}\n";
  }
}

}  // namespace cmdare::obs
