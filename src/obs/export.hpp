// Trace exporters: Chrome trace-event JSON and JSONL.
//
// write_chrome_trace emits the JSON object format of the Trace Event
// specification, loadable in chrome://tracing and ui.perfetto.dev: spans
// become "X" (complete) or "b"/"e" (async) events, instants "i", counter
// samples "C", and every track gets a thread_name metadata record.
// Timestamps are simulated seconds scaled to microseconds, which the
// viewer renders natively.
//
// write_trace_jsonl emits one self-describing JSON object per line —
// trivially streamable into jq / pandas without a trace viewer.
#pragma once

#include <iosfwd>

#include "obs/trace.hpp"

namespace cmdare::obs {

void write_chrome_trace(const Tracer& tracer, std::ostream& out);

void write_trace_jsonl(const Tracer& tracer, std::ostream& out);

}  // namespace cmdare::obs
