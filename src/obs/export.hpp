// Trace exporters: Chrome trace_event JSON (one merged timeline across
// ranks, pid = rank) and a flat metrics snapshot (per-lane span totals
// with self-time, counter summaries).  Both formats are documented in
// DESIGN.md §8; the Chrome file opens directly in chrome://tracing or
// https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace pfem::obs {

/// Aggregated statistics for one span name within one lane.
struct SpanStat {
  const char* name = nullptr;
  Cat cat = Cat::Solve;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< inclusive (wall) time
  std::uint64_t self_ns = 0;   ///< total minus time inside nested spans
};

/// Per-name span totals for one lane's chronological records, sorted by
/// self-time descending.  Counters are ignored.  Self-time attributes
/// each span's duration minus its direct children's durations, using
/// the recorded nesting depths.
[[nodiscard]] std::vector<SpanStat> span_stats(std::span<const Record> records);

/// Write `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped.  Both JSON writers (these and trace_io's) use it.
void write_json_string(std::ostream& os, std::string_view s);

/// Serialize the merged timeline as Chrome trace_event JSON.
void chrome_trace_json(std::ostream& os, const Trace& trace);

/// Serialize the flat metrics snapshot JSON.
void metrics_json(std::ostream& os, const Trace& trace);

/// File-writing wrappers; return false when the file cannot be written.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const Trace& trace);
[[nodiscard]] bool write_metrics_json(const std::string& path,
                                      const Trace& trace);

}  // namespace pfem::obs
