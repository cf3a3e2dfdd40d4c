#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>

namespace pfem::obs {

// Span names are literals, but counter and process names may one day
// carry user text, so stay correct.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

/// Microseconds with nanosecond resolution — Chrome's ts/dur unit.
void us_from_ns(std::ostream& os, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  os << buf;
}

/// With tid_from_id, each record's id picks its Chrome thread track.
/// The aux (svc) lane uses this so one request's retroactive lifecycle
/// spans (queued/coalesced) share a track with nothing but their own
/// dispatch — tracks nest even though the lane's spans overlap freely.
void lane_events(std::ostream& os, const Tracer& lane, int pid, bool& first,
                 bool tid_from_id = false) {
  for (const Record& r : lane.records()) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": ";
    write_json_string(os, r.name);
    os << ", \"cat\": \"" << cat_name(r.cat) << "\", \"ph\": \""
       << (r.kind == Record::Kind::Span ? 'X' : 'C') << "\", \"ts\": ";
    us_from_ns(os, r.t0_ns);
    if (r.kind == Record::Kind::Span) {
      os << ", \"dur\": ";
      us_from_ns(os, r.t1_ns - r.t0_ns);
    }
    os << ", \"pid\": " << pid << ", \"tid\": "
       << (tid_from_id ? r.id : 0u) << ", \"args\": {";
    if (r.kind == Record::Kind::Counter) {
      write_json_string(os, r.name);
      os << ": " << r.value;
      if (r.id != 0) os << ", \"id\": " << r.id;
    } else {
      os << "\"id\": " << r.id;
    }
    os << "}}";
  }
}

struct CounterStat {
  const char* name;
  Cat cat;
  std::uint64_t count = 0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
};

std::vector<CounterStat> counter_stats(std::span<const Record> records) {
  std::vector<CounterStat> out;
  std::map<std::string_view, std::size_t> index;
  for (const Record& r : records) {
    if (r.kind != Record::Kind::Counter) continue;
    auto [it, inserted] = index.try_emplace(r.name, out.size());
    if (inserted) out.push_back(CounterStat{r.name, r.cat, 0, 0, r.value,
                                            r.value});
    CounterStat& s = out[it->second];
    ++s.count;
    s.last = r.value;
    s.min = std::min(s.min, r.value);
    s.max = std::max(s.max, r.value);
  }
  return out;
}

void lane_metrics(std::ostream& os, const Tracer& lane,
                  const std::string& label) {
  const std::vector<Record> records = lane.records();
  os << "    {\"lane\": \"" << label << "\", \"records\": " << records.size()
     << ", \"total\": " << lane.total() << ", \"dropped\": " << lane.dropped()
     << ",\n     \"spans\": [";
  bool first = true;
  for (const SpanStat& s : span_stats(records)) {
    if (!first) os << ",\n                ";
    first = false;
    os << "{\"name\": ";
    write_json_string(os, s.name);
    os << ", \"cat\": \"" << cat_name(s.cat) << "\", \"count\": " << s.count
       << ", \"total_ns\": " << s.total_ns << ", \"self_ns\": " << s.self_ns
       << "}";
  }
  os << "],\n     \"counters\": [";
  first = true;
  for (const CounterStat& s : counter_stats(records)) {
    if (!first) os << ",\n                   ";
    first = false;
    os << "{\"name\": ";
    write_json_string(os, s.name);
    os << ", \"count\": " << s.count << ", \"last\": " << s.last
       << ", \"min\": " << s.min << ", \"max\": " << s.max << "}";
  }
  os << "]}";
}

}  // namespace

std::vector<SpanStat> span_stats(std::span<const Record> records) {
  std::vector<SpanStat> out;
  std::map<std::string_view, std::size_t> index;
  // Records arrive in close order, so a span's direct children (depth
  // d+1) all closed — and were accumulated — before it.  child_ns[d]
  // carries the not-yet-claimed child time at depth d.
  std::vector<std::uint64_t> child_ns;
  for (const Record& r : records) {
    if (r.kind != Record::Kind::Span) continue;
    const std::uint64_t dur = r.t1_ns - r.t0_ns;
    const std::size_t d = r.depth;
    if (child_ns.size() < d + 2) child_ns.resize(d + 2, 0);
    const std::uint64_t nested = std::min(child_ns[d + 1], dur);
    child_ns[d + 1] = 0;
    child_ns[d] += dur;
    auto [it, inserted] = index.try_emplace(r.name, out.size());
    if (inserted) out.push_back(SpanStat{r.name, r.cat, 0, 0, 0});
    SpanStat& s = out[it->second];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - nested;
  }
  std::sort(out.begin(), out.end(), [](const SpanStat& a, const SpanStat& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

void chrome_trace_json(std::ostream& os, const Trace& trace) {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (int r = 0; r < trace.nranks(); ++r) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << r
       << ", \"tid\": 0, \"args\": {\"name\": \"rank " << r << "\"}}";
  }
  os << ",\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
     << trace.nranks() << ", \"tid\": 0, \"args\": {\"name\": \"svc\"}}";
  for (int r = 0; r < trace.nranks(); ++r)
    lane_events(os, trace.rank(r), r, first);
  lane_events(os, trace.aux(), trace.nranks(), first,
              /*tid_from_id=*/true);
  os << "\n], \"displayTimeUnit\": \"ms\", \"pfem\": {\"nranks\": "
     << trace.nranks() << ", \"ring_capacity\": " << trace.ring_capacity()
     << ", \"dropped\": " << trace.dropped_total() << "}}\n";
}

void metrics_json(std::ostream& os, const Trace& trace) {
  os << "{\n  \"schema\": \"pfem-metrics-v1\",\n  \"nranks\": "
     << trace.nranks() << ",\n  \"ring_capacity\": " << trace.ring_capacity()
     << ",\n  \"dropped\": " << trace.dropped_total() << ",\n  \"lanes\": [\n";
  for (int r = 0; r < trace.nranks(); ++r) {
    lane_metrics(os, trace.rank(r), "rank" + std::to_string(r));
    os << ",\n";
  }
  lane_metrics(os, trace.aux(), "svc");
  os << "\n  ]\n}\n";
}

bool write_chrome_trace(const std::string& path, const Trace& trace) {
  std::ofstream f(path);
  if (!f) return false;
  chrome_trace_json(f, trace);
  return static_cast<bool>(f);
}

bool write_metrics_json(const std::string& path, const Trace& trace) {
  std::ofstream f(path);
  if (!f) return false;
  metrics_json(f, trace);
  return static_cast<bool>(f);
}

}  // namespace pfem::obs
