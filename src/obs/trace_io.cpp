#include "obs/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/export.hpp"

namespace pfem::obs::io {

namespace {

const Json kNull{};

// ---- Recursive-descent JSON parser ---------------------------------------

class Parser {
 public:
  Parser(const std::string& text, std::string& err) : s_(text), err_(err) {}

  bool parse(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    err_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool value(Json& out) {
    if (depth_ > 128) return fail("nesting too deep");
    switch (peek()) {
      case '{':
        return object(out);
      case '[':
        return array(out);
      case '"':
        out.type = Json::Type::String;
        return string(out.str);
      case 't':
        out.type = Json::Type::Bool;
        out.b = true;
        return literal("true");
      case 'f':
        out.type = Json::Type::Bool;
        out.b = false;
        return literal("false");
      case 'n':
        out.type = Json::Type::Null;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(Json& out) {
    out.type = Json::Type::Object;
    ++pos_;  // '{'
    ++depth_;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      if (!value(out.obj[key])) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(Json& out) {
    out.type = Json::Type::Array;
    ++pos_;  // '['
    ++depth_;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      out.arr.emplace_back();
      if (!value(out.arr.back())) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    if (peek() != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are not produced by
          // our writers).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected value");
    try {
      out.num = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return fail("bad number");
    }
    out.type = Json::Type::Number;
    return true;
  }

  const std::string& s_;
  std::string& err_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

constexpr double kEpsUs = 1e-6;  ///< sub-nanosecond slack for comparisons

/// A lane is one Chrome (pid, tid) track.  Rank lanes all use tid 0;
/// the svc lane fans each request out to its own tid, so nesting is
/// only meaningful per track, never across a whole pid.
using Lane = std::pair<int, int>;

/// Indices of a lane's "X" events in sweep order: start ascending,
/// longer spans first on ties so parents precede children.
std::vector<std::size_t> sweep_order(const std::vector<Event>& events,
                                     Lane lane) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].ph == 'X' && events[i].pid == lane.first &&
        events[i].tid == lane.second)
      idx.push_back(i);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (events[a].ts_us != events[b].ts_us)
      return events[a].ts_us < events[b].ts_us;
    return events[a].dur_us > events[b].dur_us;
  });
  return idx;
}

std::vector<Lane> lanes_of(const TraceFile& t) {
  std::vector<Lane> lanes;
  for (const Event& e : t.events) lanes.emplace_back(e.pid, e.tid);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  return lanes;
}

}  // namespace

const Json& Json::at(const std::string& key) const {
  if (type != Type::Object) return kNull;
  const auto it = obj.find(key);
  return it == obj.end() ? kNull : it->second;
}

bool json_parse(const std::string& text, Json& out, std::string& err) {
  Parser p(text, err);
  return p.parse(out);
}

bool parse_chrome_trace(const std::string& text, TraceFile& out,
                        std::string& err) {
  Json root;
  if (!json_parse(text, root, err)) return false;
  const Json& events = root.at("traceEvents");
  if (!events.is(Json::Type::Array)) {
    err = "missing traceEvents array";
    return false;
  }
  out.events.clear();
  for (const Json& j : events.arr) {
    Event e;
    e.name = j.at("name").str_or("");
    e.cat = j.at("cat").str_or("");
    const std::string ph = j.at("ph").str_or("");
    e.ph = ph.empty() ? '\0' : ph[0];
    e.ts_us = j.at("ts").num_or(0.0);
    e.dur_us = j.at("dur").num_or(0.0);
    e.pid = static_cast<int>(j.at("pid").num_or(0.0));
    e.tid = static_cast<int>(j.at("tid").num_or(0.0));
    const Json& args = j.at("args");
    if (e.ph == 'C') e.value = args.at(e.name).num_or(0.0);
    if (e.ph == 'M') e.process_name = args.at("name").str_or("");
    out.events.push_back(std::move(e));
  }
  const Json& footer = root.at("pfem");
  out.nranks = static_cast<long long>(footer.at("nranks").num_or(-1.0));
  out.ring_capacity =
      static_cast<long long>(footer.at("ring_capacity").num_or(-1.0));
  out.dropped = static_cast<long long>(footer.at("dropped").num_or(-1.0));
  return true;
}

bool load_chrome_trace(const std::string& path, TraceFile& out,
                       std::string& err) {
  std::ifstream f(path);
  if (!f) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_chrome_trace(ss.str(), out, err);
}

bool check(const TraceFile& t, std::string& err) {
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const Event& e = t.events[i];
    const std::string where = "event " + std::to_string(i);
    if (e.name.empty()) {
      err = where + ": empty name";
      return false;
    }
    if (e.ph != 'X' && e.ph != 'C' && e.ph != 'M') {
      err = where + ": unknown phase '" + std::string(1, e.ph) + "'";
      return false;
    }
    if (e.ts_us < 0.0 || e.dur_us < 0.0 || !std::isfinite(e.ts_us) ||
        !std::isfinite(e.dur_us)) {
      err = where + ": negative or non-finite ts/dur";
      return false;
    }
  }
  // Each (pid, tid) track may be named at most once: a duplicate
  // process_name/thread_name metadata entry means two writers claimed
  // the same lane (e.g. a bad merge), and every per-lane statistic
  // downstream would silently mix their spans.
  {
    std::map<std::pair<int, int>, std::string> named;
    for (const Event& e : t.events) {
      if (e.ph != 'M') continue;
      const auto key = std::make_pair(e.pid, e.tid);
      const auto [it, inserted] = named.emplace(key, e.name);
      if (!inserted && it->second == e.name) {
        err = "pid " + std::to_string(e.pid) + " tid " +
              std::to_string(e.tid) + ": duplicate \"" + e.name +
              "\" metadata — two tracks claim the same lane";
        return false;
      }
    }
  }
  // Spans within one (pid, tid) track must nest: a span that starts
  // inside another must end inside it too.
  for (const Lane& lane : lanes_of(t)) {
    std::vector<double> open_ends;
    for (const std::size_t i : sweep_order(t.events, lane)) {
      const Event& e = t.events[i];
      while (!open_ends.empty() && open_ends.back() <= e.ts_us + kEpsUs)
        open_ends.pop_back();
      const double end = e.ts_us + e.dur_us;
      if (!open_ends.empty() && end > open_ends.back() + kEpsUs) {
        err = "pid " + std::to_string(lane.first) + " tid " +
              std::to_string(lane.second) + ": span \"" + e.name +
              "\" at ts=" + std::to_string(e.ts_us) +
              " partially overlaps an enclosing span";
        return false;
      }
      open_ends.push_back(end);
    }
  }
  return true;
}

TraceFile merge(const std::vector<TraceFile>& files) {
  TraceFile out;
  int pid_base = 0;
  long long dropped = 0;
  bool have_dropped = false;
  for (const TraceFile& f : files) {
    int max_pid = -1;
    for (const Event& e : f.events) {
      Event copy = e;
      copy.pid += pid_base;
      max_pid = std::max(max_pid, e.pid);
      out.events.push_back(std::move(copy));
    }
    pid_base += max_pid + 1;
    if (f.dropped >= 0) {
      dropped += f.dropped;
      have_dropped = true;
    }
  }
  out.dropped = have_dropped ? dropped : -1;
  return out;
}

TraceFile merge_ranks(const std::vector<TraceFile>& files) {
  TraceFile out;
  long long dropped = 0;
  bool have_dropped = false;
  for (const TraceFile& f : files) {
    out.events.insert(out.events.end(), f.events.begin(), f.events.end());
    out.nranks = std::max(out.nranks, f.nranks);
    if (f.dropped >= 0) {
      dropped += f.dropped;
      have_dropped = true;
    }
  }
  out.dropped = have_dropped ? dropped : -1;
  return out;
}

void write_chrome_trace(std::ostream& os, const TraceFile& t) {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Event& e : t.events) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": ";
    write_json_string(os, e.name);
    os << ", \"ph\": \"" << e.ph << "\"";
    if (!e.cat.empty()) {
      os << ", \"cat\": ";
      write_json_string(os, e.cat);
    }
    if (e.ph != 'M') os << ", \"ts\": " << e.ts_us;
    if (e.ph == 'X') os << ", \"dur\": " << e.dur_us;
    os << ", \"pid\": " << e.pid << ", \"tid\": " << e.tid << ", \"args\": {";
    if (e.ph == 'C') {
      write_json_string(os, e.name);
      os << ": " << e.value;
    } else if (e.ph == 'M') {
      os << "\"name\": ";
      write_json_string(os, e.process_name);
    }
    os << "}}";
  }
  os << "\n]";
  if (t.dropped >= 0) os << ", \"pfem\": {\"dropped\": " << t.dropped << "}";
  os << "}\n";
}

std::vector<NameStat> span_summary(const TraceFile& t) {
  std::map<std::string, NameStat> by_name;
  struct Open {
    double end;
    double child_us;
    std::size_t idx;
  };
  for (const Lane& lane : lanes_of(t)) {
    std::vector<Open> stack;
    auto finalize = [&](const Open& o) {
      const Event& e = t.events[o.idx];
      NameStat& s = by_name[e.name];
      if (s.name.empty()) {
        s.name = e.name;
        s.cat = e.cat;
      }
      ++s.count;
      s.total_us += e.dur_us;
      s.self_us += e.dur_us - std::min(o.child_us, e.dur_us);
    };
    for (const std::size_t i : sweep_order(t.events, lane)) {
      const Event& e = t.events[i];
      while (!stack.empty() && stack.back().end <= e.ts_us + kEpsUs) {
        finalize(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += e.dur_us;
      stack.push_back(Open{e.ts_us + e.dur_us, 0.0, i});
    }
    while (!stack.empty()) {
      finalize(stack.back());
      stack.pop_back();
    }
  }
  std::vector<NameStat> out;
  out.reserve(by_name.size());
  for (auto& [_, s] : by_name) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(), [](const NameStat& a, const NameStat& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

std::vector<std::uint64_t> count_by_pid(const TraceFile& t,
                                        const std::string& name) {
  // Size by every pid in the trace (not just pids with matches), so a
  // lane that never emitted `name` reads as an explicit 0.
  std::vector<std::uint64_t> counts;
  for (const Event& e : t.events) {
    if (e.pid < 0) continue;
    if (counts.size() <= static_cast<std::size_t>(e.pid))
      counts.resize(static_cast<std::size_t>(e.pid) + 1, 0);
    if (e.ph == 'X' && e.name == name)
      ++counts[static_cast<std::size_t>(e.pid)];
  }
  return counts;
}

}  // namespace pfem::obs::io
