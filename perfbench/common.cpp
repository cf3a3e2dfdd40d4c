#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/export.hpp"

namespace bench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Vector pow2_scaled(const Vector& base, SeededStream& rng) {
  const double s = std::ldexp(1.0, rng.range(-4, 4));
  Vector f = base;
  for (real_t& v : f) v *= s;
  return f;
}

double relres(const pfem::sparse::CsrMatrix& k, std::span<const real_t> x,
              std::span<const real_t> f, std::span<const real_t> diag,
              double delta) {
  if (x.size() != f.size()) return INFINITY;
  Vector kx(f.size());
  k.spmv(x, kx);
  double rr = 0.0, ff = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double extra = delta != 0.0 ? delta * diag[i] * x[i] : 0.0;
    const double r = f[i] - kx[i] - extra;
    rr += r * r;
    ff += f[i] * f[i];
  }
  return ff > 0.0 ? std::sqrt(rr / ff) : std::sqrt(rr);
}

Vector diagonal(const pfem::sparse::CsrMatrix& k) {
  Vector d(static_cast<std::size_t>(k.rows()), 0.0);
  const auto rp = k.row_ptr();
  const auto ci = k.col_idx();
  const auto v = k.values();
  for (index_t i = 0; i < k.rows(); ++i)
    for (index_t p = rp[static_cast<std::size_t>(i)];
         p < rp[static_cast<std::size_t>(i) + 1]; ++p)
      if (ci[static_cast<std::size_t>(p)] == i)
        d[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(p)];
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencyStats latency_stats(std::vector<double> v) {
  LatencyStats s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(s.n);
  s.tail_pct = 50.0;
  for (const double p : {75.0, 90.0, 99.0})
    if (n * (1.0 - p / 100.0) >= 10.0) s.tail_pct = p;
  // Nearest rank: the smallest sample with at least tail_pct of the mass.
  const auto k = static_cast<std::size_t>(std::ceil(s.tail_pct / 100.0 * n));
  s.tail = v[std::min(s.n - 1, k == 0 ? 0 : k - 1)];
  return s;
}

double vm_hwm_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  return 0.0;
}

void SpanTotals::add(const pfem::obs::Trace& trace) {
  for (int r = 0; r < trace.nranks(); ++r) {
    const auto records = trace.rank(r).records();
    for (const pfem::obs::SpanStat& s : pfem::obs::span_stats(records))
      add(s.name, Entry{s.count, static_cast<double>(s.total_ns),
                        static_cast<double>(s.self_ns)});
    dropped += trace.rank(r).dropped();
  }
}

void SpanTotals::add(const std::string& name, const Entry& e) {
  Entry& t = m_[name];
  t.count += e.count;
  t.total_ns += e.total_ns;
  t.self_ns += e.self_ns;
}

double SpanTotals::total(const std::string& name) const {
  const auto it = m_.find(name);
  return it == m_.end() ? 0.0 : it->second.total_ns;
}

double SpanTotals::self(const std::string& name) const {
  const auto it = m_.find(name);
  return it == m_.end() ? 0.0 : it->second.self_ns;
}

double SpanTotals::covered() const {
  double s = 0.0;
  for (const auto& [name, e] : m_) s += e.self_ns;
  return s;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back(M{name, value, unit});
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  std::cout << "  " << name << " = " << buf << " " << unit;
  if (!note.empty()) std::cout << "  (" << note << ")";
  std::cout << "\n";
}

void Report::note(const std::string& text) {
  std::cout << "# " << text << "\n";
}

void Report::finish(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const M& m : metrics_) {
    if (!first) os << ", ";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    os << "\"" << m.name << "\": {\"value\": " << buf << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

pfem::par::PerfCounters sum(std::span<const pfem::par::PerfCounters> ranks) {
  pfem::par::PerfCounters s;
  for (const auto& c : ranks) s += c;
  return s;
}

}  // namespace bench
