#include "report.hpp"

#include <sys/resource.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size())) - 1.0);
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    log_line("CHECK FAILED: " + what);
    correct_ = false;
    ++failed_;
  }
  return ok;
}

void Report::fail(std::int64_t n, const std::string& what) {
  if (n <= 0) return;
  log_line("FAILED OPERATIONS: " + std::to_string(n) + " " + what);
  failed_ += n;
  correct_ = false;
}

void Report::print_json(std::ostream& os) const {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max(attempted_, failed_)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    // JSON has no inf/nan; a non-finite value is a driver bug, printed as
    // a huge finite number so the line still parses and the spread shows.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  os << out.str() << std::endl;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log) {
  if (!log_.enabled_) return;
  Span s;
  s.name = name;
  s.start_us = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - log_.epoch_)
                   .count();
  s.parent = log_.open_.empty() ? -1 : log_.open_.back();
  index_ = static_cast<std::int64_t>(log_.spans_.size());
  log_.spans_.push_back(s);
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = log_.spans_[static_cast<std::size_t>(index_)];
  s.dur_us = std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - log_.epoch_)
                 .count() -
             s.start_us;
  log_.open_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start_us
       << ", \"dur\": " << s.dur_us << ", \"args\": {\"id\": " << i
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

OmpLanes::OmpLanes(int lanes) : saved_(omp_get_max_threads()) {
  omp_set_num_threads(lanes);
}

OmpLanes::~OmpLanes() { omp_set_num_threads(saved_); }

void log_line(const std::string& line) {
  std::cerr << "[perfbench] " << line << std::endl;
}

}  // namespace perfbench
