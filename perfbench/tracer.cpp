#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "perfbench.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Offset that maps telemetry::now_us() timestamps onto now_s(): both read
/// the steady clock, from different origins.
double telemetry_offset_s() {
  static const double offset = [] {
    const double mine = now_s();
    const double theirs =
        static_cast<double>(antmoc::telemetry::now_us()) * 1e-6;
    return mine - theirs;
  }();
  return offset;
}

thread_local std::vector<long> open_spans;

/// The library layer a telemetry span name belongs to.
std::string layer_of(const std::string& name) {
  if (name == "solver/cmfd_solve") return "cmfd";
  if (name.rfind("kernel/", 0) == 0) return "gpusim";
  if (name.rfind("comm/", 0) == 0) return "comm";
  if (name.rfind("engine/", 0) == 0) return "engine";
  return "solver";
}

}  // namespace

double union_length(std::vector<std::pair<double, double>> iv, double lo,
                    double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

double cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec (the launching interpreter).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

long Tracer::begin(const std::string& name, const std::string& layer,
                   long req) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.req = req;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.t0 = now_s();
  std::lock_guard lock(mu_);
  s.id = static_cast<long>(spans_.size());
  spans_.push_back(std::move(s));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(long id) {
  if (id < 0) return;
  const double t = now_s();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

void Tracer::add_nested(long id, const std::string& layer, double seconds) {
  if (id < 0) return;
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].nested.emplace_back(layer, seconds);
}

long Tracer::add(Span span) {
  if (!on_) return -1;
  std::lock_guard lock(mu_);
  span.id = static_cast<long>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Tracer::Imported> Tracer::telemetry_spans() const {
  std::vector<Imported> out;
  const double off = telemetry_offset_s();
  for (const auto& ev : antmoc::telemetry::Telemetry::instance().events()) {
    if (ev.instant) continue;
    Imported s;
    s.name = ev.name;
    s.arg = ev.arg;
    s.thread = 1000 + static_cast<long>(ev.tid);
    s.t0 = static_cast<double>(ev.ts_us) * 1e-6 + off;
    s.t1 = static_cast<double>(ev.ts_us + ev.dur_us) * 1e-6 + off;
    out.push_back(std::move(s));
  }
  return out;
}

void Tracer::import_spans(const std::vector<Imported>& spans,
                          long default_parent,
                          const std::vector<long>& top_parents) {
  if (!on_) return;
  // Per recording thread, spans nest by time containment: sort by start
  // (longer first on ties) and keep a stack of open enclosing spans.
  std::map<long, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_thread[spans[i].thread].push_back(i);
  for (auto& [thread, idx] : by_thread) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].t0 != spans[b].t0) return spans[a].t0 < spans[b].t0;
      return spans[a].t1 > spans[b].t1;
    });
    std::vector<std::pair<double, long>> stack;  // (end, id)
    for (std::size_t i : idx) {
      const Imported& s = spans[i];
      while (!stack.empty() && stack.back().first < s.t1) stack.pop_back();
      Span out;
      out.name = s.name;
      out.layer = layer_of(s.name);
      out.thread = thread;
      out.t0 = s.t0;
      out.t1 = s.t1;
      if (!stack.empty()) {
        out.parent = stack.back().second;
      } else {
        out.parent = top_parents[i] >= 0 ? top_parents[i] : default_parent;
      }
      if (out.parent >= 0) {
        std::lock_guard lock(mu_);
        out.req = spans_[static_cast<std::size_t>(out.parent)].req;
      }
      const long id = add(std::move(out));
      stack.emplace_back(s.t1, id);
    }
  }
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %ld, "
                 "\"args\": {\"id\": %ld, \"parent\": %ld, \"req\": %ld",
                 json_quote(s.name).c_str(), s.layer.c_str(), s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, s.thread, s.id, s.parent, s.req);
    for (const auto& [layer, seconds] : s.nested)
      std::fprintf(f, ", \"nested.%s_s\": %.9g", layer.c_str(), seconds);
    std::fprintf(f, "}}%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
