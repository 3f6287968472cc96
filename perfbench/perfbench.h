#pragma once

/// \file perfbench.h
/// The benchmark program's shared types: run options, the per-run result
/// record, sample statistics, and the span tracer that times calls into
/// each library layer from the outside.
///
/// The benchmark never adds probes to the library. Spans are recorded around
/// the public calls it makes; where one public call hides a layer
/// (solve_decomposed, engine::Session) the traced run switches on the
/// library's own telemetry and imports the spans it already records.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced problem sizes for the benchmark's own smoke test; skips the
  /// reference-k check (references are recorded for full sizes only).
  bool smoke = false;
  /// Reference k_eff and the allowed distance from it in pcm; a reference
  /// of 0 disables the check.
  double k_ref = 0.0;
  double k_pcm = 1.0;
  /// Directory receiving the traced run's span file ("" = none).
  std::string trace_dir;
};

/// One run's outcome. `metrics` holds the end-to-end metrics (untraced
/// run) or the per-layer metrics (traced run); `exact` holds the counts
/// that must repeat bit for bit in every run of a workload.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, double> exact;
  std::map<std::string, std::string> info;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

Result run_c5g7_managed(const Options& opt);
Result run_c5g7_decomp_cmfd(const Options& opt);
Result run_engine_screen(const Options& opt);

/// The engine workload's job stream for `seed`: `count` scenario indices
/// into the seeded scenario pool, plus the pool's one-line descriptions.
/// Pure function of (seed, count).
std::vector<int> scenario_stream(std::uint64_t seed, int count);
std::vector<std::string> scenario_pool_descriptions(std::uint64_t seed);

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

/// JSON string literal of `s` (control characters become spaces) and a
/// number with all its digits.
std::string json_quote(const std::string& s);
std::string json_number(double v);

// --- tracing ----------------------------------------------------------------

/// Seconds on the steady clock since the tracer's epoch.
double now_s();

/// CPU seconds this process has run, summed over all its threads
/// (CLOCK_PROCESS_CPUTIME_ID). Time a thread waits for a core, and time the
/// hypervisor steals from a vCPU, do not count; blocked threads add nothing.
double cpu_s();

/// CPU seconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID); a new
/// thread starts at zero.
double thread_cpu_s();

/// In-memory span recorder. A span has a name, a layer (the library
/// module the timed call belongs to), start and end, a parent span, and a
/// request id (one per solve or job; -1 for set-up). `nested` holds time
/// measured inside the span by a layer that exposes only totals (the gpusim
/// kernel_accum wall deltas): it counts toward that layer's self time and
/// is taken out of the span's own.
class Tracer {
 public:
  struct Span {
    long id = -1;
    long parent = -1;
    std::string name;
    std::string layer;
    long req = -1;
    long thread = 0;  ///< 0 = client thread; telemetry spans 1000 + tid
    double t0 = 0.0;
    double t1 = 0.0;
    std::vector<std::pair<std::string, double>> nested;
  };

  static Tracer& instance();

  void set_on(bool on) { on_ = on; }

  /// Opens a span under the calling thread's innermost open span; returns
  /// its id, or -1 when tracing is off.
  long begin(const std::string& name, const std::string& layer, long req);
  void end(long id);
  void add_nested(long id, const std::string& layer, double seconds);

  /// Records an already finished span (imported telemetry or hook
  /// timestamps); returns its id.
  long add(Span span);

  /// Imports the library telemetry's complete spans recorded since the
  /// last Telemetry::reset(), nesting them by time containment per
  /// recording thread. A top-level imported span is parented by
  /// `attach(name, arg)` (return -1 for `default_parent`); imported spans
  /// take their request id from that parent.
  template <class Attach>
  void import_telemetry(long default_parent, Attach&& attach);

  std::vector<Span> spans() const;

  /// Writes every span as Chrome trace_events JSON.
  bool write(const std::string& path) const;

  /// Scoped span.
  class Scope {
   public:
    Scope(const std::string& name, const std::string& layer, long req = -1)
        : id_(instance().begin(name, layer, req)) {}
    ~Scope() { instance().end(id_); }
    long id() const { return id_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    long id_;
  };

 private:
  Tracer() = default;

  struct Imported {
    std::string name;
    long long arg = 0;
    long thread = 0;
    double t0 = 0.0, t1 = 0.0;
  };
  std::vector<Imported> telemetry_spans() const;
  void import_spans(const std::vector<Imported>& spans, long default_parent,
                    const std::vector<long>& top_parents);

  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Total length of the union of the [a, b) intervals clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi);

template <class Attach>
void Tracer::import_telemetry(long default_parent, Attach&& attach) {
  const std::vector<Imported> spans = telemetry_spans();
  std::vector<long> parents;
  parents.reserve(spans.size());
  for (const Imported& s : spans) parents.push_back(attach(s.name, s.arg));
  import_spans(spans, default_parent, parents);
}

}  // namespace perfbench
