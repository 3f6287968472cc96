/// \file workloads.cpp
/// The three benchmark workloads. Each runs in its own process, one
/// request (solve or job) at a time from one client, and all run the
/// library's default knob settings (README.md says why).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/scenario.h"
#include "engine/session.h"
#include "models/c5g7_model.h"
#include "perfbench.h"
#include "perfmodel/layout.h"
#include "perfmodel/perfmodel.h"
#include "perfmodel/sweep_costs.h"
#include "solver/domain_solver.h"
#include "solver/gpu_solver.h"
#include "telemetry/telemetry.h"
#include "track/generator2d.h"
#include "track/quadrature.h"
#include "track/track3d.h"

namespace perfbench {
namespace {

using namespace antmoc;

constexpr double kMiB = 1024.0 * 1024.0;

/// Worker counts, fixed so results are bit-reproducible and no workload
/// asks for more threads than the 4-core host it was tuned on.
constexpr unsigned kManagedClosureWorkers = 4;
constexpr unsigned kDecompSweepWorkers = 1;
constexpr unsigned kEngineSweepWorkers = 1;
/// One executor: the client keeps one job in flight, so the process CPU
/// time between submit and result is that job's alone.
constexpr int kEngineExecutors = 1;

/// Arena charges reported per label (gpusim.arena.<label>_mib).
const std::array<const char*, 7> kArenaCharges = {
    "3d_segments",  "tally_scratch", "track_info_cache", "track_fluxs",
    "staged_fluxs", "event_arrays",  "chord_templates"};

/// Layers of the traced-run accounting (trace.<layer>.*).
const std::array<const char*, 8> kLayers = {
    "models", "track", "solver", "gpusim", "cmfd", "comm", "domain", "engine"};

/// The paper's cost model {resident 1, OTF 6, template 1.5, event 1}.
/// Pinned so TrackManager skips its start-up micro-calibration, which
/// would otherwise reorder residency between runs and land in set-up time.
void pin_sweep_costs() { perf::set_sweep_costs({1.0, 6.0, 1.5, 1.0}); }


/// C5G7 core plus track laydown knobs.
struct CoreSpec {
  int fuel_layers = 3;
  int reflector_layers = 1;
  double height_scale = 0.15;
  int num_azim = 4;
  double spacing = 0.5;
  int num_polar = 2;
  double z_spacing = 1.0;
  double tolerance = 1e-5;
};

/// The gate core: 5x5-pin assemblies, 3 fuel + 1 reflector layers,
/// height scale 0.15; 4 azimuthal / 2 polar angles at 0.5 cm radial and
/// 1.0 cm axial spacing, solved to 1e-5.
CoreSpec gate_core(bool smoke) {
  CoreSpec s;
  if (smoke) {
    s.fuel_layers = 1;
    s.height_scale = 0.1;
    s.spacing = 1.0;
    s.z_spacing = 2.0;
    s.tolerance = 1e-4;
  }
  return s;
}

models::C5G7Model build_core(const CoreSpec& spec) {
  models::C5G7Options opt;
  opt.pins_per_assembly = 5;
  opt.fuel_layers = spec.fuel_layers;
  opt.reflector_layers = spec.reflector_layers;
  opt.height_scale = spec.height_scale;
  return models::build_core(opt);
}

std::array<LinkKind, 4> radial_kinds(const Geometry& g) {
  return {to_link_kind(g.boundary(Face::kXMin)),
          to_link_kind(g.boundary(Face::kXMax)),
          to_link_kind(g.boundary(Face::kYMin)),
          to_link_kind(g.boundary(Face::kYMax))};
}

SolveOptions solve_options(const CoreSpec& spec) {
  SolveOptions so;
  so.tolerance = spec.tolerance;
  so.max_iterations = 2000;
  return so;
}

/// Every per-layer metric name with its value defaulted to 0: a layer
/// that does not run on a workload reports 0.
void zero_layer_metrics(Result& r) {
  for (const char* name :
       {"track.trace_s", "track.stacks_s", "track.segments_3d",
        "solver.construct_s", "solver.prepare_s", "solver.iterations",
        "solver.iter_s", "solver.sweep_s", "solver.close_s",
        "solver.flush_s", "solver.segments_per_s",
        "solver.resident_fraction", "gpusim.sweep_kernel_s",
        "gpusim.reduce_kernel_s", "gpusim.cu_max_over_avg",
        "gpusim.arena.peak_mib", "engine.warmup_s", "engine.job_exec_s",
        "engine.job_queue_s", "engine.peak_concurrent", "engine.deferrals",
        "cmfd.solve_s", "cmfd.outers", "cmfd.accept_ratio",
        "comm.flux_bytes_per_iter", "comm.bytes_total", "comm.overlap_ratio",
        "comm.wait_s", "domain.rank_skew_s", "domain.load_uniformity",
        "perfmodel.mem_residual", "perfmodel.comm_residual",
        "perfmodel.sweep_residual", "perfmodel.sweep_model_s",
        "trace.overhead", "trace.coverage"})
    r.metrics[name] = 0.0;
  for (const char* charge : kArenaCharges)
    r.metrics[std::string("gpusim.arena.") + charge + "_mib"] = 0.0;
  for (const char* layer : kLayers) {
    r.metrics[std::string("trace.") + layer + ".self_s"] = 0.0;
    r.metrics[std::string("trace.") + layer + ".share"] = 0.0;
  }
}

/// Samples in run order as a space-separated string (the run record keeps
/// them).
std::string sample_list(const std::vector<double>& v) {
  std::string s;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

/// End-to-end metrics of one untraced run. Every timing is CPU time of the
/// benchmark process (cpu_s), not wall time: on a shared host the wall time
/// of one and the same solve moved 2-3x between runs with the neighbours'
/// load, while the CPU time it costs leaves out waiting for a core and
/// vCPU time the hypervisor steals. `setup` holds the run's cold set-ups,
/// `solve` the solve part of each request, `request` each whole request
/// (a solve or decomposed solve call; an engine job), `job` each job (an
/// engine job; a power iteration of a C5G7 solve) and `wall` each
/// request's wall seconds, kept in the run record.
void e2e_metrics(Result& r, const std::vector<double>& setup,
                 const std::vector<double>& solve,
                 const std::vector<double>& request,
                 const std::vector<double>& job,
                 const std::vector<double>& wall) {
  double total = 0.0;
  for (double x : request) total += x;
  r.metrics["setup_s"] = median(setup);
  r.metrics["solve_s"] = median(solve);
  r.metrics["jobs_per_s"] =
      total > 0.0 ? static_cast<double>(request.size()) / total : 0.0;
  r.metrics["job_p50_s"] = quantile(job, 0.5);
  r.metrics["job_p90_s"] = quantile(job, 0.9);
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  r.metrics["ok_frac"] =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 0.0;
  r.info["setup_cpu_s"] = sample_list(setup);
  r.info["request_cpu_s"] = sample_list(request);
  r.info["request_wall_s"] = sample_list(wall);
  r.info["jobs"] = std::to_string(job.size());
}

/// Traced-run accounting over the request trees (spans with req >= 0):
/// per-layer self time per request and its share of the traced wall, the
/// share of request wall time covered by layer spans, and the tracing
/// overhead against the untraced walls measured in the same run.
void trace_metrics(Result& r, const std::vector<double>& traced_wall,
                   const std::vector<double>& untraced_wall) {
  const std::vector<Tracer::Span> spans = Tracer::instance().spans();
  std::map<std::string, double> self;
  double root_wall = 0.0, root_self = 0.0;
  long requests = 0;
  {
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const auto& s : spans)
      if (s.parent >= 0 && s.req >= 0)
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    for (const auto& s : spans) {
      if (s.req < 0) continue;
      const double covered =
          union_length(kids[static_cast<std::size_t>(s.id)], s.t0, s.t1);
      double own = (s.t1 - s.t0) - covered;
      for (const auto& [layer, seconds] : s.nested) {
        self[layer] += seconds;
        own -= seconds;
      }
      own = std::max(0.0, own);
      if (s.layer == "request") {
        ++requests;
        root_wall += s.t1 - s.t0;
        root_self += own;
      } else {
        self[s.layer] += own;
      }
    }
  }
  for (const char* layer : kLayers) {
    const double total = self.count(layer) != 0 ? self[layer] : 0.0;
    r.metrics[std::string("trace.") + layer + ".self_s"] =
        requests > 0 ? total / static_cast<double>(requests) : 0.0;
    r.metrics[std::string("trace.") + layer + ".share"] =
        root_wall > 0.0 ? total / root_wall : 0.0;
  }
  r.metrics["trace.coverage"] =
      root_wall > 0.0 ? 1.0 - root_self / root_wall : 0.0;
  const double u = median(untraced_wall);
  r.metrics["trace.overhead"] = u > 0.0 ? median(traced_wall) / u - 1.0 : 0.0;
  r.info["traced_requests"] = std::to_string(requests);
}

/// Durations of the recorded spans named `name`.
std::vector<double> span_durations(const std::string& name) {
  std::vector<double> out;
  for (const auto& s : Tracer::instance().spans())
    if (s.name == name) out.push_back(s.t1 - s.t0);
  return out;
}

void arena_metrics(Result& r, const gpusim::DeviceMemory& memory) {
  const auto breakdown = memory.breakdown();
  for (const char* charge : kArenaCharges) {
    const auto it = breakdown.find(charge);
    r.metrics[std::string("gpusim.arena.") + charge + "_mib"] =
        it == breakdown.end() ? 0.0 : static_cast<double>(it->second) / kMiB;
  }
  r.metrics["gpusim.arena.peak_mib"] =
      static_cast<double>(memory.peak_used()) / kMiB;
}

/// Convergence and reference checks shared by the C5G7 solves. The first
/// solve's k and iteration count become the run's own reference: every
/// repeat must match them bit for bit.
struct SolveChecker {
  const Options& opt;
  Result& r;
  bool have_first = false;
  double first_k = 0.0;
  int first_iterations = 0;

  void check(double k, int iterations, bool converged) {
    ++r.attempted;
    char buf[160];
    if (!converged) {
      std::snprintf(buf, sizeof buf, "not converged after %d iterations",
                    iterations);
      r.fail(buf);
      return;
    }
    if (opt.k_ref > 0.0 && !(std::abs(k - opt.k_ref) * 1e5 <= opt.k_pcm)) {
      std::snprintf(buf, sizeof buf,
                    "k_eff %.9f outside %.3g pcm of reference %.9f", k,
                    opt.k_pcm, opt.k_ref);
      r.fail(buf);
      return;
    }
    if (!have_first) {
      have_first = true;
      first_k = k;
      first_iterations = iterations;
      return;
    }
    if (k != first_k || iterations != first_iterations) {
      std::snprintf(buf, sizeof buf,
                    "repeat solve gave k %.17g in %d iterations, first "
                    "gave %.17g in %d",
                    k, iterations, first_k, first_iterations);
      r.fail(buf);
    }
  }
};

// ===========================================================================
// c5g7-managed: one simulated device, Managed policy at half the exact-mode
// segment bytes, solve() to 1e-5.
// ===========================================================================

struct ManagedInstance {
  models::C5G7Model model;
  std::unique_ptr<Quadrature> quad;
  std::unique_ptr<TrackGenerator2D> gen;
  std::unique_ptr<TrackStacks> stacks;
  std::unique_ptr<gpusim::Device> device;
  std::unique_ptr<GpuSolver> solver;
};

/// Builds the problem from scratch through prepare_solve, one timed layer
/// call at a time (spans when tracing). `budget` = 0 probes the laydown
/// only (no device or solver).
std::unique_ptr<ManagedInstance> build_managed(const CoreSpec& spec,
                                               std::size_t budget,
                                               const SolveOptions& so) {
  auto m = std::make_unique<ManagedInstance>();
  {
    Tracer::Scope s("models.build_core", "models");
    m->model = build_core(spec);
  }
  const Geometry& g = m->model.geometry;
  {
    Tracer::Scope s("track.trace", "track");
    m->quad = std::make_unique<Quadrature>(spec.num_azim, spec.spacing,
                                           g.bounds().width_x(),
                                           g.bounds().width_y(),
                                           spec.num_polar);
    m->gen = std::make_unique<TrackGenerator2D>(*m->quad, g.bounds(),
                                                radial_kinds(g));
    m->gen->trace(g);
  }
  {
    Tracer::Scope s("track.stacks", "track");
    m->stacks = std::make_unique<TrackStacks>(
        *m->gen, g, g.bounds().z_min, g.bounds().z_max, spec.z_spacing);
  }
  if (budget == 0) return m;
  {
    Tracer::Scope s("solver.construct", "solver");
    m->device = std::make_unique<gpusim::Device>();
    GpuSolverOptions go;
    go.policy = TrackPolicy::kManaged;
    go.resident_budget_bytes = budget;
    m->solver = std::make_unique<GpuSolver>(*m->stacks, m->model.materials,
                                            *m->device, go);
    m->solver->set_sweep_workers(kManagedClosureWorkers);
  }
  {
    Tracer::Scope s("solver.prepare", "solver");
    m->solver->prepare_solve(so);
  }
  return m;
}

/// The traced stepwise solve: prepare_solve / sweep_step / close_step
/// driven here with solve()'s convergence test, each call a span; the
/// gpusim kernels' wall deltas are nested under the sweep span.
struct StepwiseStats {
  SolveResult result;
  std::vector<double> sweep_kernel, reduce_kernel;
  double sweep_cycles = 0.0;  ///< simulated cycles of the last sweep
  long segments = 0;
};

StepwiseStats stepwise_solve(ManagedInstance& m, const SolveOptions& so,
                             long req) {
  StepwiseStats st;
  GpuSolver& solver = *m.solver;
  Tracer& tr = Tracer::instance();
  Tracer::Scope root("solve", "request", req);
  {
    Tracer::Scope s("solver.prepare", "solver", req);
    solver.prepare_solve(so);
  }
  for (int iter = 1; iter <= so.max_iterations; ++iter) {
    Tracer::Scope it("solver.iteration", "solver", req);
    const auto before = m.device->kernel_accum();
    {
      Tracer::Scope s("solver.sweep", "solver", req);
      solver.sweep_step();
      const auto after = m.device->kernel_accum();
      const auto delta = [&](const char* k) {
        const auto a = after.find(k);
        const auto b = before.find(k);
        const double wa = a == after.end() ? 0.0 : a->second.wall_seconds;
        const double wb = b == before.end() ? 0.0 : b->second.wall_seconds;
        return wa - wb;
      };
      const double sk = delta("transport_sweep");
      const double rk = delta("tally_reduction");
      tr.add_nested(s.id(), "gpusim", sk + rk);
      st.sweep_kernel.push_back(sk);
      st.reduce_kernel.push_back(rk);
      const auto a = after.find("transport_sweep");
      const auto b = before.find("transport_sweep");
      st.sweep_cycles = a->second.total_cycles -
                        (b == before.end() ? 0.0 : b->second.total_cycles);
    }
    st.segments = solver.last_sweep_segments();
    TransportSolver::IterationStats stats;
    {
      Tracer::Scope s("solver.close", "solver", req);
      stats = solver.close_step(iter, so);
    }
    st.result.residual = stats.residual;
    st.result.iterations = iter;
    st.result.k_eff = stats.k_eff;
    if (iter >= 3 && stats.residual < so.tolerance &&
        std::abs(stats.production - 1.0) < so.tolerance) {
      st.result.converged = true;
      break;
    }
  }
  return st;
}

}  // namespace

Result run_c5g7_managed(const Options& opt) {
  Result r;
  pin_sweep_costs();
  const CoreSpec spec = gate_core(opt.smoke);
  const SolveOptions so = solve_options(spec);

  // Resident budget: half the laydown's exact-mode segment bytes (an
  // input of the workload, computed once outside the timed set-ups).
  std::size_t budget = 0;
  {
    const auto probe = build_managed(spec, 0, so);
    budget = static_cast<std::size_t>(probe->stacks->total_segments()) *
             perf::kSegment3DBytes / 2;
  }

  // Set-up is ~10 ms, so it is timed over many cold set-ups: a few here,
  // and two more after every timed solve so the samples span the run.
  const int setup_reps = opt.smoke ? 2 : 5;
  std::vector<double> setup;
  std::unique_ptr<ManagedInstance> inst;
  if (opt.trace) Tracer::instance().set_on(true);
  for (int i = 0; i < setup_reps; ++i) {
    inst.reset();
    const double c0 = cpu_s();
    inst = build_managed(spec, budget, so);
    setup.push_back(cpu_s() - c0);
  }
  Tracer::instance().set_on(false);
  GpuSolver& solver = *inst->solver;
  const TrackManager& mgr = solver.manager();
  r.exact["segments_3d"] = static_cast<double>(mgr.total_segments());
  r.exact["resident_tracks"] = static_cast<double>(mgr.num_resident());

  SolveChecker checker{opt, r};
  // A solve is one long request, too few per run for a tail percentile, so
  // the job percentiles are taken over its power iterations: the CPU time
  // from the request (or the previous iteration's k) to each new k, read
  // through the on_iteration hook. The hook runs on the solving thread
  // while the pool workers wait, so the process clock is exact there.
  std::vector<double> iteration_cpu;
  double last_stamp = 0.0;
  SolveOptions hooked = so;
  hooked.on_iteration = [&](int, double) {
    const double t = cpu_s();
    iteration_cpu.push_back(t - last_stamp);
    last_stamp = t;
  };
  struct Timed {
    double cpu = -1.0;  ///< < 0 when the solve threw
    double wall = 0.0;
  };
  const auto timed_solve = [&]() -> Timed {
    Timed t;
    const double w0 = now_s();
    const double c0 = cpu_s();
    last_stamp = c0;
    try {
      const SolveResult res = solver.solve(hooked);
      t.cpu = cpu_s() - c0;
      t.wall = now_s() - w0;
      checker.check(res.k_eff, res.iterations, res.converged);
    } catch (const std::exception& e) {
      ++r.attempted;
      r.fail(std::string("solve threw: ") + e.what());
    }
    return t;
  };

  // The first solve in a process is often the slowest: it runs once as
  // warm-up (checked, not timed).
  timed_solve();
  iteration_cpu.clear();

  if (!opt.trace) {
    std::vector<double> solve, wall;
    const double loop0 = now_s();
    while (now_s() - loop0 < opt.seconds ||
           (solve.size() < 3 && r.failed == 0)) {
      const Timed t = timed_solve();
      if (t.cpu < 0.0) {
        if (solve.empty()) break;
        continue;
      }
      solve.push_back(t.cpu);
      wall.push_back(t.wall);
      for (int i = 0; i < 2; ++i) {
        const double c0 = cpu_s();
        const auto cold = build_managed(spec, budget, so);
        setup.push_back(cpu_s() - c0);
      }
    }
    e2e_metrics(r, setup, solve, solve, iteration_cpu, wall);
  } else {
    zero_layer_metrics(r);
    // Setup layers from the traced cold set-ups.
    r.metrics["track.trace_s"] = median(span_durations("track.trace"));
    r.metrics["track.stacks_s"] = median(span_durations("track.stacks"));
    r.metrics["solver.construct_s"] =
        median(span_durations("solver.construct"));
    r.metrics["solver.prepare_s"] = median(span_durations("solver.prepare"));

    // Alternate untraced solve() and the traced stepwise solve; the
    // stepwise k must equal solve()'s bit for bit.
    std::vector<double> traced, untraced;
    StepwiseStats last;
    std::vector<double> sweep_kernel, reduce_kernel, flush;
    const double loop0 = now_s();
    long req = 0;
    while (now_s() - loop0 < opt.seconds || traced.size() < 2) {
      const Timed u = timed_solve();
      if (u.cpu >= 0.0) untraced.push_back(u.wall);
      Tracer::instance().set_on(true);
      const double t0 = now_s();
      StepwiseStats st;
      try {
        st = stepwise_solve(*inst, so, req++);
      } catch (const std::exception& e) {
        Tracer::instance().set_on(false);
        ++r.attempted;
        r.fail(std::string("stepwise solve threw: ") + e.what());
        break;
      }
      traced.push_back(now_s() - t0);
      Tracer::instance().set_on(false);
      checker.check(st.result.k_eff, st.result.iterations,
                    st.result.converged);
      sweep_kernel.insert(sweep_kernel.end(), st.sweep_kernel.begin(),
                          st.sweep_kernel.end());
      reduce_kernel.insert(reduce_kernel.end(), st.reduce_kernel.begin(),
                           st.reduce_kernel.end());
      last = std::move(st);
      if (r.failed > 0) break;
    }
    const std::vector<double> sweeps = span_durations("solver.sweep");
    for (std::size_t i = 0; i < sweeps.size() && i < sweep_kernel.size(); ++i)
      flush.push_back(sweeps[i] - sweep_kernel[i] - reduce_kernel[i]);
    r.metrics["solver.iterations"] = last.result.iterations;
    r.metrics["solver.iter_s"] = median(span_durations("solver.iteration"));
    r.metrics["solver.sweep_s"] = median(sweeps);
    r.metrics["solver.close_s"] = median(span_durations("solver.close"));
    r.metrics["solver.flush_s"] = median(flush);
    r.metrics["gpusim.sweep_kernel_s"] = median(sweep_kernel);
    r.metrics["gpusim.reduce_kernel_s"] = median(reduce_kernel);
    r.metrics["solver.segments_per_s"] =
        median(sweeps) > 0.0
            ? static_cast<double>(last.segments) / median(sweeps)
            : 0.0;
    r.metrics["solver.resident_fraction"] = mgr.resident_fraction();
    r.metrics["gpusim.cu_max_over_avg"] =
        solver.last_sweep_stats().load_uniformity();
    r.metrics["track.segments_3d"] = static_cast<double>(mgr.total_segments());
    arena_metrics(r, inst->device->memory());

    // Modeled beside measured (Eqs. 5 and 6), labelled modeled in the
    // benchmark notes.
    const double seg_fraction =
        static_cast<double>(mgr.resident_segments()) /
        static_cast<double>(mgr.total_segments());
    perf::MemoryModel mem;
    mem.num_groups = solver.fsr().num_groups();
    const auto predicted = mem.predict(
        inst->gen->num_tracks(), inst->gen->num_segments(),
        inst->stacks->num_tracks(), mgr.total_segments(), seg_fraction,
        mgr.storage());
    r.metrics["perfmodel.mem_residual"] =
        static_cast<double>(predicted.total()) /
            static_cast<double>(inst->device->memory().peak_used()) -
        1.0;
    const double model_cycles = perf::predict_sweep_cycles(
        mgr.total_segments(), seg_fraction, mgr.templated_fraction());
    r.metrics["perfmodel.sweep_residual"] =
        last.sweep_cycles > 0.0 ? model_cycles / last.sweep_cycles - 1.0
                                : 0.0;
    r.metrics["perfmodel.sweep_model_s"] =
        model_cycles / (inst->device->spec().clock_ghz * 1e9);
    trace_metrics(r, traced, untraced);
  }
  r.exact["iterations"] = checker.first_iterations;
  r.exact["arena_peak_bytes"] =
      static_cast<double>(inst->device->memory().peak_used());
  r.info["k_eff"] = json_number(checker.first_k);
  return r;
}

// ===========================================================================
// c5g7-decomp-cmfd: the gate core split 2x2x1 on the host path, CMFD on the
// pin mesh, solve_decomposed() to 1e-5.
// ===========================================================================

namespace {

struct DecompRun {
  DomainRunSummary summary;
  double wall = 0.0;   ///< call -> result, wall seconds
  double cpu = 0.0;    ///< call -> result, process CPU seconds
  double setup = 0.0;  ///< CPU outside the ranks' power iterations
  double solve = 0.0;  ///< CPU of the ranks' power iterations
  double rank_skew = 0.0;
  /// CPU seconds of each power iteration after the first, summed over the
  /// ranks.
  std::vector<double> iteration_cpu;
  bool ok = false;
};

/// One decomposed solve. solve_decomposed encloses set-up, so the set-up
/// is split off with the on_iteration hook. Each rank thread is started by
/// the call, and stamps its own thread CPU clock (exact for the calling
/// thread, and zero at the rank's start) at the end of every iteration: a
/// rank's first stamp is its set-up plus its first iteration, which is
/// taken to cost as much as the rank's median later one. solve = the ranks'
/// iterations; setup = the rest of the call (build_core, the split, every
/// rank's laydown and the final gather).
DecompRun decomp_solve(const CoreSpec& spec, const DomainRunParams& params,
                       const Decomposition& decomp, SolveOptions so,
                       long req, Result& r) {
  DecompRun run;
  std::mutex mu;
  struct Stamp {
    int iter;
    double wall, cpu;
  };
  std::map<std::thread::id, std::vector<Stamp>> by_rank;
  so.on_iteration = [&](int iter, double) {
    const Stamp st{iter, now_s(), thread_cpu_s()};
    std::lock_guard lock(mu);
    by_rank[std::this_thread::get_id()].push_back(st);
  };
  Tracer::Scope root("solve", "request", req);
  const double w_call = now_s();
  const double c_call = cpu_s();
  try {
    models::C5G7Model model;
    {
      Tracer::Scope s("models.build_core", "models", req);
      model = build_core(spec);
    }
    Tracer::Scope s("domain.solve_decomposed", "domain", req);
    run.summary =
        solve_decomposed(model.geometry, model.materials, decomp, params, so);
    run.ok = true;
  } catch (const std::exception& e) {
    ++r.attempted;
    r.fail(std::string("solve_decomposed threw: ") + e.what());
    return run;
  }
  run.cpu = cpu_s() - c_call;
  run.wall = now_s() - w_call;

  std::map<int, std::vector<double>> walls, costs;  // iteration -> per rank
  for (const auto& [tid, stamps] : by_rank) {
    std::vector<double> d;
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      d.push_back(stamps[i].cpu - stamps[i - 1].cpu);
      costs[stamps[i].iter].push_back(d.back());
    }
    if (!stamps.empty())
      run.solve += stamps.back().cpu - stamps.front().cpu + median(d);
    for (const Stamp& st : stamps) walls[st.iter].push_back(st.wall);
  }
  run.setup = run.cpu - run.solve;
  for (const auto& [iter, c] : costs) {
    double sum = 0.0;
    for (double x : c) sum += x;
    run.iteration_cpu.push_back(sum);
  }
  std::vector<double> skews;
  for (const auto& [iter, w] : walls)
    skews.push_back(*std::max_element(w.begin(), w.end()) -
                    *std::min_element(w.begin(), w.end()));
  run.rank_skew = median(skews);
  return run;
}

DomainRunParams decomp_params(const CoreSpec& spec) {
  DomainRunParams p;
  p.num_azim = spec.num_azim;
  p.azim_spacing = spec.spacing;
  p.num_polar = spec.num_polar;
  p.z_spacing = spec.z_spacing;
  p.use_device = false;
  p.sweep_workers = kDecompSweepWorkers;
  p.cmfd.enable = true;  // pin mesh, the default
  return p;
}

void check_decomp(const DecompRun& run, SolveChecker& checker) {
  const SolveResult& res = run.summary.result;
  checker.check(res.k_eff, res.iterations, res.converged);
}

}  // namespace

Result run_c5g7_decomp_cmfd(const Options& opt) {
  Result r;
  pin_sweep_costs();
  CoreSpec spec = gate_core(opt.smoke);
  // 0.25 cm radial spacing: twice the sweep work between the ranks'
  // per-iteration synchronisations, which keeps wake-up latency on a
  // shared host from dominating the solve time.
  if (!opt.smoke) spec.spacing = 0.25;
  const SolveOptions so = solve_options(spec);
  const DomainRunParams params = decomp_params(spec);
  const Decomposition decomp{2, 2, 1};
  SolveChecker checker{opt, r};

  // Warm-up solve: checked, not timed (cold-start outliers).
  DecompRun first = decomp_solve(spec, params, decomp, so, -1, r);
  if (first.ok) check_decomp(first, checker);

  if (!opt.trace) {
    // Job percentiles over power iterations, as for c5g7-managed.
    std::vector<double> setup, solve, request, iterations, wall;
    const double loop0 = now_s();
    while (now_s() - loop0 < opt.seconds ||
           (solve.size() < 3 && r.failed == 0)) {
      const DecompRun run = decomp_solve(spec, params, decomp, so, -1, r);
      if (!run.ok) {
        if (solve.empty()) break;
        continue;
      }
      check_decomp(run, checker);
      setup.push_back(run.setup);
      solve.push_back(run.solve);
      request.push_back(run.cpu);
      wall.push_back(run.wall);
      iterations.insert(iterations.end(), run.iteration_cpu.begin(),
                        run.iteration_cpu.end());
    }
    e2e_metrics(r, setup, solve, request, iterations, wall);
  } else {
    zero_layer_metrics(r);
    auto& tel = telemetry::Telemetry::instance();
    telemetry::Config tc;
    tc.enabled = true;
    tc.span_capacity = 1 << 14;
    std::vector<double> traced, untraced, skews, cmfd_solve, outers, accept,
        waits, iter_s, sweep_s;
    const double loop0 = now_s();
    long req = 0;
    while (now_s() - loop0 < opt.seconds || traced.size() < 2) {
      const DecompRun u = decomp_solve(spec, params, decomp, so, -1, r);
      if (!u.ok) break;
      check_decomp(u, checker);
      untraced.push_back(u.wall);

      tel.set_config(tc);  // enables and clears the metrics
      tel.reset();
      Tracer::instance().set_on(true);
      const DecompRun t = decomp_solve(spec, params, decomp, so, req, r);
      Tracer::instance().set_on(false);
      tel.set_enabled(false);
      if (!t.ok) break;
      check_decomp(t, checker);
      if (t.summary.result.k_eff != u.summary.result.k_eff) {
        r.fail("traced decomposed k differs from the untraced k");
      }
      traced.push_back(t.wall);
      skews.push_back(t.rank_skew);

      // Import the library's spans under this request's solve span.
      long solve_span = -1;
      for (const auto& s : Tracer::instance().spans())
        if (s.req == req && s.name == "domain.solve_decomposed")
          solve_span = s.id;
      std::vector<double> cmfd_durations;
      for (const auto& ev : tel.events()) {
        if (ev.instant) continue;
        const std::string name = ev.name;
        if (name == "solver/cmfd_solve") {
          cmfd_durations.push_back(static_cast<double>(ev.dur_us) * 1e-6);
        } else if (name == "solver/iteration") {
          iter_s.push_back(static_cast<double>(ev.dur_us) * 1e-6);
        } else if (name == "solver/transport_sweep") {
          sweep_s.push_back(static_cast<double>(ev.dur_us) * 1e-6);
        }
      }
      Tracer::instance().set_on(true);
      Tracer::instance().import_telemetry(
          solve_span, [](const std::string&, long long) { return -1L; });
      Tracer::instance().set_on(false);
      cmfd_solve.insert(cmfd_solve.end(), cmfd_durations.begin(),
                        cmfd_durations.end());
      auto& m = tel.metrics();
      const double ranks = decomp.num_domains();
      outers.push_back(
          static_cast<double>(m.counter("solver.cmfd_iterations").value()) /
          ranks);
      // Every attempted fit records a coarse-solve span; skipped ones also
      // count solver.cmfd_skipped.
      const double attempted = static_cast<double>(cmfd_durations.size());
      const double skipped =
          static_cast<double>(m.counter("solver.cmfd_skipped").value());
      accept.push_back(attempted > 0.0 ? (attempted - skipped) / attempted
                                       : 0.0);
      double worst_wait = 0.0;
      for (int rank = 0; rank < decomp.num_domains(); ++rank)
        worst_wait = std::max(
            worst_wait,
            static_cast<double>(
                m.counter(telemetry::label("comm.wait_us", "rank", rank))
                    .value()) *
                1e-6);
      waits.push_back(worst_wait);
      tel.reset();
      ++req;
      if (r.failed > 0) break;
    }
    const DomainRunSummary& s = first.summary;
    r.metrics["solver.iterations"] = s.result.iterations;
    r.metrics["solver.iter_s"] = median(iter_s);
    r.metrics["solver.sweep_s"] = median(sweep_s);
    r.metrics["track.segments_3d"] = static_cast<double>(s.total_segments_3d);
    r.metrics["cmfd.solve_s"] = median(cmfd_solve);
    r.metrics["cmfd.outers"] = median(outers);
    r.metrics["cmfd.accept_ratio"] = median(accept);
    r.metrics["comm.flux_bytes_per_iter"] =
        static_cast<double>(s.flux_bytes_per_iter);
    r.metrics["comm.bytes_total"] = static_cast<double>(s.total_bytes_sent);
    r.metrics["comm.overlap_ratio"] = s.comm_overlap_ratio;
    r.metrics["comm.wait_s"] = median(waits);
    r.metrics["domain.rank_skew_s"] = median(skews);
    r.metrics["domain.load_uniformity"] = s.domain_load_uniformity;
    // Eq. 7 against the measured interface payload (modeled).
    const int groups = static_cast<int>(s.scalar_flux.size() /
                                         s.fission_rate.size());
    r.metrics["perfmodel.comm_residual"] =
        s.flux_bytes_per_iter > 0
            ? static_cast<double>(perf::interface_flux_bytes(
                  s.crossing_track_ends, groups)) /
                      static_cast<double>(s.flux_bytes_per_iter) -
                  1.0
            : 0.0;
    trace_metrics(r, traced, untraced);
  }
  if (first.ok) {
    const DomainRunSummary& s = first.summary;
    r.exact["iterations"] = s.result.iterations;
    r.exact["flux_bytes_per_iter"] =
        static_cast<double>(s.flux_bytes_per_iter);
    r.exact["segments_3d"] = static_cast<double>(s.total_segments_3d);
    r.exact["crossing_track_ends"] =
        static_cast<double>(s.crossing_track_ends);
  }
  r.info["k_eff"] = json_number(checker.first_k);
  return r;
}

// ===========================================================================
// engine-screen: one Session on one 2 GiB device serving a seeded stream of
// fixed-iteration scenario jobs, one at a time from one client thread.
// ===========================================================================

namespace {

/// splitmix64: the scenario stream's generator, kept here (not the
/// library's) so a library change can never reshuffle the workload.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// The seeded scenario pool: base, two nu-fission scalings of UO2, a
/// control-rod swap, and two temperature branches. Parameters are rounded
/// so the descriptions print exactly.
struct PoolEntry {
  engine::Scenario scenario;
  std::string description;
  double nu_factor = 1.0;  ///< != 1 for the nu-fission scalings
};

std::vector<PoolEntry> scenario_pool(std::uint64_t seed) {
  SplitMix64 rng{seed * 2 + 1};
  std::vector<PoolEntry> pool;
  using engine::MaterialOp;
  PoolEntry base;
  base.scenario.name = "base";
  base.description = "base";
  pool.push_back(base);
  for (int i = 0; i < 2; ++i) {
    PoolEntry e;
    // factor in [0.980, 1.020] \ {1.000}
    int milli = 980 + static_cast<int>(rng.uniform() * 40.0);
    if (milli >= 1000) ++milli;
    e.nu_factor = milli / 1000.0;
    MaterialOp op;
    op.kind = MaterialOp::Kind::kScale;
    op.material = 0;  // UO2: the core's two UO2 assemblies
    op.xs = MaterialOp::Xs::kNuFission;
    op.factor = e.nu_factor;
    e.scenario.name = "nu" + std::to_string(milli);
    e.scenario.ops.push_back(op);
    e.description = "scale material=0 xs=nu_fission factor=" +
                    std::to_string(milli) + "e-3";
    pool.push_back(e);
  }
  {
    PoolEntry e;
    MaterialOp op;
    op.kind = MaterialOp::Kind::kSwap;
    op.material = 6;  // moderator
    op.source = 7;    // control rod
    e.scenario.name = "rodded";
    e.scenario.ops.push_back(op);
    e.description = "swap material=6 source=7";
    pool.push_back(e);
  }
  for (int i = 0; i < 2; ++i) {
    PoolEntry e;
    const int dt = 10 * (10 + static_cast<int>(rng.uniform() * 50.0));
    MaterialOp op;
    op.kind = MaterialOp::Kind::kTemperature;
    op.delta_t = dt;
    e.scenario.name = "hot" + std::to_string(dt);
    e.scenario.ops.push_back(op);
    e.description = "temp dT=" + std::to_string(dt);
    pool.push_back(e);
  }
  return pool;
}

engine::SessionOptions session_options(bool smoke) {
  engine::SessionOptions o;
  o.num_devices = 1;
  o.device = gpusim::DeviceSpec::scaled(std::size_t{2} << 30, 8);
  o.num_azim = 8;
  o.azim_spacing = smoke ? 0.3 : 0.05;
  o.num_polar = 2;
  o.z_spacing = 3.0;
  o.exp_tolerance = smoke ? 1e-6 : 2e-12;
  o.solve.fixed_iterations = 2;
  o.sweep_workers = kEngineSweepWorkers;
  o.max_concurrent = kEngineExecutors;
  return o;
}

CoreSpec engine_core() {
  CoreSpec s;
  s.fuel_layers = 1;
  s.reflector_layers = 1;
  s.height_scale = 0.05;
  return s;
}

/// One closed-loop pass over the job stream, one job in flight.
struct LoopStats {
  std::vector<double> cpu;   ///< process CPU seconds, submit -> result
  std::vector<double> wall;  ///< wall seconds, submit -> result
  std::vector<double> exec, queue;
  double wall_total = 0.0;
  long completed = 0;
};

class JobChecker {
 public:
  JobChecker(const Options& opt, Result& r,
             const std::vector<PoolEntry>& pool)
      : opt_(opt), r_(r), pool_(pool), first_(pool.size(), 0.0),
        seen_(pool.size(), false) {}

  void check(const engine::JobResult& jr, int idx) {
    ++r_.attempted;
    char buf[200];
    if (!jr.ok) {
      r_.fail("job " + pool_[idx].scenario.name + " failed: " + jr.error);
      return;
    }
    if (!std::isfinite(jr.k_eff) || jr.k_eff <= 0.0) {
      r_.fail("job " + pool_[idx].scenario.name + " gave a non-physical k");
      return;
    }
    if (idx == 0 && opt_.k_ref > 0.0 &&
        !(std::abs(jr.k_eff - opt_.k_ref) * 1e5 <= opt_.k_pcm)) {
      std::snprintf(buf, sizeof buf,
                    "base job k %.9f outside %.3g pcm of reference %.9f",
                    jr.k_eff, opt_.k_pcm, opt_.k_ref);
      r_.fail(buf);
      return;
    }
    if (!seen_[idx]) {
      seen_[idx] = true;
      first_[idx] = jr.k_eff;
    } else if (jr.k_eff != first_[idx]) {
      std::snprintf(buf, sizeof buf,
                    "repeat of scenario %s gave k %.17g, first gave %.17g",
                    pool_[idx].scenario.name.c_str(), jr.k_eff, first_[idx]);
      r_.fail(buf);
      return;
    }
    // Physics direction: more UO2 nu-fission raises k, less lowers it.
    const double f = pool_[idx].nu_factor;
    if (f != 1.0 && seen_[0] && (jr.k_eff - first_[0]) * (f - 1.0) <= 0.0) {
      r_.fail("scenario " + pool_[idx].scenario.name +
              " moved k the wrong way");
    }
  }

  double base_k() const { return seen_[0] ? first_[0] : 0.0; }

 private:
  const Options& opt_;
  Result& r_;
  const std::vector<PoolEntry>& pool_;
  std::vector<double> first_;
  std::vector<bool> seen_;
};

/// Closed-loop client: one thread submits a job, waits for its result and
/// submits the next, until `seconds` have passed and at least `min_jobs`
/// completed.
LoopStats closed_loop(engine::Session& session,
                      const std::vector<PoolEntry>& pool,
                      SplitMix64& stream, JobChecker& checker,
                      double seconds, long min_jobs, bool traced,
                      long& next_req) {
  LoopStats st;
  std::map<long, long> job_to_request_span;
  Tracer& tr = Tracer::instance();
  const double t0 = now_s();
  while (now_s() - t0 < seconds || st.completed < min_jobs) {
    const int idx = static_cast<int>(stream.next() % pool.size());
    const long req = next_req++;
    const double w_submit = now_s();
    const double c_submit = cpu_s();
    const engine::JobResult jr = session.submit(pool[idx].scenario).get();
    const double c_done = cpu_s();
    const double w_done = now_s();
    st.cpu.push_back(c_done - c_submit);
    st.wall.push_back(w_done - w_submit);
    st.exec.push_back(jr.solve_seconds);
    st.queue.push_back(jr.queue_seconds);
    ++st.completed;
    if (traced) {
      Tracer::Span span;
      span.name = "engine.request";
      span.layer = "request";
      span.req = req;
      span.t0 = w_submit;
      span.t1 = w_done;
      job_to_request_span[jr.job] = tr.add(span);
    }
    checker.check(jr, idx);
  }
  st.wall_total = now_s() - t0;
  if (traced) {
    tr.import_telemetry(-1, [&](const std::string& name, long long arg) {
      if (name != "engine/job") return -1L;
      const auto it = job_to_request_span.find(static_cast<long>(arg));
      return it == job_to_request_span.end() ? -1L : it->second;
    });
  }
  return st;
}

}  // namespace

std::vector<int> scenario_stream(std::uint64_t seed, int count) {
  const std::size_t n = scenario_pool(seed).size();
  SplitMix64 stream{seed};
  std::vector<int> out;
  for (int i = 0; i < count; ++i)
    out.push_back(static_cast<int>(stream.next() % n));
  return out;
}

std::vector<std::string> scenario_pool_descriptions(std::uint64_t seed) {
  std::vector<std::string> out;
  for (const PoolEntry& e : scenario_pool(seed)) out.push_back(e.description);
  return out;
}

Result run_engine_screen(const Options& opt) {
  Result r;
  pin_sweep_costs();
  const engine::SessionOptions so = session_options(opt.smoke);
  const CoreSpec core = engine_core();
  const std::vector<PoolEntry> pool = scenario_pool(opt.seed);
  JobChecker checker(opt, r, pool);

  // Set-up: geometry build + Session construction (warm-up), repeated
  // cold; the last session serves the jobs.
  const int setup_reps = opt.smoke ? 1 : (opt.trace ? 2 : 5);
  std::vector<double> setup;
  std::unique_ptr<engine::Session> session;
  if (opt.trace) Tracer::instance().set_on(true);
  for (int i = 0; i < setup_reps; ++i) {
    session.reset();
    const double c0 = cpu_s();
    models::C5G7Model model;
    {
      Tracer::Scope s("models.build_core", "models");
      model = build_core(core);
    }
    Tracer::Scope s("engine.session", "engine");
    session = std::make_unique<engine::Session>(std::move(model), so);
    setup.push_back(cpu_s() - c0);
  }
  Tracer::instance().set_on(false);

  const long min_jobs = opt.smoke ? 10 : 100;
  SplitMix64 stream{opt.seed};
  long req = 0;
  // Warm-up: one job of every pool scenario (checked, not timed); the
  // base job first, so the direction checks have their baseline.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const engine::JobResult jr = session->submit(pool[i].scenario).get();
    checker.check(jr, static_cast<int>(i));
  }

  const gpusim::DeviceSpec& dev = so.device;
  const double shared_bytes =
      static_cast<double>(dev.memory_bytes - session->idle_headroom(0));
  const double segments =
      static_cast<double>(session->stacks().total_segments());
  r.exact["segments_3d"] = segments;
  r.exact["shared_arena_bytes"] = shared_bytes;
  r.exact["job_floor_bytes"] = static_cast<double>(session->job_floor_bytes());

  if (!opt.trace) {
    const LoopStats st = closed_loop(*session, pool, stream, checker,
                                     opt.seconds, min_jobs, false, req);
    e2e_metrics(r, setup, st.cpu, st.cpu, st.cpu, st.wall);
  } else {
    zero_layer_metrics(r);
    r.metrics["engine.warmup_s"] = median(span_durations("engine.session"));
    // Untraced reference half, then the traced half with the library's
    // telemetry on (engine/job, solver and kernel spans).
    const LoopStats u = closed_loop(*session, pool, stream, checker,
                                    opt.seconds / 2, min_jobs / 2, false,
                                    req);
    auto& tel = telemetry::Telemetry::instance();
    telemetry::Config tc;
    tc.enabled = true;
    tc.span_capacity = 1 << 16;
    tel.set_config(tc);
    tel.reset();
    Tracer::instance().set_on(true);
    const LoopStats t = closed_loop(*session, pool, stream, checker,
                                    opt.seconds / 2, min_jobs / 2, true,
                                    req);
    Tracer::instance().set_on(false);
    std::vector<double> sweep_kernel, reduce_kernel, iter_s, sweep_s;
    for (const auto& ev : tel.events()) {
      if (ev.instant) continue;
      const std::string name = ev.name;
      const double d = static_cast<double>(ev.dur_us) * 1e-6;
      if (name == "kernel/transport_sweep") sweep_kernel.push_back(d);
      if (name == "kernel/tally_reduction") reduce_kernel.push_back(d);
      if (name == "solver/iteration") iter_s.push_back(d);
      if (name == "solver/transport_sweep") sweep_s.push_back(d);
    }
    tel.set_enabled(false);
    const engine::SessionStats stats = session->stats();
    r.metrics["engine.job_exec_s"] = median(t.exec);
    r.metrics["engine.job_queue_s"] = median(t.queue);
    r.metrics["engine.peak_concurrent"] = stats.peak_concurrent;
    r.metrics["engine.deferrals"] = static_cast<double>(stats.deferrals);
    r.metrics["gpusim.sweep_kernel_s"] = median(sweep_kernel);
    r.metrics["gpusim.reduce_kernel_s"] = median(reduce_kernel);
    r.metrics["solver.iterations"] = so.solve.fixed_iterations;
    r.metrics["solver.iter_s"] = median(iter_s);
    r.metrics["solver.sweep_s"] = median(sweep_s);
    r.metrics["track.segments_3d"] = segments;
    // Session exposes no device handle: the peak is the shared laydown
    // plus one job floor per concurrently admitted job.
    r.metrics["gpusim.arena.peak_mib"] =
        (shared_bytes + stats.peak_concurrent *
                            static_cast<double>(session->job_floor_bytes())) /
        kMiB;
    const auto per_job = [](const LoopStats& s) {
      return std::vector<double>{
          s.completed > 0 ? s.wall_total / static_cast<double>(s.completed)
                          : 0.0};
    };
    trace_metrics(r, per_job(t), per_job(u));
  }
  r.info["k_eff"] = json_number(checker.base_k());
  r.info["scenarios"] = std::to_string(pool.size());
  return r;
}

}  // namespace perfbench
