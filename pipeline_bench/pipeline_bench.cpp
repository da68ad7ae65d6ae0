// Closed-loop end-to-end benchmark of memfront's analyze -> factorize ->
// solve pipeline.
//
// One thread runs one job at a time through the public entry points
// (analyze, build_solve_graph, parallel_numeric_factorize,
// ensure_factors_resident, solve_factorized_multi), checks every result
// outside the timed region, and prints one metric per line followed by
// a JSON summary line. Untraced runs (--trace 0) report the end-to-end
// metrics. Traced runs (--trace 1) alternate traced and untraced jobs,
// record a span around every library call the benchmark makes, then
// probe the layers once (serial factorization and solves, the largest
// fronts' kernels) and report the per-layer metrics. WORKLOADS.md says
// why each workload exists and which layer moves which metric.
//
//   pipeline_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--work-dir DIR]
//   pipeline_bench --self-test [--work-dir DIR]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/solver/analysis.hpp"
#include "memfront/solver/numeric_factor.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "spans.hpp"

namespace pipeline_bench {
namespace {

using namespace memfront;
using Clock = std::chrono::steady_clock;

/// Worker threads and mapping width of every parallel call, set
/// explicitly so MEMFRONT_THREADS cannot change a workload.
constexpr unsigned kWorkers = 4;
constexpr double kBackwardErrorBound = 1e-10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Width of the solve-stream panel and of the traced panel probe.
constexpr index_t kPanelRhs = 16;
/// Largest fronts timed by the traced kernel probe.
constexpr std::size_t kProbeFronts = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The process's peak resident set (VmHWM) since the last reset.
double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return 1024.0 * std::stod(line.substr(6));
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Resets VmHWM to the current resident set, so a job's peak is its own.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Runs f() inside a span.
template <class F>
decltype(auto) traced(SpanLog* log, const char* name, int job, F&& f) {
  ScopedSpan span(log, name, job);
  return f();
}

/// Runs f() inside a span and adds its wall time to `acc`.
template <class F>
decltype(auto) timed(SpanLog* log, const char* name, int job, double& acc, F&& f) {
  ScopedSpan span(log, name, job);
  struct AddElapsed {
    double& acc;
    Clock::time_point t0;
    ~AddElapsed() { acc += seconds_since(t0); }
  } add{acc, Clock::now()};
  return f();
}

/// Median wall seconds of `reps` calls of f(), inside one span.
template <class F>
double median_time(SpanLog* log, const char* name, int reps, F&& f) {
  ScopedSpan span(log, name, -1);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    times.push_back(seconds_since(t0));
  }
  return median(std::move(times));
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---- workloads ---------------------------------------------------------------

struct MatrixSpec {
  ProblemId id;
  double scale;
};

struct Workload {
  std::string name;
  std::vector<MatrixSpec> matrices;
  /// Factorize once at set-up; a job is one request of solves.
  bool stream = false;
  /// Memory policy under a budget below the in-core peak, factors spilled.
  bool ooc = false;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"uns-circuit", {{ProblemId::kPre2, 0.5}, {ProblemId::kTwotone, 0.5}}, false, false},
      {"sym-fem",
       {{ProblemId::kBmwCra1, 0.7},
        {ProblemId::kGupta3, 0.7},
        {ProblemId::kMsdoor, 0.7},
        {ProblemId::kShip003, 0.7}},
       false,
       false},
      {"solve-stream", {{ProblemId::kPre2, 0.5}, {ProblemId::kMsdoor, 0.7}}, true, false},
      {"ooc-budget",
       {{ProblemId::kPre2, 0.5}, {ProblemId::kTwotone, 0.5}, {ProblemId::kUltrasound3, 0.5}},
       false,
       true},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

AnalysisOptions analysis_options(const Input& in) {
  AnalysisOptions opt;
  opt.ordering = OrderingKind::kNestedDissection;
  opt.symmetric = in.symmetric;
  return opt;
}

SolveOptions solve_options(unsigned workers) {
  SolveOptions opt;
  opt.nthreads = workers;
  opt.nprocs = kWorkers;
  return opt;
}

/// In-core: workload policy, stealing on. Under budget: memory policy,
/// budget = max(0.8 x predicted in-core peak, feasibility floor) — the
/// rule bench_ooc applies — with write-behind spill into `spill_dir`.
ParallelNumericOptions factor_options(const Analysis& analysis, bool ooc,
                                      const std::string& spill_dir) {
  ParallelNumericOptions opt;
  opt.nthreads = kWorkers;
  opt.nprocs = kWorkers;
  if (!ooc) return opt;
  opt.sched.policy = RealPolicy::kMemory;
  opt.ooc.enabled = true;
  opt.ooc.io_mode = OocIoMode::kWriteBehind;
  opt.ooc.spill_dir = spill_dir;
  opt.ooc.budget_doubles =
      std::max(predict_arena_peak(analysis.tree, analysis.traversal) * 8 / 10,
               predict_min_ooc_budget(analysis.tree, analysis.traversal));
  return opt;
}

/// Exact work and size counts of one analysed matrix.
struct Counts {
  count_t flops = 0, factor_entries = 0;
  index_t max_front = 0, subtrees = 0;
  std::size_t analysis_bytes = 0, factor_bytes = 0;

  void add(const Counts& o) {
    flops += o.flops;
    factor_entries += o.factor_entries;
    max_front = std::max(max_front, o.max_front);
    subtrees += o.subtrees;
  }
};

Counts counts_of(const Analysis& analysis, const SolveGraph& graph, const Factorization& fact) {
  Counts c;
  c.flops = analysis.tree.total_flops();
  c.factor_entries = analysis.tree.total_factor_entries();
  for (index_t v = 0; v < analysis.tree.num_nodes(); ++v)
    c.max_front = std::max(c.max_front, analysis.tree.nfront(v));
  c.subtrees = static_cast<index_t>(graph.subtrees.roots.size());
  c.analysis_bytes = analysis.memory_bytes();
  for (const NodeFactor& node : fact.nodes)
    c.factor_bytes += (node.panel.size() + node.u12.size()) * sizeof(double);
  return c;
}

// ---- jobs --------------------------------------------------------------------

/// One matrix through the whole pipeline.
struct MatrixRun {
  double factor_s = 0;
  Analysis::Timings timings;
  Counts counts;
  ParallelNumericStats stats;
  OocExecStats ooc;
  count_t working_set_doubles = 0;
  std::vector<double> x;
  std::string error;  // what() of a thrown error; empty on success
};

struct Job {
  double wall_s = 0, factor_s = 0, peak_rss_bytes = 0;
  index_t rhs = 0;
  count_t working_set_doubles = 0;  // largest factorization working set
  std::vector<MatrixRun> runs;      // empty for solve-stream requests
  std::string error;                // a solve-stream request's thrown error
};

/// A solve-stream matrix, factorized once at set-up.
struct Prepared {
  Analysis analysis;
  SolveGraph graph;
  Factorization fact;
  ParallelNumericStats stats;
  Counts counts;
  SolveWorkspace ws1, ws_panel;
  std::vector<double> x1, x_panel;
};

struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cerr << "check failed: " << what << "\n";
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".";
};

struct Bench {
  const Workload& w;
  std::uint64_t seed = 0;
  std::string spill_dir;
  std::vector<Input> inputs;
  std::vector<double> norms;
  std::vector<Prepared> prepared;
  std::vector<double> setup_s, generate_s, prepare_factor_s;
  Tally tally;

  Bench(const Workload& workload, std::uint64_t s, const std::string& work_dir)
      : w(workload), seed(s), spill_dir((std::filesystem::path(work_dir) / "spill").string()) {
    std::filesystem::create_directories(spill_dir);
  }

  /// Input generation, the one-time factorizations (solve-stream) and
  /// one checked warm-up job.
  void setup(SpanLog* log) {
    const auto t0 = Clock::now();
    double gen = 0;
    timed(log, "generate", -1, gen, [&] { generate(); });
    generate_s.push_back(gen);
    if (w.stream) prepare(log);
    check(run_job(log, -1));
    setup_s.push_back(seconds_since(t0));
  }

  void generate() {
    inputs.clear();
    norms.clear();
    for (const MatrixSpec& m : w.matrices) {
      inputs.push_back(make_input(m.id, m.scale, seed, w.stream ? 1 + kPanelRhs : 1));
      norms.push_back(matrix_norm_inf(inputs.back().a));
    }
  }

  Job run_job(SpanLog* log, int id) {
    Job job;
    ScopedSpan span(log, "job", id);
    const auto t0 = Clock::now();
    if (w.stream) {
      try {
        solve_request(job, log, id);
      } catch (const std::exception& e) {
        job.error = e.what();
      }
    } else {
      for (const Input& in : inputs) job.runs.push_back(run_matrix(in, log, id));
    }
    job.wall_s = seconds_since(t0);
    for (const MatrixRun& r : job.runs) {
      job.factor_s += r.factor_s;
      job.working_set_doubles = std::max(job.working_set_doubles, r.working_set_doubles);
      job.rhs += 1;
    }
    return job;
  }

  /// Checks every result of a job: one operation per solve call.
  void check(const Job& job) {
    if (w.stream) {
      for (std::size_t i = 0; i < prepared.size(); ++i) {
        const Input& in = inputs[i];
        const Prepared& p = prepared[i];
        const std::size_t n = p.x1.size();
        const std::string why = job.error.empty() ? "backward error above 1e-10" : job.error;
        tally.record(job.error.empty() && solution_ok(i, p.x1, in.rhs(0)),
                     in.name + ": 1-RHS solve: " + why);
        bool panel_ok = job.error.empty();
        for (index_t c = 0; c < kPanelRhs; ++c)
          panel_ok = panel_ok &&
                     solution_ok(i, std::span<const double>(p.x_panel).subspan(c * n, n),
                                 in.rhs(1 + c));
        tally.record(panel_ok, in.name + ": 16-RHS panel solve: " + why);
      }
      return;
    }
    for (std::size_t i = 0; i < job.runs.size(); ++i) {
      const MatrixRun& r = job.runs[i];
      const std::string& name = inputs[i].name;
      if (!r.error.empty()) {
        tally.record(false, name + ": " + r.error);
      } else if (!solution_ok(i, r.x, inputs[i].rhs(0))) {
        tally.record(false, name + ": backward error above 1e-10");
      } else if (w.ooc) {
        tally.record(r.ooc.charged_peak_doubles <= r.ooc.budget_doubles &&
                         r.ooc.overrun_peak_doubles == 0,
                     name + ": charged peak above the budget");
      } else {
        tally.record(r.stats.max_arena_peak_doubles <= r.stats.steal_arena_bound_doubles,
                     name + ": worker arena peak above the stealing bound");
      }
    }
  }

  bool solution_ok(std::size_t i, std::span<const double> x, std::span<const double> b) const {
    return backward_error(inputs[i].a, norms[i], x, b) <= kBackwardErrorBound;
  }

  MatrixRun run_matrix(const Input& in, SpanLog* log, int id) const {
    MatrixRun r;
    try {
      const AnalysisOptions aopt = analysis_options(in);
      const Analysis analysis =
          traced(log, "analyze", id, [&] { return analyze(in.a, aopt); });
      const SolveOptions sopt = solve_options(kWorkers);
      const SolveGraph graph =
          traced(log, "mapping", id, [&] { return build_solve_graph(analysis, sopt); });
      const Factorization fact = timed(log, "factor", id, r.factor_s, [&] {
        return parallel_numeric_factorize(analysis, factor_options(analysis, w.ooc, spill_dir),
                                          &r.stats);
      });
      traced(log, "reload", id, [&] { ensure_factors_resident(fact); });
      r.x.resize(in.rhs(0).size());
      traced(log, "solve", id, [&] {
        SolveWorkspace ws;
        solve_factorized_multi(analysis, fact, graph, in.rhs(0), 1, r.x, ws, sopt);
      });
      r.timings = analysis.timings;
      r.counts = counts_of(analysis, graph, fact);
      r.ooc = fact.stats.ooc;
      r.working_set_doubles =
          w.ooc ? r.ooc.charged_peak_doubles : r.stats.total_arena_peak_doubles;
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    return r;
  }

  void prepare(SpanLog* log) {
    double factor_s = 0;
    prepared.clear();
    prepared.reserve(inputs.size());
    for (const Input& in : inputs) {
      Prepared& p = prepared.emplace_back();
      p.analysis = traced(log, "analyze", -1, [&] { return analyze(in.a, analysis_options(in)); });
      p.graph = traced(log, "mapping", -1,
                       [&] { return build_solve_graph(p.analysis, solve_options(kWorkers)); });
      p.fact = timed(log, "factor", -1, factor_s, [&] {
        return parallel_numeric_factorize(p.analysis, factor_options(p.analysis, false, spill_dir),
                                          &p.stats);
      });
      p.counts = counts_of(p.analysis, p.graph, p.fact);
      p.x1.resize(in.rhs(0).size());
      p.x_panel.resize(p.x1.size() * kPanelRhs);
    }
    prepare_factor_s.push_back(factor_s);
  }

  /// One solve-stream request: a 1-RHS solve and a 16-RHS panel solve
  /// against every prepared factorization.
  void solve_request(Job& job, SpanLog* log, int id) {
    const SolveOptions sopt = solve_options(kWorkers);
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      Prepared& p = prepared[i];
      const Input& in = inputs[i];
      const std::size_t n = p.x1.size();
      traced(log, "solve", id, [&] {
        solve_factorized_multi(p.analysis, p.fact, p.graph, in.rhs(0), 1, p.x1, p.ws1, sopt);
      });
      traced(log, "solve", id, [&] {
        solve_factorized_multi(p.analysis, p.fact, p.graph,
                               std::span<const double>(in.b).subspan(n, n * kPanelRhs),
                               kPanelRhs, p.x_panel, p.ws_panel, sopt);
      });
      job.rhs += 1 + kPanelRhs;
    }
  }

  /// Work counts of the workload's matrices: flops, factor entries and
  /// subtrees add up, max_front is the largest.
  Counts counts(const Job& job) const {
    Counts total;
    if (w.stream) {
      for (const Prepared& p : prepared) total.add(p.counts);
    } else {
      for (const MatrixRun& r : job.runs) total.add(r.counts);
    }
    return total;
  }
};

// ---- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_report(const std::vector<Metric>& metrics, const Tally& tally) {
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  std::cout << std::setprecision(6);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << "  " << std::left << std::setw(30) << m.name << " " << m.value << " " << m.unit
              << "\n";
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// Every end-to-end metric is reported on every workload and is steady
/// across seeds there; WORKLOADS.md lists the ones left to the per-layer
/// report and why.
std::vector<Metric> end_to_end_metrics(const Bench& bench, const std::vector<Job>& jobs) {
  std::vector<double> wall, rhs_rate, working_set;
  for (const Job& j : jobs) {
    wall.push_back(j.wall_s);
    rhs_rate.push_back(static_cast<double>(j.rhs) / j.wall_s);
    working_set.push_back(static_cast<double>(j.working_set_doubles));
  }
  if (bench.w.stream) {
    // A request factorizes nothing: the working set is the set-up's.
    count_t ws = 0;
    for (const Prepared& p : bench.prepared) ws = std::max(ws, p.stats.total_arena_peak_doubles);
    working_set = {static_cast<double>(ws)};
  }
  return {
      {"setup_s", median(bench.setup_s), "s"},
      {"job_s", median(wall), "s"},
      {"rhs_per_s", median(rhs_rate), "1/s"},
      {"peak_mem_bytes", 8.0 * median(working_set), "B"},
  };
}

/// Per-layer values of one traced job, from its span self times and the
/// stats structs the calls returned.
std::map<std::string, double> job_layers(const Job& job, const SpanLog& log, int id) {
  std::map<std::string, double> self = log.self_seconds(id);
  double total = 0;
  for (const auto& [name, s] : self) total += s;
  std::map<std::string, double> v;
  double idle = 0, stall = 0;
  const double factor = self["factor"];
  for (const MatrixRun& r : job.runs) {
    v["ordering.s"] += r.timings.ordering_s;
    v["symbolic.s"] += r.timings.symbolic_s + r.timings.splitting_s + r.timings.finalize_s;
    const SchedStats& s = r.stats.sched;
    idle += 1e-9 * static_cast<double>(s.idle_ns);
    v["sched.steals"] += static_cast<double>(s.steals);
    v["sched.steal_chunks"] += static_cast<double>(s.steal_chunks);
    v["sched.wakeups"] += static_cast<double>(s.wakeups);
    v["sched.dispatch_consults"] += static_cast<double>(s.dispatch_consults);
    v["sched.admit_consults"] += static_cast<double>(s.admit_consults);
    v["sched.max_queue_depth"] =
        std::max(v["sched.max_queue_depth"], static_cast<double>(s.max_queue_depth));
    stall += r.ooc.stall_seconds;
    v["ooc.overlap_s"] += r.ooc.overlap_seconds;
    v["ooc.spill_bytes"] += 8.0 * static_cast<double>(r.ooc.spill_doubles);
    v["ooc.reload_bytes"] += 8.0 * static_cast<double>(r.ooc.reload_doubles);
    v["ooc.factor_write_bytes"] += 8.0 * static_cast<double>(r.ooc.factor_write_doubles);
    v["ooc.io_retries"] += static_cast<double>(r.ooc.io_retries);
    v["ooc.policy_admissions"] += static_cast<double>(r.ooc.policy_admissions);
    v["ooc.budget_bytes"] =
        std::max(v["ooc.budget_bytes"], 8.0 * static_cast<double>(r.ooc.budget_doubles));
  }
  const double worker_s = kWorkers * factor;
  v["analyze.s"] = self["analyze"];
  v["mapping.s"] = self["mapping"];
  v["factor.s"] = factor;
  v["solve.s"] = self["solve"];
  v["sched.idle_s"] = idle;
  v["sched.idle_frac"] = worker_s > 0 ? idle / worker_s : 0.0;
  v["ooc.stall_s"] = stall;
  v["ooc.stall_frac"] = worker_s > 0 ? stall / worker_s : 0.0;
  v["ooc.reload_s"] = self["reload"];
  v["job.traced_s"] = total;
  return v;
}

/// The once-per-run layer probe: serial factorization and solves of the
/// job's matrices (bitwise against the 4-worker solutions) and the
/// blocked kernels on the job's largest fronts.
struct Probe {
  double factor_serial_s = 0, solve_serial_s = 0, solve_parallel_s = 0, panel_s = 0;
  count_t arena_peak = 0, arena_predicted = 0;
  double kernel_s = 0, kernel_flops = 0, kernel_bytes = 0;
};

/// Diagonally dominant n x n front (numerically symmetric for LDLᵀ),
/// the shape bench_numeric times.
std::vector<double> probe_front(index_t n, bool symmetric, std::uint64_t seed) {
  Rng rng(seed);
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> f(un * un);
  for (std::size_t c = 0; c < un; ++c)
    for (std::size_t r = 0; r < un; ++r)
      f[c * un + r] = symmetric && r < c ? f[r * un + c] : rng.real(-1.0, 1.0);
  for (std::size_t r = 0; r < un; ++r) {
    double sum = 0;
    for (std::size_t c = 0; c < un; ++c) sum += std::abs(f[c * un + r]);
    f[r * un + r] = sum + 1.0;
  }
  return f;
}

Probe probe_layers(Bench& bench, const std::vector<std::span<const double>>& x_parallel,
                   SpanLog* log) {
  Probe p;
  struct Front {
    index_t nfront, npiv;
    bool symmetric;
  };
  std::vector<Front> fronts;
  for (std::size_t i = 0; i < bench.inputs.size(); ++i) {
    const Input& in = bench.inputs[i];
    const Analysis analysis =
        traced(log, "analyze", -1, [&] { return analyze(in.a, analysis_options(in)); });
    const SolveGraph graph = build_solve_graph(analysis, solve_options(kWorkers));
    const Factorization serial = timed(log, "serial_factor", -1, p.factor_serial_s,
                                       [&] { return numeric_factorize(analysis); });
    p.arena_peak = std::max(p.arena_peak, serial.stats.arena_peak_doubles);
    p.arena_predicted =
        std::max(p.arena_predicted, predict_arena_peak(analysis.tree, analysis.traversal));

    const std::size_t n = in.rhs(0).size();
    std::vector<double> x(n), x4(n), x_panel(n * kPanelRhs), b_panel;
    for (index_t c = 0; c < kPanelRhs; ++c)
      b_panel.insert(b_panel.end(), in.rhs(0).begin(), in.rhs(0).end());
    SolveWorkspace ws;
    p.solve_serial_s += median_time(log, "serial_solve", 5, [&] {
      solve_factorized_multi(analysis, serial, graph, in.rhs(0), 1, x, ws, solve_options(1));
    });
    bench.tally.record(bitwise_equal(x, x_parallel[i]),
                       in.name + ": 4-worker solution differs from the serial one");
    p.solve_parallel_s += median_time(log, "parallel_solve", 5, [&] {
      solve_factorized_multi(analysis, serial, graph, in.rhs(0), 1, x4, ws,
                             solve_options(kWorkers));
    });
    p.panel_s += median_time(log, "panel_solve", 3, [&] {
      solve_factorized_multi(analysis, serial, graph, b_panel, kPanelRhs, x_panel, ws,
                             solve_options(kWorkers));
    });
    for (index_t v = 0; v < analysis.tree.num_nodes(); ++v)
      fronts.push_back({analysis.tree.nfront(v), analysis.tree.npiv(v), in.symmetric});
  }

  std::sort(fronts.begin(), fronts.end(),
            [](const Front& a, const Front& b) { return a.nfront > b.nfront; });
  fronts.resize(std::min(fronts.size(), kProbeFronts));
  for (std::size_t k = 0; k < fronts.size(); ++k) {
    const Front& f = fronts[k];
    const std::vector<double> original = probe_front(f.nfront, f.symmetric, bench.seed + k);
    std::vector<double> work(original.size());
    std::vector<double> times;
    double total = 0;
    ScopedSpan span(log, "kernel_probe", -1);
    while (times.size() < 3 || (total < 0.1 && times.size() < 20)) {
      std::copy(original.begin(), original.end(), work.begin());
      const auto t0 = Clock::now();
      const FrontView view{work.data(), f.nfront, f.nfront};
      if (f.symmetric) {
        (void)partial_ldlt_blocked(view, f.npiv);
      } else {
        (void)partial_lu_blocked(view, f.npiv);
      }
      times.push_back(seconds_since(t0));
      total += times.back();
    }
    p.kernel_s += median(std::move(times));
    p.kernel_flops += static_cast<double>(elimination_flops(f.nfront, f.npiv, f.symmetric));
    // Computed, not measured: the front read once and written once.
    p.kernel_bytes += 2.0 * 8.0 * static_cast<double>(f.nfront) * static_cast<double>(f.nfront);
  }
  return p;
}

std::vector<Metric> per_layer_metrics(Bench& bench, const std::vector<Job>& plain,
                                      const std::vector<Job>& traced,
                                      const std::vector<int>& traced_ids, SpanLog& log) {
  std::map<std::string, std::vector<double>> samples;
  for (std::size_t j = 0; j < traced.size(); ++j)
    for (const auto& [name, value] : job_layers(traced[j], log, traced_ids[j]))
      samples[name].push_back(value);
  std::map<std::string, double> v;
  for (auto& [name, values] : samples) v[name] = median(values);

  const Job& last = traced.back();
  std::vector<double> plain_wall, plain_rss;
  for (const Job& j : plain) {
    plain_wall.push_back(j.wall_s);
    plain_rss.push_back(j.peak_rss_bytes);
  }
  const double rss = median(plain_rss);
  const double p90 = percentile(plain_wall, 0.9);

  std::vector<std::span<const double>> x_parallel;
  double parallel_factor_s = 0;
  std::size_t analysis_bytes = 0, factor_bytes = 0;
  double working_set = 0;
  if (bench.w.stream) {
    for (const Prepared& p : bench.prepared) {
      x_parallel.emplace_back(p.x1);
      analysis_bytes += p.counts.analysis_bytes;
      factor_bytes += p.counts.factor_bytes;
      working_set =
          std::max(working_set, 8.0 * static_cast<double>(p.stats.total_arena_peak_doubles));
    }
    parallel_factor_s = median(bench.prepare_factor_s);
  } else {
    std::vector<double> factor_s;
    for (const Job& j : traced) factor_s.push_back(j.factor_s);
    parallel_factor_s = median(factor_s);
    for (const MatrixRun& r : last.runs) {
      x_parallel.emplace_back(r.x);
      analysis_bytes = std::max(analysis_bytes, r.counts.analysis_bytes);
      factor_bytes = std::max(factor_bytes, r.counts.factor_bytes);
    }
    working_set = 8.0 * static_cast<double>(last.working_set_doubles);
  }
  double input_bytes = 0;
  for (const Input& in : bench.inputs) input_bytes += static_cast<double>(in.bytes());

  const Probe p = probe_layers(bench, x_parallel, &log);
  const Counts c = bench.counts(last);
  const double speedup = p.factor_serial_s / parallel_factor_s;
  return {
      {"job.traced_s", v["job.traced_s"], "s"},
      {"job.p90_s", p90, "s"},
      {"sparse.generate_s", median(bench.generate_s), "s"},
      {"analyze.s", v["analyze.s"], "s"},
      {"ordering.s", v["ordering.s"], "s"},
      {"symbolic.s", v["symbolic.s"], "s"},
      {"mapping.s", v["mapping.s"], "s"},
      {"symbolic.flops", static_cast<double>(c.flops), "flop"},
      {"symbolic.factor_entries", static_cast<double>(c.factor_entries), "count"},
      {"symbolic.max_front", static_cast<double>(c.max_front), "count"},
      {"mapping.subtrees", static_cast<double>(c.subtrees), "count"},
      {"frontal.kernel_gflops", 1e-9 * p.kernel_flops / p.kernel_s, "GF/s"},
      {"frontal.kernel_flops", p.kernel_flops, "flop"},
      {"frontal.kernel_bytes_computed", p.kernel_bytes, "B"},
      {"frontal.arena_peak_bytes", 8.0 * static_cast<double>(p.arena_peak), "B"},
      {"frontal.arena_predicted_bytes", 8.0 * static_cast<double>(p.arena_predicted), "B"},
      {"factor.s", v["factor.s"], "s"},
      {"factor.serial_s", p.factor_serial_s, "s"},
      {"factor.parallel_speedup", speedup, "x"},
      {"factor.parallel_efficiency", speedup / kWorkers, "ratio"},
      {"sched.idle_s", v["sched.idle_s"], "s"},
      {"sched.idle_frac", v["sched.idle_frac"], "ratio"},
      {"sched.steals", v["sched.steals"], "count"},
      {"sched.steal_chunks", v["sched.steal_chunks"], "count"},
      {"sched.wakeups", v["sched.wakeups"], "count"},
      {"sched.dispatch_consults", v["sched.dispatch_consults"], "count"},
      {"sched.admit_consults", v["sched.admit_consults"], "count"},
      {"sched.max_queue_depth", v["sched.max_queue_depth"], "count"},
      {"solve.s", v["solve.s"], "s"},
      {"solve.serial_s", p.solve_serial_s, "s"},
      {"solve.parallel_speedup", p.solve_serial_s / p.solve_parallel_s, "x"},
      {"solve.panel_speedup", p.solve_parallel_s / (p.panel_s / kPanelRhs), "x"},
      {"ooc.stall_s", v["ooc.stall_s"], "s"},
      {"ooc.stall_frac", v["ooc.stall_frac"], "ratio"},
      {"ooc.overlap_s", v["ooc.overlap_s"], "s"},
      {"ooc.spill_bytes", v["ooc.spill_bytes"], "B"},
      {"ooc.reload_bytes", v["ooc.reload_bytes"], "B"},
      {"ooc.factor_write_bytes", v["ooc.factor_write_bytes"], "B"},
      {"ooc.io_retries", v["ooc.io_retries"], "count"},
      {"ooc.policy_admissions", v["ooc.policy_admissions"], "count"},
      {"ooc.budget_bytes", v["ooc.budget_bytes"], "B"},
      {"ooc.reload_s", v["ooc.reload_s"], "s"},
      {"mem.peak_rss_bytes", rss, "B"},
      {"mem.input_bytes", input_bytes, "B"},
      {"mem.analysis_bytes", static_cast<double>(analysis_bytes), "B"},
      {"mem.factor_bytes", static_cast<double>(factor_bytes), "B"},
      {"mem.working_set_bytes", working_set, "B"},
      // A request runs after the factorization's working set was freed.
      {"mem.unattributed_bytes",
       rss - input_bytes - static_cast<double>(analysis_bytes + factor_bytes) -
           (bench.w.stream ? 0.0 : working_set),
       "B"},
      {"obs.trace_overhead", v["job.traced_s"] / median(plain_wall) - 1.0, "ratio"},
  };
}

int run_workload(const Workload& w, const Args& args) {
  Bench bench(w, args.seed, args.work_dir);
  SpanLog spans;
  SpanLog* log = args.trace ? &spans : nullptr;
  for (int s = 0; s < kSetups; ++s) bench.setup(log);

  // Closed loop: the next job starts when the previous one returns. A
  // traced run alternates traced and untraced jobs, so the untraced
  // ones give the tracing overhead.
  std::vector<Job> plain, traced;
  std::vector<int> traced_ids;
  const auto t0 = Clock::now();
  for (int id = 0; seconds_since(t0) < args.seconds || plain.empty() ||
                   (args.trace && traced.empty());
       ++id) {
    const bool traced_job = args.trace && id % 2 == 0;
    reset_peak_rss();
    Job job = bench.run_job(traced_job ? log : nullptr, id);
    job.peak_rss_bytes = peak_rss_bytes();
    bench.check(job);
    if (traced_job) {
      traced.push_back(std::move(job));
      traced_ids.push_back(id);
    } else {
      plain.push_back(std::move(job));
    }
  }
  const double window_s = seconds_since(t0);

  std::cout << "workload " << w.name << ", seed " << args.seed << ", "
            << plain.size() + traced.size() << " jobs in " << window_s << " s"
            << (args.trace ? " (traced)" : "") << "\n";
  std::cout << "  symbolic.flops " << static_cast<double>(bench.counts(plain.back()).flops)
            << " flop\n";
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(bench, plain, traced, traced_ids, spans)
                 : end_to_end_metrics(bench, plain);
  if (args.trace) {
    std::map<std::string, double> m;
    for (const Metric& metric : metrics) m[metric.name] = metric.value;
    const double job = m["job.traced_s"];
    std::cout << "  split of a traced job: analyze " << (m["analyze.s"] + m["mapping.s"]) / job
              << ", factor " << m["factor.s"] / job << ", solve "
              << (m["ooc.reload_s"] + m["solve.s"]) / job << "\n";
  }
  std::cout << "  error_rate " << static_cast<double>(bench.tally.failed) /
                                      static_cast<double>(bench.tally.attempted)
            << " (" << bench.tally.failed << " of " << bench.tally.attempted
            << " operations failed)\n";
  if (args.trace)
    spans.write_chrome_trace(
        (std::filesystem::path(args.work_dir) / ("spans-" + w.name + ".json")).string());
  print_report(metrics, bench.tally);
  return 0;
}

/// The benchmark's own test: a seed fixes the inputs, seed 0 is Table 1,
/// and a repeated job reproduces its counts and solution bit for bit.
int self_test(const std::string& work_dir) {
  Tally t;
  for (const Workload& w : workloads())
    for (const MatrixSpec& m : w.matrices) {
      const Input a = make_input(m.id, m.scale, 1, 2);
      const Input again = make_input(m.id, m.scale, 1, 2);
      const Input other = make_input(m.id, m.scale, 2, 2);
      const std::string name = w.name + "/" + a.name;
      t.record(a.a.fingerprint() == again.a.fingerprint() && a.b == again.b,
               name + ": one seed gave two different inputs");
      t.record(a.a.fingerprint() != other.a.fingerprint() && a.b != other.b,
               name + ": two seeds gave the same input");
      t.record(make_input(m.id, m.scale, 0, 1).a.fingerprint() ==
                   make_problem(m.id, m.scale).matrix.fingerprint(),
               name + ": seed 0 is not the Table-1 matrix");
    }

  const Workload& w = *find_workload("uns-circuit");
  Bench first(w, 1, work_dir), second(w, 1, work_dir);
  first.generate();
  second.generate();
  const Job a = first.run_job(nullptr, 0);
  const Job b = second.run_job(nullptr, 0);
  first.check(a);
  second.check(b);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const Counts& ca = a.runs[i].counts;
    const Counts& cb = b.runs[i].counts;
    t.record(ca.flops == cb.flops && ca.factor_entries == cb.factor_entries &&
                 ca.max_front == cb.max_front && ca.subtrees == cb.subtrees,
             first.inputs[i].name + ": one seed gave two different work counts");
    t.record(bitwise_equal(a.runs[i].x, b.runs[i].x),
             first.inputs[i].name + ": one seed gave two different solutions");
  }
  t.attempted += first.tally.attempted + second.tally.attempted;
  t.failed += first.tally.failed + second.tally.failed;
  std::cout << "self-test: " << t.attempted << " checks, " << t.failed << " failed\n";
  return t.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pipeline_bench

int main(int argc, char** argv) {
  using namespace pipeline_bench;
  try {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (arg == "--work-dir") {
        args.work_dir = value();
      } else if (arg == "--self-test") {
        args.self_test = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (args.self_test) return self_test(args.work_dir);
    const Workload* w = find_workload(args.workload);
    if (!w) {
      std::cerr << "unknown workload '" << args.workload << "'; choose one of:";
      for (const Workload& known : workloads()) std::cerr << " " << known.name;
      std::cerr << "\n";
      return 2;
    }
    return run_workload(*w, args);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 2;
  }
}
