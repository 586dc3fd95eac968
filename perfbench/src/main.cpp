// perfbench: the flexopt benchmark.
//
//   perfbench --workload fig9|sa-long|multicluster-exact --seed N
//             --seconds S --trace 0|1 [--trace-file PATH]
//
// Makes the workload's inputs from the seed, times one cold set-up, then
// runs whole rounds of the workload through the campaign layer for at least
// S seconds, single-threaded.  Scenario intervals are bracketed by the
// reference kernel (reference_kernel.hpp), so times are seconds at
// reference speed.
// After timing, one round is solved again through the solver API and every
// result is checked (checks.hpp).  With --trace 1 the run also replays
// individual layers (layers.hpp) and writes a Chrome trace-event file.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.  Raw (unnormalised) figures go to stderr on a line starting
// with "perfbench-raw".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "flexopt/analysis/exact/exact_analysis.hpp"
#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/portfolio.hpp"
#include "layers.hpp"
#include "reference_kernel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace flexopt;
using perfbench::Tracer;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file = ".bench_build/perfbench-trace.json";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-file") {
      args.trace_file = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// ---- set-up -----------------------------------------------------------------

struct System {
  ScenarioPlan plan;
  SystemModel model;
  /// Some cluster's bus carries no message (see the FOUND note on
  /// minimal_start_cluster_config in CHANGES.md).
  bool idle_cluster = false;
};

struct PreparedSlice {
  CampaignSpec spec;
  bool seeded = true;
  std::vector<System> systems;
};

[[noreturn]] void die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(1);
}

/// Generates and projects every system of `spec`, as the campaign runner
/// does for each scenario.
std::vector<System> generate_systems(const CampaignSpec& spec, const BusParams& params) {
  auto plans = expand_grid(spec);
  if (!plans.ok()) die(plans.error().message);
  std::vector<System> systems;
  for (const ScenarioPlan& plan : plans.value()) {
    auto app = generate_scenario(plan.scenario, params);
    if (!app.ok()) die("generation failed: " + app.error().message);
    auto model = SystemModel::build(std::make_shared<const Application>(std::move(app).value()));
    if (!model.ok()) die("projection failed: " + model.error().message);
    System system{plan, std::move(model).value(), false};
    for (std::size_t c = 0; c < system.model.cluster_count(); ++c) {
      if (system.model.cluster_app(c)->message_count() == 0) system.idle_cluster = true;
    }
    systems.push_back(std::move(system));
  }
  return systems;
}

std::vector<PreparedSlice> prepare(const perfbench::Workload& workload, const BusParams& params) {
  std::vector<PreparedSlice> slices;
  for (const perfbench::Slice& slice : workload.slices) {
    auto spec = parse_campaign_text(slice.spec_text);
    if (!spec.ok()) die("bad slice spec: " + spec.error().message);
    PreparedSlice prepared{spec.value(), slice.seeded, generate_systems(spec.value(), params)};
    for (const System& s : prepared.systems) {
      // A seeded system with a traffic-less cluster would make the failed
      // share depend on the seed; the slices are shaped so it cannot occur.
      if (prepared.seeded && s.idle_cluster) die("seeded system with a traffic-less cluster");
    }
    slices.push_back(std::move(prepared));
  }
  return slices;
}

// ---- timed rounds -----------------------------------------------------------

/// One pass over every slice of the workload through the campaign layer.
struct Round {
  double solve_s = 0;    ///< seconds at reference speed
  double solve_raw = 0;  ///< wall seconds
  long evaluations = 0;
  long attempted = 0;
  long failed = 0;
  /// The campaign's records: per slice, per scenario, per algorithm.
  std::vector<std::vector<ScenarioRecord>> records;
};

Round run_round(const std::vector<PreparedSlice>& slices, const BusParams& params,
                Tracer& tracer) {
  Round round;
  Tracer::Scope round_span(tracer, "round", "workload");
  perfbench::ReferenceClock clock;
  for (const PreparedSlice& slice : slices) {
    Tracer::Scope slice_span(tracer, "slice " + slice.spec.name, "workload");
    std::size_t scenario_span = tracer.enabled() ? tracer.begin("scenario 0", "scenario") : 0;
    auto started = Clock::now();
    CampaignOptions options;
    options.threads = 1;
    options.progress = [&](std::size_t done, std::size_t total) {
      const double raw = seconds_between(started, Clock::now());
      if (tracer.enabled()) tracer.end(scenario_span);
      round.solve_raw += raw;
      clock.add("solve", raw);
      if (tracer.enabled() && done < total) {
        scenario_span = tracer.begin("scenario " + std::to_string(done), "scenario");
      }
      started = Clock::now();
    };
    auto result = CampaignRunner(slice.spec, params).run(options);
    if (!result.ok()) die("campaign failed: " + result.error().message);
    for (const ScenarioRecord& record : result.value().scenarios) {
      for (const AlgorithmRun& run : record.runs) {
        ++round.attempted;
        round.evaluations += run.evaluations;
        if (run.cost >= kInvalidConfigCost) ++round.failed;
      }
    }
    round.records.push_back(std::move(result).value().scenarios);
  }
  clock.flush();
  round.solve_s = clock.seconds("solve");
  return round;
}

/// Every round solves the same inputs, so every record must repeat.
bool same_results(const Round& a, const Round& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t s = 0; s < a.records.size(); ++s) {
    if (a.records[s].size() != b.records[s].size()) return false;
    for (std::size_t i = 0; i < a.records[s].size(); ++i) {
      const auto& ra = a.records[s][i].runs;
      const auto& rb = b.records[s][i].runs;
      if (ra.size() != rb.size()) return false;
      for (std::size_t k = 0; k < ra.size(); ++k) {
        if (ra[k].cost != rb[k].cost || ra[k].evaluations != rb[k].evaluations ||
            ra[k].cache_misses != rb[k].cache_misses) {
          return false;
        }
      }
    }
  }
  return true;
}

// ---- checked re-solve ---------------------------------------------------------

/// Work and time of the checked re-solve, for the per-layer metrics.
struct CheckPass {
  std::vector<std::string> violations;
  std::map<std::string, double> algorithm_seconds;  ///< at reference speed
  std::map<std::string, long> algorithm_solves;
  EvaluatorWorkStats work;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  long evaluations = 0;
  long schedulable = 0;
  long exact_fallbacks = 0;
  /// Analysable winners per system, per slice (the layer replay set).
  std::vector<std::vector<std::vector<SystemConfig>>> winners;
};

void note(CheckPass& pass, const std::string& where, const std::string& violation) {
  if (!violation.empty()) pass.violations.push_back(where + ": " + violation);
}

/// Solves one round again through the solver API, mirroring the campaign
/// runner's settings, and checks every result the campaign reported.
CheckPass check_round(const std::vector<PreparedSlice>& slices, const Round& reported,
                      const BusParams& params, Tracer& tracer) {
  CheckPass pass;
  Tracer::Scope pass_span(tracer, "checked re-solve", "workload");
  perfbench::ReferenceClock clock;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    const PreparedSlice& slice = slices[s];
    const CampaignSpec& spec = slice.spec;
    pass.winners.emplace_back(slice.systems.size());
    PortfolioSpec portfolio;
    if (!spec.portfolio_members.empty()) portfolio.members = spec.portfolio_members;
    portfolio.jobs = 1;
    for (std::size_t i = 0; i < slice.systems.size(); ++i) {
      const System& system = slice.systems[i];
      Tracer::Scope scenario_span(tracer, spec.name + " scenario " + std::to_string(i),
                                  "scenario");
      const auto& runs = reported.records[s][i].runs;
      if (runs.size() != spec.algorithms.size()) {
        note(pass, spec.name, "campaign recorded the wrong number of runs");
        continue;
      }
      const bool exact_cell = system.plan.analysis_mode == AnalysisMode::Exact;
      AnalysisOptions options;
      if (exact_cell) {
        options.mode = AnalysisMode::Exact;
        options.exact.jobs = spec.exact_jobs;
      }
      for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
        const std::string& name = spec.algorithms[a];
        const AlgorithmRun& run = runs[a];
        const std::string where = spec.name + "/" + std::to_string(i) + "/" + name;
        SolveReport report;
        EvaluatorWorkStats work;
        {
          Tracer::Scope solve_span(tracer, "solve " + name, "solve");
          auto optimizer = is_portfolio_algorithm(name)
                               ? OptimizerRegistry::create(name, portfolio)
                               : OptimizerRegistry::create(name);
          if (!optimizer.ok()) die(optimizer.error().message);
          EvaluatorOptions one_thread;
          one_thread.threads = 1;
          CostEvaluator evaluator(system.model, params, options, one_thread);
          SolveRequest request;
          request.seed = system.plan.scenario.base.seed;
          request.max_evaluations = spec.max_evaluations;
          const auto started = Clock::now();
          report = optimizer.value()->solve(evaluator, request);
          clock.add(name, seconds_between(started, Clock::now()));
          pass.algorithm_solves[name] += 1;
          // Multi-cluster solves leave report.profile empty (see CHANGES.md),
          // so the work is read off the evaluators directly.
          work = evaluator.work_stats();
          for (const MemberSolveReport& member : report.members) work += member.profile;
        }
        pass.work += work;
        pass.cache_hits += run.cache_hits;
        pass.cache_misses += run.cache_misses;
        pass.evaluations += run.evaluations;
        pass.exact_fallbacks += run.exact_fallback ? 1 : 0;
        pass.schedulable += run.feasible ? 1 : 0;

        note(pass, where, perfbench::check_budget(run.evaluations, spec.max_evaluations));
        note(pass, where,
             perfbench::check_budget(report.outcome.evaluations, spec.max_evaluations));
        const bool analysable = run.cost < kInvalidConfigCost;
        if (analysable != (report.outcome.cost.value < kInvalidConfigCost)) {
          note(pass, where, "campaign and solver API disagree on whether the solve failed");
          continue;
        }
        if (!analysable) {
          std::cerr << "perfbench: failed solve " << where
                    << (system.idle_cluster ? " (system with a traffic-less cluster)" : "")
                    << "\n";
          continue;
        }
        const SystemConfig& winner = report.outcome.system;
        pass.winners[s][i].push_back(winner);
        {
          Tracer::Scope check_span(tracer, "check", "lane");
          EvaluatorOptions fresh_options;
          fresh_options.cache_enabled = false;
          fresh_options.threads = 1;
          CostEvaluator fresh(system.model, params, options, fresh_options);
          const CostEvaluator::Evaluation eval = fresh.evaluate_system(winner);
          note(pass, where, perfbench::check_cost_reproduces(run.cost, eval));
          note(pass, where, perfbench::check_schedulability(system.model, eval, run.feasible));
          note(pass, where, perfbench::check_flexray_limits(winner, params));
        }
        if (!spec.sim_check && !exact_cell) continue;
        auto layouts = build_system_layouts(system.model, params, winner);
        if (!layouts.ok()) {
          note(pass, where, "winner layout fails: " + layouts.error().message);
          continue;
        }
        AnalysisWorkCounters lane_work;
        std::optional<MulticlusterResult> holistic;
        Expected<MulticlusterResult> bounds = make_error("not analysed");
        {
          Tracer::Scope lane_span(tracer, exact_cell ? "lane exact" : "lane analysis", "lane");
          bounds = analyze_multicluster(system.model, layouts.value(), options, {}, {},
                                        &lane_work);
          if (exact_cell) {
            auto h = analyze_multicluster(system.model, layouts.value(), AnalysisOptions{});
            if (h.ok()) holistic = std::move(h).value();
          }
        }
        pass.work.analysis += lane_work;
        if (!bounds.ok() || (exact_cell && !holistic)) {
          note(pass, where, "winner no longer analyses");
          continue;
        }
        if (spec.sim_check) {
          Tracer::Scope lane_span(tracer, "lane netsim", "lane");
          auto sim = simulate_network(system.model, layouts.value(), bounds.value());
          if (!sim.ok()) {
            note(pass, where, "netsim replay fails: " + sim.error().message);
            continue;
          }
          note(pass, where,
               perfbench::check_replay(system.model, bounds.value(),
                                       holistic ? &*holistic : nullptr, sim.value()));
        }
      }
    }
  }
  clock.flush();
  for (const auto& [name, solves] : pass.algorithm_solves) {
    pass.algorithm_seconds[name] = clock.seconds(name);
  }
  return pass;
}

// ---- output -----------------------------------------------------------------

/// High-water resident set of this process image in MiB, from VmHWM in
/// /proc/self/status.  getrusage's ru_maxrss would not do: it carries the
/// parent's resident set across fork and exec, so under run.py it never
/// reads below the Python launcher's.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  die("no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--trace-file PATH]\n";
    return 2;
  }
  const auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const BusParams params;
  Tracer tracer(args.trace);
  const double start_rss_mb = peak_rss_mib();

  // Set-up: parse every slice, expand its grid, generate and project every
  // system.  One cold set-up from the process start, normalised by the
  // kernel measured right after it.
  std::vector<PreparedSlice> slices;
  {
    Tracer::Scope span(tracer, "setup", "workload");
    slices = prepare(*workload, params);
  }
  const double setup_raw = seconds_between(process_start, Clock::now());
  // The kernel's first call faults its buffers in; the second gives its
  // warm speed at this moment.
  perfbench::time_reference_kernel();
  const double setup_kernel = perfbench::time_reference_kernel();
  const double setup_s = setup_raw * perfbench::kNominalKernelSeconds / setup_kernel;
  // The timed rounds need only the specs: the campaign runner generates its
  // own systems.  Releasing the benchmark's copies keeps them out of
  // peak_rss_mb; the checks generate them again.
  for (PreparedSlice& slice : slices) slice.systems = {};

  // Timed rounds: whole rounds until the run has measured args.seconds.
  std::vector<Round> rounds;
  const auto timed_start = Clock::now();
  {
    Tracer::Scope span(tracer, "workload " + workload->name, "workload");
    while (rounds.empty() || seconds_between(timed_start, Clock::now()) < args.seconds) {
      rounds.push_back(run_round(slices, params, tracer));
    }
  }
  // The reference kernel's buffers are the benchmark's, not the program's.
  const double peak_rss_mb =
      peak_rss_mib() -
      static_cast<double>(perfbench::reference_kernel_bytes()) / (1024.0 * 1024.0);

  std::vector<double> solve_norm;
  std::vector<double> solve_raw;
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  for (const Round& r : rounds) {
    solve_norm.push_back(r.solve_s);
    solve_raw.push_back(r.solve_raw);
    attempted += r.attempted;
    failed += r.failed;
    if (!same_results(rounds.front(), r)) {
      std::cerr << "perfbench: a round's results differ from the first round's\n";
      correct = false;
    }
  }
  const double solve_s = median(solve_norm);
  const double evaluations = static_cast<double>(rounds.front().evaluations);

  // Output checks, after timing.
  for (PreparedSlice& slice : slices) slice.systems = generate_systems(slice.spec, params);
  const CheckPass pass = check_round(slices, rounds.front(), params, tracer);
  for (const std::string& v : pass.violations) std::cerr << "perfbench: check failed: " << v << "\n";
  if (!pass.violations.empty()) correct = false;

  std::fprintf(stderr,
               "perfbench-raw {\"rounds\": %zu, \"setup_s\": %.9g, \"solve_s\": %.9g, "
               "\"evals_per_s\": %.9g, \"setup_kernel_s\": %.9g, \"start_rss_mb\": %.6g}\n",
               rounds.size(), setup_raw, median(solve_raw), evaluations / median(solve_raw),
               setup_kernel, start_rss_mb);

  if (!args.trace) {
    print_result(correct, attempted, failed,
                 {{"setup_s", "s", setup_s},
                  {"solve_s", "s", solve_s},
                  {"evals_per_s", "1/s", evaluations / solve_s},
                  {"peak_rss_mb", "MB", peak_rss_mb}});
    return 0;
  }

  // Traced run: layer replays over the start configurations, the winners
  // and a seeded neighbour trajectory of every system.
  perfbench::LayerInputs inputs;
  inputs.seed = args.seed;
  inputs.regenerate = [&] { prepare(*workload, params); };
  for (std::size_t s = 0; s < slices.size(); ++s) {
    for (std::size_t i = 0; i < slices[s].systems.size(); ++i) {
      const System& system = slices[s].systems[i];
      inputs.exact = inputs.exact || system.plan.analysis_mode == AnalysisMode::Exact;
      inputs.systems.push_back({&system.model, pass.winners[s][i]});
    }
  }
  std::map<std::string, double> layer;
  {
    Tracer::Scope span(tracer, "layer replay", "workload");
    layer = perfbench::replay_layers(inputs, params, tracer);
  }

  const auto& w = pass.work;
  const auto algorithm_ms = [&](const char* name) {
    const auto n = pass.algorithm_solves.find(name);
    return n == pass.algorithm_solves.end()
               ? 0.0
               : 1e3 * pass.algorithm_seconds.at(name) / static_cast<double>(n->second);
  };
  const double lookups = static_cast<double>(pass.cache_hits + pass.cache_misses);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> metrics{
      {"traced.solve_s", "s", solve_s},
      {"gen.systems_ms", "ms", layer.at("gen.systems_ms")},
      {"flexray.layout_us", "us", layer.at("flexray.layout_us")},
      {"analysis.schedule_us", "us", layer.at("analysis.schedule_us")},
      {"analysis.holistic_us", "us", layer.at("analysis.holistic_us")},
      {"analysis.schedule_share", "ratio", layer.at("analysis.schedule_share")},
      {"analysis.dyn_us", "us", layer.at("analysis.dyn_us")},
      {"analysis.cost_us", "us", layer.at("analysis.cost_us")},
      {"analysis.delta_us", "us", layer.at("analysis.delta_us")},
      {"analysis.delta_allocs", "count", layer.at("analysis.delta_allocs")},
      {"analysis.multicluster_us", "us", layer.at("analysis.multicluster_us")},
      {"exact.analyze_ms", "ms", layer.at("exact.analyze_ms")},
      {"netsim.simulate_ms", "ms", layer.at("netsim.simulate_ms")},
      {"netsim.events_per_s", "1/s", layer.at("netsim.events_per_s")},
      {"core.curve_fit_ms", "ms", layer.at("core.curve_fit_ms")},
      {"core.bbc_ms", "ms", algorithm_ms("bbc")},
      {"core.obc-cf_ms", "ms", algorithm_ms("obc-cf")},
      {"core.obc-ee_ms", "ms", algorithm_ms("obc-ee")},
      {"core.sa_ms", "ms", algorithm_ms("sa")},
      {"core.portfolio_ms", "ms", algorithm_ms("portfolio")},
      {"core.full_evals", "count", count(w.full_evaluations)},
      {"core.delta_evals", "count", count(w.delta_evaluations)},
      {"core.cache_hit_ratio", "ratio", lookups > 0 ? count(pass.cache_hits) / lookups : 0.0},
      {"core.invalid_candidates", "count",
       count(pass.cache_misses) - static_cast<double>(pass.evaluations)},
      {"core.schedulable_solves", "count", static_cast<double>(pass.schedulable)},
      {"analysis.schedule_builds", "count", count(w.analysis.schedule_builds)},
      {"analysis.schedule_reuses", "count", count(w.analysis.schedule_reuses)},
      {"analysis.fps_recurrences", "count", count(w.analysis.fps_analyses)},
      {"analysis.fps_skipped", "count", count(w.analysis.fps_skipped)},
      {"analysis.dyn_recurrences", "count", count(w.analysis.dyn_analyses)},
      {"analysis.dyn_skipped", "count", count(w.analysis.dyn_skipped)},
      {"analysis.holistic_iterations", "count", count(w.analysis.holistic_iterations)},
      {"analysis.fixed_point_iterations", "count", count(w.analysis.fixed_point_iterations)},
      {"exact.states", "count", count(w.analysis.exact_states_explored)},
      {"exact.states_deduped", "count", count(w.analysis.exact_states_deduped)},
      {"exact.frontier_reused", "count", count(w.analysis.exact_frontier_reused)},
      {"exact.states_per_s", "1/s", layer.at("exact.states_per_s")},
      {"exact.fallbacks", "count", static_cast<double>(pass.exact_fallbacks)},
  };
  if (!tracer.write(args.trace_file)) {
    std::cerr << "perfbench: cannot write " << args.trace_file << "\n";
    correct = false;
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
