// Golden-file conformance of the solve-report JSON schema: solves fixtures
// drawn from specs/smoke.campaign and byte-compares write_solve_json —
// exactly what `flexopt_cli solve --json` emits — against the checked-in
// expectations in tests/golden/.  An intentional schema change regenerates
// them with FLEXOPT_UPDATE_GOLDEN=1 (the test then fails once, asking for
// a re-run, so a stale environment variable cannot silently pass CI).
//
// This is the guard PRs 1-3 lacked: report fields silently renamed,
// reordered, or dropped now fail here instead of surfacing downstream in
// whoever parses the JSON artifacts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/core/portfolio.hpp"
#include "flexopt/io/solve_report_json.hpp"

namespace flexopt {
namespace {

std::string source_path(const std::string& relative) {
  return std::string(FLEXOPT_SOURCE_DIR) + "/" + relative;
}

bool update_goldens() {
  const char* v = std::getenv("FLEXOPT_UPDATE_GOLDEN");
  return v != nullptr && v[0] == '1';
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

/// Byte-compares `actual` against the golden file, or rewrites it in
/// update mode.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = source_path("tests/golden/" + name);
  if (update_goldens()) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out) << "cannot write " << path;
    FAIL() << "regenerated " << name << "; unset FLEXOPT_UPDATE_GOLDEN and re-run";
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " (regenerate with FLEXOPT_UPDATE_GOLDEN=1)";
  EXPECT_EQ(expected, actual) << "solve-report schema drifted from " << name
                              << "; if intentional, regenerate with "
                                 "FLEXOPT_UPDATE_GOLDEN=1";
}

/// The smoke-campaign fixture scenarios, generated exactly like
/// `flexopt_cli campaign specs/smoke.campaign` would.
struct Fixture {
  Application app;
  BusParams params;
  std::uint64_t seed = 0;
  long budget = 0;
};

Fixture smoke_fixture(std::size_t index) {
  std::ifstream in(source_path("specs/smoke.campaign"));
  auto spec = parse_campaign(in);
  if (!spec.ok()) throw std::runtime_error(spec.error().message);
  auto plans = expand_grid(spec.value());
  if (!plans.ok()) throw std::runtime_error(plans.error().message);
  if (index >= plans.value().size()) throw std::runtime_error("fixture index out of range");
  Fixture fixture;
  fixture.params = BusParams{};
  fixture.seed = plans.value()[index].scenario.base.seed;
  fixture.budget = spec.value().max_evaluations;
  auto app = generate_scenario(plans.value()[index].scenario, fixture.params);
  if (!app.ok()) throw std::runtime_error(app.error().message);
  fixture.app = std::move(app).value();
  return fixture;
}

std::string solve_to_json(const Fixture& fixture, const std::string& algorithm,
                          const OptimizerParams& params, long budget,
                          EvaluatorOptions evaluator_options = {}) {
  auto optimizer = OptimizerRegistry::create(algorithm, params);
  if (!optimizer.ok()) throw std::runtime_error(optimizer.error().message);
  CostEvaluator evaluator(fixture.app, fixture.params, AnalysisOptions{}, evaluator_options);
  SolveRequest request;
  request.seed = fixture.seed;
  request.max_evaluations = budget;
  const SolveReport report = optimizer.value()->solve(evaluator, request);
  return write_solve_json(fixture.app, algorithm, report) + "\n";
}

TEST(SolveGolden, BbcReportMatchesGolden) {
  const Fixture fixture = smoke_fixture(0);
  expect_golden("solve_smoke0_bbc.json",
                solve_to_json(fixture, "bbc", {}, fixture.budget));
}

TEST(SolveGolden, ObcCfReportMatchesGolden) {
  const Fixture fixture = smoke_fixture(5);  // the pipeline half of the grid
  expect_golden("solve_smoke5_obccf.json",
                solve_to_json(fixture, "obc-cf", {}, fixture.budget));
}

TEST(SolveGolden, PortfolioReportMatchesGolden) {
  const Fixture fixture = smoke_fixture(0);
  PortfolioSpec spec;
  spec.members = {"sa", "sa", "obc-cf", "bbc"};
  expect_golden("solve_smoke0_portfolio.json",
                solve_to_json(fixture, "portfolio", spec, 160));
}

// The report is a function of (system, algorithm, seed, budget): the
// evaluator's pool size must not leak into any field — not the winner, and
// not the counters that say which analysis path ran.
TEST(SolveGolden, ReportDoesNotDependOnTheThreadCount) {
  for (const std::size_t index : {std::size_t{0}, std::size_t{5}}) {
    const Fixture fixture = smoke_fixture(index);
    for (const char* algorithm : {"bbc", "obc-ee", "obc-cf", "sa", "portfolio"}) {
      EvaluatorOptions one;
      one.threads = 1;
      EvaluatorOptions four;
      four.threads = 4;
      EXPECT_EQ(solve_to_json(fixture, algorithm, {}, fixture.budget, one),
                solve_to_json(fixture, algorithm, {}, fixture.budget, four))
          << "fixture " << index << " " << algorithm;
    }
  }
}

}  // namespace
}  // namespace flexopt
