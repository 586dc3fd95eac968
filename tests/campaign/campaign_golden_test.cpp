// Byte-exact conformance of a campaign run: solves the Fig. 9-shaped slice
// tests/golden/campaign_fig9mini.campaign exactly like
// `flexopt_cli campaign <spec> --threads 1 --json --csv` and byte-compares
// both reports against the checked-in expectations.  Every algorithm's
// result flows into these bytes — the list scheduler's FPS-impact
// placement, the holistic fixed point, OBC-CF's curve fit, OBC-EE's sweep
// and SA's walk — so a refactor that claims to be result-preserving must
// leave them unchanged.  An intentional result change regenerates them
// with FLEXOPT_UPDATE_GOLDEN=1 (the test then fails once, asking for a
// re-run, so a stale environment variable cannot silently pass CI).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "flexopt/campaign/report.hpp"
#include "flexopt/campaign/spec_format.hpp"

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
  EXPECT_EQ(expected, actual) << "campaign results drifted from " << name
                              << "; if intentional, regenerate with "
                                 "FLEXOPT_UPDATE_GOLDEN=1";
}

TEST(CampaignGolden, Fig9SliceReportsMatchGolden) {
  std::ifstream in(source_path("tests/golden/campaign_fig9mini.campaign"));
  ASSERT_TRUE(in);
  auto spec = parse_campaign(in);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  CampaignRunner runner(spec.value(), BusParams{});
  CampaignOptions options;
  options.threads = 1;
  auto result = runner.run(options);
  ASSERT_TRUE(result.ok()) << result.error().message;
  expect_golden("campaign_fig9mini.csv", write_campaign_csv(result.value()));
  expect_golden("campaign_fig9mini.json", write_campaign_json(result.value()));
}

}  // namespace
}  // namespace flexopt
