// Hostile-input lane for the two text front doors: parse_system (system
// files) and parse_campaign_text (campaign specs).  Seeded mutators derive
// about 2,000 mutants per parser from well-formed inputs — write_system of
// the smoke-campaign fixtures and the checked-in specs/*.campaign files —
// by byte flips, byte and token insertions, span deletions, duplicated
// tokens and hostile numbers (0, -1, 2^31, 2^63-1, ...).  Every mutant must
// either parse or return an Expected error carrying a diagnostic; a crash,
// a sanitizer report or a hang fails the lane (the sanitize CI job runs it
// under ASan/UBSan).  Mutants that once crashed a parser are kept below as
// fixed regression cases.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flexopt/campaign/campaign.hpp"
#include "flexopt/campaign/spec_format.hpp"
#include "flexopt/gen/scenario.hpp"
#include "flexopt/io/system_format.hpp"
#include "flexopt/util/rng.hpp"

namespace flexopt {
namespace {

constexpr int kMutantsPerParser = 2000;

std::string source_path(const std::string& relative) {
  return std::string(FLEXOPT_SOURCE_DIR) + "/" + relative;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// write_system of every specs/smoke.campaign fixture.
std::vector<std::string> system_corpus() {
  auto spec = parse_campaign_text(read_file(source_path("specs/smoke.campaign")));
  EXPECT_TRUE(spec.ok());
  std::vector<std::string> corpus;
  if (!spec.ok()) return corpus;
  auto plans = expand_grid(spec.value());
  EXPECT_TRUE(plans.ok());
  if (!plans.ok()) return corpus;
  const BusParams params;
  for (const ScenarioPlan& plan : plans.value()) {
    auto app = generate_scenario(plan.scenario, params);
    if (app.ok()) corpus.push_back(write_system(app.value(), params));
  }
  return corpus;
}

/// Every checked-in campaign spec.
std::vector<std::string> campaign_corpus() {
  std::vector<std::string> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(source_path("specs"))) {
    if (entry.path().extension() == ".campaign") corpus.push_back(read_file(entry.path()));
  }
  return corpus;
}

/// Numbers that probe sign, width and overflow handling.
const std::vector<std::string>& hostile_numbers() {
  static const std::vector<std::string> numbers{
      "0",
      "-1",
      "1",
      "2147483647",
      "2147483648",
      "4294967296",
      "9223372036854775807",
      "-9223372036854775808",
      "18446744073709551616",
      "99999999999999999999999",
      "1e308",
      "nan",
  };
  return numbers;
}

/// Fragments worth splicing in: keywords and attributes of both formats.
const std::vector<std::string>& dictionary() {
  static const std::vector<std::string> words{
      "node",       "gateway",     "backend",  "graph",    "task",      "message",
      "dependency", "param",       "tt",       "et",       "tsn",       "flexray",
      "cluster=",   "bridges=",    "period=",  "deadline=", "wcet=",    "bytes=",
      "prio=",      "offset=",     "from=",    "to=",      "graph=",    "node=",
      "gd_bit=",    "nodes",       "clusters", "periods",  "replicates", "budget",
      "seed",       "portfolio_members", "4096xsa", "0xsa", ":",        "=",
      "#",          "\n",          ",",        "ms",       "us",        "s",
  };
  return words;
}

/// [begin, end) of every maximal run of non-space bytes.
std::vector<std::pair<std::size_t, std::size_t>> tokens_of(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) ++i;
    const std::size_t begin = i;
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) == 0) ++i;
    if (i > begin) out.emplace_back(begin, i);
  }
  return out;
}

/// [begin, end) of every maximal run of decimal digits.
std::vector<std::pair<std::size_t, std::size_t>> numbers_of(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) ++i;
    out.emplace_back(begin, i);
  }
  return out;
}

/// Applies one random mutation in place.
void mutate_once(std::string& text, Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:  // byte flip
      if (!text.empty()) text[rng.index(text.size())] = static_cast<char>(rng.uniform_int(0, 255));
      return;
    case 1:  // byte insertion
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(rng.index(text.size() + 1)),
                  static_cast<char>(rng.uniform_int(0, 255)));
      return;
    case 2: {  // span deletion
      if (text.empty()) return;
      const std::size_t at = rng.index(text.size());
      text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
      return;
    }
    case 3: {  // duplicated token
      const auto tokens = tokens_of(text);
      if (tokens.empty()) return;
      const auto [begin, end] = tokens[rng.index(tokens.size())];
      const std::string token = text.substr(begin, end - begin);
      text.insert(end, token);
      text.insert(end, 1, ' ');
      return;
    }
    case 4: {  // hostile number in place of an existing one
      const auto numbers = numbers_of(text);
      const std::string& number = hostile_numbers()[rng.index(hostile_numbers().size())];
      if (numbers.empty()) {
        text += ' ';
        text += number;
        return;
      }
      const auto [begin, end] = numbers[rng.index(numbers.size())];
      text.replace(begin, end - begin, number);
      return;
    }
    default: {  // dictionary fragment, optionally followed by a hostile number
      std::string fragment(1, ' ');
      fragment += dictionary()[rng.index(dictionary().size())];
      if (rng.chance(0.5)) {
        fragment += hostile_numbers()[rng.index(hostile_numbers().size())];
      }
      text.insert(rng.index(text.size() + 1), fragment);
      return;
    }
  }
}

/// Runs `parse` over kMutantsPerParser mutants of `corpus`; returns how many
/// parsed cleanly (the rest must carry a diagnostic).
template <typename Parse>
int fuzz(const std::vector<std::string>& corpus, std::uint64_t seed, Parse&& parse) {
  Rng rng(seed);
  int parsed = 0;
  for (int i = 0; i < kMutantsPerParser; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < mutations; ++k) mutate_once(text, rng);
    const auto result = parse(text);
    if (result.ok()) {
      ++parsed;
    } else {
      EXPECT_FALSE(result.error().message.empty()) << "mutant " << i << ":\n" << text;
    }
  }
  return parsed;
}

TEST(HostileInput, SystemParserSurvivesMutants) {
  const std::vector<std::string> corpus = system_corpus();
  ASSERT_FALSE(corpus.empty());
  for (const std::string& text : corpus) ASSERT_TRUE(parse_system_text(text).ok());
  const int parsed = fuzz(corpus, 0x5157u, [](const std::string& text) {
    return parse_system_text(text);
  });
  std::printf("system parser: %d of %d mutants parsed\n", parsed, kMutantsPerParser);
  // Most mutants must be rejected, and some must survive: otherwise the
  // mutator stopped exercising one of the two outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerParser);
}

TEST(HostileInput, CampaignParserSurvivesMutants) {
  const std::vector<std::string> corpus = campaign_corpus();
  ASSERT_GE(corpus.size(), 3u);
  for (const std::string& text : corpus) ASSERT_TRUE(parse_campaign_text(text).ok());
  const int parsed = fuzz(corpus, 0xca3bu, [](const std::string& text) {
    return parse_campaign_text(text);
  });
  std::printf("campaign parser: %d of %d mutants parsed\n", parsed, kMutantsPerParser);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerParser);
}

// Mutants that crashed a parser before it was fixed: a duration whose
// scaling wrapped a signed 64-bit value (undefined behaviour), and cluster
// indices that sized per-cluster containers by the index itself (a 2^31
// index asked for gigabytes).
TEST(HostileInput, RegressionMutantsReportErrors) {
  const std::string tail =
      "graph G et period=20ms\n"
      "task t graph=G node=A wcet=10us prio=1\n";
  const std::vector<std::string> systems{
      "node A\ngraph G et period=9223372036854775807s\ntask t graph=G node=A wcet=1us\n",
      "node A\ngraph G et period=9223372036854775ms\ntask t graph=G node=A wcet=1us\n",
      "node A\nbackend 2147483647 tsn\n" + tail,
      "node A cluster=2147483647\n" + tail,
      "node A\ngateway B cluster=0 bridges=2147483647\n" + tail,
  };
  for (const std::string& text : systems) {
    const auto result = parse_system_text(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_FALSE(result.error().message.empty());
  }
  const auto campaign = parse_campaign_text("periods 9223372036854775807s\n");
  ASSERT_FALSE(campaign.ok());
  EXPECT_NE(campaign.error().message.find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace flexopt
