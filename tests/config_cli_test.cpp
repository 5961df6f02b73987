// Configuration round-trip / validation tests and CLI end-to-end tests.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "config/cpu_config.h"
#include "json/json.h"

namespace rvss {
namespace {

TEST(Config, PresetsValidate) {
  for (auto make : {config::DefaultConfig, config::ScalarConfig,
                    config::WideConfig, config::NoCacheConfig}) {
    config::CpuConfig config = make();
    EXPECT_TRUE(config::Validate(config).empty()) << config.name;
  }
}

TEST(Config, JsonRoundTripIsLossless) {
  config::CpuConfig config = config::WideConfig();
  config.trapOnDivZero = true;
  config.randomSeed = 77;
  config.cache.replacement = config::ReplacementPolicy::kRandom;
  config.cache.storePolicy = config::StorePolicy::kWriteThrough;
  config.predictor.type = config::PredictorType::kOneBit;

  auto reparsed = config::CpuConfigFromJson(config::ToJson(config));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToText();
  const config::CpuConfig& result = reparsed.value();
  EXPECT_EQ(config::ToJson(result).Dump(), config::ToJson(config).Dump());
  EXPECT_EQ(result.name, config.name);
  EXPECT_EQ(result.functionalUnits.size(), config.functionalUnits.size());
  EXPECT_EQ(result.cache.replacement, config.cache.replacement);
  EXPECT_EQ(result.predictor.type, config.predictor.type);
  EXPECT_TRUE(result.trapOnDivZero);
}

TEST(Config, TextRoundTripThroughSerializedJson) {
  const std::string dumped = config::ToJson(config::DefaultConfig()).DumpPretty();
  auto node = json::Parse(dumped);
  ASSERT_TRUE(node.ok());
  auto config = config::CpuConfigFromJson(node.value());
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config::Validate(config.value()).empty());
}

TEST(Config, ValidationCollectsAllProblems) {
  config::CpuConfig config = config::DefaultConfig();
  config.buffers.fetchWidth = 0;
  config.buffers.robSize = 0;
  config.cache.lineSizeBytes = 33;          // not a power of two
  config.cache.associativity = 1000;        // exceeds lineCount
  config.predictor.btbSize = 7;             // not a power of two
  config.predictor.defaultState = 9;        // out of range
  std::vector<Error> problems = config::Validate(config);
  EXPECT_GE(problems.size(), 6u);
}

TEST(Config, MissingFunctionalUnitsAreReported) {
  config::CpuConfig config = config::DefaultConfig();
  config.functionalUnits.clear();
  std::vector<Error> problems = config::Validate(config);
  EXPECT_GE(problems.size(), 4u);  // FX, LS, branch, memory all missing
}

TEST(Config, FpUnitRejectsIntegerOps) {
  config::CpuConfig config = config::DefaultConfig();
  config::FunctionalUnitConfig bad;
  bad.kind = config::FunctionalUnitConfig::Kind::kFp;
  bad.operations = {{isa::OpClass::kIntAlu, 1}};
  config.functionalUnits.push_back(bad);
  EXPECT_FALSE(config::Validate(config).empty());
}

TEST(Config, UnknownEnumValuesRejected) {
  auto parsed = json::Parse(
      R"({"cache": {"replacement": "MRU"}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(config::CpuConfigFromJson(parsed.value()).ok());
}

TEST(Config, IntegerOutsideItsFieldIsRefused) {
  // Each of these once narrowed silently (robSize read as 64, the load
  // buffer as 1), and checkConfig reported no problem with either.
  const std::pair<const char*, const char*> refused[] = {
      {R"({"buffers": {"robSize": 4294967360}})",
       "buffers.robSize: 4294967360 is out of range [0, 4294967295]"},
      {R"({"memory": {"loadBufferSize": -4294967295}})",
       "memory.loadBufferSize: -4294967295 is out of range [0, 4294967295]"},
      {R"({"checkpoint": {"maxTotalBytes": -1}})",
       "checkpoint.maxTotalBytes: -1 is out of range "
       "[0, 9223372036854775807]"},
      {R"({"functionalUnits": [{"kind": "LS", "latency": 1},
           {"kind": "FX", "operations": [{"opClass": "kIntAlu",
                                          "latency": 1e10}]}]})",
       "functionalUnits[1].operations[0].latency: 1e+10 is out of range "
       "[0, 4294967295]"},
  };
  for (const auto& [text, message] : refused) {
    auto node = json::Parse(text);
    ASSERT_TRUE(node.ok());
    auto config = config::CpuConfigFromJson(node.value());
    ASSERT_FALSE(config.ok()) << text;
    EXPECT_EQ(config.error().kind, ErrorKind::kConfig);
    EXPECT_EQ(config.error().message, message);
  }
}

/// Sets the `n`th integer under `node`, in document order, to `value`;
/// returns the key holding it, or "" when there are fewer integers.
std::string SetNthInteger(json::Json& node, int& n, std::int64_t value) {
  for (auto& [key, member] : node.AsObject()) {
    if (member.IsInt() && n-- == 0) {
      member = json::Json(value);
      return key;
    }
    std::string found;
    if (member.IsObject()) found = SetNthInteger(member, n, value);
    for (json::Json& element : member.AsArray()) {
      if (found.empty()) found = SetNthInteger(element, n, value);
    }
    if (!found.empty()) return found;
  }
  return "";
}

TEST(Config, EveryIntegerReadsUpToItsFieldsMaximum) {
  // A config's integers are 32- or 64-bit unsigned fields: 2^32 - 1 fits
  // each of them, 2^32 only the 64-bit ones, which read up to 2^63 - 1.
  const std::set<std::string> wide = {"coreClockHz", "memClockHz",
                                      "intervalCycles", "maxTotalBytes",
                                      "randomSeed"};
  const json::Json base = config::ToJson(config::DefaultConfig());
  int integers = 0;
  for (int i = 0;; ++i) {
    for (const std::int64_t value :
         {std::int64_t{4294967295}, std::int64_t{4294967296},
          std::int64_t{9223372036854775807}}) {
      json::Json doc = base;
      int n = i;
      const std::string key = SetNthInteger(doc, n, value);
      if (key.empty()) {
        EXPECT_GE(integers, 27);  // the scalar keys, then unit latencies
        return;
      }
      auto config = config::CpuConfigFromJson(doc);
      if (value == 4294967295 || wide.contains(key)) {
        ASSERT_TRUE(config.ok()) << key << " = " << value;
        EXPECT_EQ(config::ToJson(config.value()), doc) << key;
      } else {
        ASSERT_FALSE(config.ok()) << key << " = " << value;
        EXPECT_NE(config.error().message.find(key), std::string::npos);
      }
    }
    ++integers;
  }
}

// ---- CLI ----------------------------------------------------------------------

class CliTest : public ::testing::Test {
 protected:
  std::string WriteTemp(const std::string& name, const std::string& content) {
    std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
  }

  int Run(std::vector<std::string> args) {
    args.insert(args.begin(), "rvss-cli");
    out_.str("");
    err_.str("");
    return cli::RunCli(args, out_, err_);
  }

  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, RunsAssemblyAndPrintsTextStats) {
  std::string path = WriteTemp("prog.s",
                               "main:\n li a0, 2\n addi a0, a0, 3\n ret\n");
  EXPECT_EQ(Run({"--asm", path, "--entry", "main"}), 0);
  EXPECT_NE(out_.str().find("committed instructions"), std::string::npos);
  EXPECT_NE(out_.str().find("finish reason: main returned"),
            std::string::npos);
}

TEST_F(CliTest, JsonOutputParses) {
  std::string path = WriteTemp("prog2.s", "li a0, 1\nret\n");
  EXPECT_EQ(Run({"--asm", path, "--format", "json"}), 0);
  auto parsed = json::Parse(out_.str());
  ASSERT_TRUE(parsed.ok()) << out_.str();
  EXPECT_GT(parsed.value().Find("statistics")->GetInt("cycles", 0), 0);
}

TEST_F(CliTest, CompilesCInput) {
  std::string path = WriteTemp(
      "prog.c", "int main() { int s = 0; for (int i = 1; i <= 4; i++) s += i;"
                " return s; }");
  EXPECT_EQ(Run({"--c", path, "--opt", "2", "--format", "json"}), 0);
  auto parsed = json::Parse(out_.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("finishReason", ""), "main returned");
}

TEST_F(CliTest, CustomConfigFile) {
  std::string program = WriteTemp("prog3.s", "main:\n li a0, 1\n ret\n");
  std::string configPath =
      WriteTemp("config.json", config::ToJson(config::ScalarConfig()).Dump());
  EXPECT_EQ(Run({"--asm", program, "--config", configPath, "--entry", "main"}),
            0);
}

TEST_F(CliTest, FastForwardSkipsThePrefixOnTheIss) {
  std::string path = WriteTemp(
      "ff.s",
      "main:\n li t0, 500\nloop:\n addi t1, t1, 1\n addi t0, t0, -1\n"
      " bnez t0, loop\n ret\n");
  EXPECT_EQ(Run({"--asm", path, "--entry", "main", "--fast-forward-to",
                 "1000", "--format", "json"}),
            0);
  auto parsed = json::Parse(out_.str());
  ASSERT_TRUE(parsed.ok()) << out_.str();
  EXPECT_EQ(parsed.value()
                .Find("statistics")
                ->GetInt("fastForwardedInstructions", 0),
            1000);
  EXPECT_EQ(parsed.value().GetString("finishReason", ""), "main returned");

  // The flag is parse-checked and refuses the sharded path.
  EXPECT_EQ(Run({"--asm", path, "--fast-forward-to", "-5"}), 1);
  EXPECT_EQ(Run({"--asm", path, "--fast-forward-to"}), 1);
  EXPECT_EQ(Run({"--asm", path, "--fast-forward-to", "10", "--workers", "2"}),
            1);
}

TEST_F(CliTest, UsageErrors) {
  EXPECT_EQ(Run({}), 1);                          // no input
  EXPECT_EQ(Run({"--asm", "a", "--c", "b"}), 1);  // both inputs
  EXPECT_EQ(Run({"--bogus"}), 1);
  EXPECT_EQ(Run({"--asm"}), 1);                   // missing value
  EXPECT_EQ(Run({"--asm", "/no/such/file.s"}), 1);
}

TEST_F(CliTest, SimulationErrorsReturnTwo) {
  std::string path = WriteTemp("bad.s", "bogus a0, a1\n");
  // Assembly error surfaces through Simulation::Create.
  EXPECT_EQ(Run({"--asm", path}), 2);
}

TEST_F(CliTest, MemoryDumpExports) {
  std::string program =
      WriteTemp("prog4.s",
                ".data\nv: .word 0\n.text\nmain:\n li a1, 9\n sw a1, v, t0\n ret\n");
  std::string dumpPath = ::testing::TempDir() + "dump.csv";
  EXPECT_EQ(Run({"--asm", program, "--entry", "main", "--dump-csv", dumpPath}),
            0);
  std::ifstream dump(dumpPath);
  ASSERT_TRUE(dump.good());
  std::string firstLine;
  std::getline(dump, firstLine);
  EXPECT_EQ(firstLine, "address,value");
}

TEST_F(CliTest, HelpPrintsUsage) {
  EXPECT_EQ(Run({"--help"}), 0);
  EXPECT_NE(out_.str().find("rvss-cli"), std::string::npos);
}

}  // namespace
}  // namespace rvss
