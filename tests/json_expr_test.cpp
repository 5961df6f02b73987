// JSON parser/writer tests and expression-interpreter unit tests.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/cpu_config.h"
#include "core/simulation.h"
#include "expr/expression.h"
#include "expr/value.h"
#include "json/json.h"
#include "ref/progen.h"
#include "server/api.h"
#include "server/state_renderer.h"

namespace rvss {
namespace {

using json::Json;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::Parse("null").value().IsNull());
  EXPECT_EQ(json::Parse("true").value().AsBool(), true);
  EXPECT_EQ(json::Parse("-42").value().AsInt(), -42);
  EXPECT_DOUBLE_EQ(json::Parse("2.5e2").value().AsDouble(), 250.0);
  EXPECT_EQ(json::Parse("\"hi\\nthere\"").value().AsString(), "hi\nthere");
}

TEST(Json, ParsesNestedStructures) {
  auto doc = json::Parse(R"({"a": [1, 2, {"b": false}], "c": "x"})");
  ASSERT_TRUE(doc.ok());
  const Json& root = doc.value();
  ASSERT_TRUE(root.IsObject());
  EXPECT_EQ(root.Find("a")->AsArray().size(), 3u);
  EXPECT_EQ(root.Find("a")->AsArray()[2].GetBool("b", true), false);
  EXPECT_EQ(root.GetString("c", ""), "x");
}

TEST(Json, PreservesKeyOrder) {
  auto doc = json::Parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.ok());
  const auto& object = doc.value().AsObject();
  EXPECT_EQ(object[0].first, "z");
  EXPECT_EQ(object[1].first, "a");
  EXPECT_EQ(object[2].first, "m");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("[1,]").ok());
  EXPECT_FALSE(json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("01x").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
}

TEST(Json, ErrorsCarryLineNumbers) {
  auto doc = json::Parse("{\n  \"a\": 1,\n  !\n}");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().pos.line, 3u);
}

TEST(Json, UnicodeEscapes) {
  auto doc = json::Parse(R"("Aé€")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().AsString(), "A\xc3\xa9\xe2\x82\xac");
  auto surrogate = json::Parse(R"("😀")");
  ASSERT_TRUE(surrogate.ok());
  EXPECT_EQ(surrogate.value().AsString(), "\xf0\x9f\x98\x80");
  EXPECT_FALSE(json::Parse(R"("\ud83d")").ok());  // unpaired surrogate
}

TEST(Json, DumpParseRoundTrip) {
  Json root = Json::MakeObject();
  root.Set("int", std::int64_t{-7});
  root.Set("big", std::int64_t{1} << 40);
  root.Set("float", 2.5);
  root.Set("tiny", 1e-9);
  root.Set("text", "line\n\"quoted\"\ttab");
  Json list = Json::MakeArray();
  list.Append(1);
  list.Append(Json::MakeObject());
  root.Set("list", std::move(list));

  for (const std::string& dumped : {root.Dump(), root.DumpPretty()}) {
    auto reparsed = json::Parse(dumped);
    ASSERT_TRUE(reparsed.ok()) << dumped;
    EXPECT_EQ(reparsed.value(), root) << dumped;
  }
}

TEST(Json, DumpSizeMatchesDump) {
  Json root = Json::MakeObject();
  root.Set("a", 1);
  root.Set("b", "text");
  EXPECT_EQ(root.DumpSize(), root.Dump().size());
}

TEST(Json, NumericEqualityAcrossIntAndDouble) {
  EXPECT_EQ(Json(2), Json(2.0));
  EXPECT_NE(Json(2), Json(2.5));
}

TEST(Json, SetReplacesExistingKey) {
  Json root = Json::MakeObject();
  root.Set("k", 1);
  root.Set("k", 2);
  EXPECT_EQ(root.AsObject().size(), 1u);
  EXPECT_EQ(root.GetInt("k", 0), 2);
}

TEST(Json, DeepNestingLimit) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

// ---- raw nodes: the wire's read of a reply's "state" ------------------------

/// `text` wrapped as the value of a reply's top-level "state".
std::string AsState(const std::string& text) {
  return R"({"status":"ok","stepped":1,"state":)" + text + "}";
}

/// Brackets nested `depth` deep.
std::string Nested(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

/// True when no node under `node` is raw.
bool HasNoRawNode(const Json& node) {
  if (node.type() == json::Type::kRaw) return false;
  if (node.IsArray()) {
    for (const Json& item : node.AsArray()) {
      if (!HasNoRawNode(item)) return false;
    }
  }
  if (node.IsObject()) {
    for (const auto& [key, value] : node.AsObject()) {
      if (!HasNoRawNode(value)) return false;
    }
  }
  return true;
}

/// One grammar: the raw-keeping read and json::Parse accept the same
/// documents, reject the rest with the same error at the same place, and
/// agree on the value. On a canonical document (what Dump writes, so what
/// every worker sends) the raw read dumps the same bytes.
void ExpectSameVerdict(const std::string& doc) {
  const auto dom = json::Parse(doc);
  const auto kept = json::ParseKeepingRaw(doc, "state");
  ASSERT_EQ(dom.ok(), kept.ok()) << doc;
  if (!dom.ok()) {
    EXPECT_EQ(dom.error().kind, kept.error().kind) << doc;
    EXPECT_EQ(dom.error().message, kept.error().message) << doc;
    EXPECT_EQ(dom.error().pos, kept.error().pos)
        << doc << "\n" << dom.error().ToText() << "\n"
        << kept.error().ToText();
    return;
  }
  EXPECT_TRUE(HasNoRawNode(dom.value())) << doc;
  EXPECT_EQ(kept.value(), dom.value()) << doc;
  EXPECT_EQ(json::Parse(kept.value().Dump()).value().Dump(),
            dom.value().Dump())
      << doc;
  if (dom.value().Dump() == doc) {
    EXPECT_EQ(kept.value().Dump(), doc);
  }
}

TEST(JsonRaw, RenderedStatesReadAsParseDoesAndDumpTheSameBytes) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    auto sim = core::Simulation::Create(config::DefaultConfig(),
                                        ref::GenerateProgram(seed),
                                        {{}, "main"});
    ASSERT_TRUE(sim.ok()) << sim.error().ToText();
    core::Simulation& s = *sim.value();
    for (const std::uint64_t cycle : {0, 1, 17, 200}) {
      while (s.cycle() < cycle && s.status() == core::SimStatus::kRunning) {
        s.Step();
      }
      server::RenderOptions options;
      options.includeMemoryDump = cycle == 17;
      json::Json reply = server::OkResponse();
      reply.Set("stepped", 1);
      reply.Set("state", server::RenderJson(s, options));
      const std::string doc = reply.Dump();
      ExpectSameVerdict(doc);
      const auto kept = json::ParseKeepingRaw(doc, "state");
      ASSERT_TRUE(kept.ok());
      EXPECT_EQ(kept.value().Find("state")->type(), json::Type::kRaw);
      EXPECT_EQ(kept.value().Dump(), doc) << "seed " << seed;
      EXPECT_EQ(kept.value().DumpSize(), doc.size());
    }
  }
}

TEST(JsonRaw, EveryTruncationAndByteCorruptionGetsTheSameVerdict) {
  const std::string doc = AsState(
      R"({"cycle":12,"pc":-4,"ipc":0.75,"big":1e300,)"
      R"("text":"lw a0, 4(sp)\t\u00e9\ud83d\ude00","flags":[true,false,null],)"
      R"("rob":[{"seq":1,"x":[]},{}]})");
  ASSERT_TRUE(json::Parse(doc).ok());
  for (std::size_t length = 0; length < doc.size(); ++length) {
    ExpectSameVerdict(doc.substr(0, length));
  }
  for (std::size_t at = 0; at < doc.size(); ++at) {
    for (int byte = 0; byte < 256; ++byte) {
      std::string corrupted = doc;
      corrupted[at] = static_cast<char>(byte);
      ExpectSameVerdict(corrupted);
    }
  }
}

TEST(JsonRaw, MalformedAndEdgeValuesGetTheSameVerdict) {
  const std::vector<std::string> values = {
      // The malformed documents of RejectsMalformedDocuments.
      "", "{", "[1,]", "{\"a\":}", "\"unterminated", "01x", "{} trailing",
      "nul",
      // Bad escapes, lone surrogates, raw control characters.
      R"("\x")", R"("\u12")", R"("\u12g4")", R"("\)", R"("\ud800")",
      R"("\ud800x")", R"("\ud800A")", R"("\udc00")", "\"a\nb\"",
      "\"\x01\"", "\"\x1f\"", "\"\t\"",
      // Numbers.
      "-", "1.", "1e", "1e+", "-x", ".5", "+1", "1.5e-3", "-0", "1E5",
      "99999999999999999999", "tru", "falsey",
      // Structure, including errors past the first line.
      "{\"a\" 1}", "{,}", "[", "{\"a\":1,}", "{\n  \"a\": [1,\n  2,\n  x]}",
      "[\n\n  \"\n\"]", " [ 1 , 2 ] ", "{\"state\":{\"state\":[1,}}",
      // Nesting around the depth limit.
      Nested(254), Nested(255), Nested(256), Nested(257), Nested(258)};
  for (const std::string& value : values) {
    ExpectSameVerdict(value);
    ExpectSameVerdict(AsState(value));
    ExpectSameVerdict("{\"other\":" + value + "}");
  }
  // The depth limit counts the state's own level: nested 256 deep as a
  // state it is accepted, 257 deep rejected, by both reads.
  EXPECT_TRUE(json::ParseKeepingRaw(AsState(Nested(256)), "state").ok());
  EXPECT_TRUE(json::Parse(AsState(Nested(256))).ok());
  const auto tooDeep = json::ParseKeepingRaw(AsState(Nested(257)), "state");
  ASSERT_FALSE(tooDeep.ok());
  EXPECT_EQ(tooDeep.error().message, "nesting too deep");
  EXPECT_FALSE(json::Parse(AsState(Nested(257))).ok());
}

TEST(JsonRaw, ARawNodeIsAnOpaqueLeafThatDumpsItsText) {
  const std::string doc =
      R"({"status":"ok","state" : {"cycle":3, "regs":[1,2.5,"x"]} ,)"
      R"("note":{"state":1}})";
  const auto kept = json::ParseKeepingRaw(doc, "state");
  ASSERT_TRUE(kept.ok()) << kept.error().ToText();
  const Json dom = json::Parse(doc).value();
  const Json* state = kept.value().Find("state");
  ASSERT_NE(state, nullptr);

  // The text from the value's first byte to its last, copied as is.
  EXPECT_EQ(state->type(), json::Type::kRaw);
  EXPECT_STREQ(json::ToString(state->type()), "raw");
  EXPECT_EQ(state->Dump(), R"({"cycle":3, "regs":[1,2.5,"x"]})");
  EXPECT_EQ(kept.value().Dump(),
            R"({"status":"ok","state":{"cycle":3, "regs":[1,2.5,"x"]},)"
            R"("note":{"state":1}})");
  EXPECT_EQ(state->DumpSize(), state->Dump().size());

  // Opaque: no members, no type.
  EXPECT_EQ(state->Find("cycle"), nullptr);
  EXPECT_EQ(state->GetInt("cycle", -1), -1);
  EXPECT_FALSE(state->IsObject() || state->IsArray() || state->IsString() ||
               state->IsNumber() || state->IsBool() || state->IsNull());
  EXPECT_EQ(json::Parse(state->Dump()).value().GetInt("cycle", -1), 3);

  // Pretty output and equality go by the parsed value.
  EXPECT_EQ(kept.value().DumpPretty(), dom.DumpPretty());
  EXPECT_EQ(state->DumpPretty(), dom.Find("state")->DumpPretty());
  EXPECT_EQ(*state, *dom.Find("state"));
  EXPECT_EQ(*dom.Find("state"), *state);
  EXPECT_EQ(kept.value(), dom);
  EXPECT_EQ(kept.value(), json::ParseKeepingRaw(doc, "state").value());
  EXPECT_NE(*state, Json(3));
  EXPECT_NE(*state,
            json::Parse(R"({"cycle":4,"regs":[1,2.5,"x"]})").value());

  // Only a top-level member is kept raw, and json::Parse keeps none.
  EXPECT_EQ(kept.value().Find("note")->GetInt("state", 0), 1);
  EXPECT_TRUE(HasNoRawNode(dom));
  EXPECT_TRUE(
      HasNoRawNode(json::ParseKeepingRaw(R"(["state",{"a":1}])", "state")
                       .value()));
}

// ---- expression values ------------------------------------------------------

using expr::Value;
using expr::ValueKind;

TEST(Value, ConversionPreservesSemantics) {
  EXPECT_EQ(Value::Int(-1).ConvertTo(ValueKind::kUInt).AsUInt32(), 0xffffffffu);
  EXPECT_EQ(Value::Bool(true).ConvertTo(ValueKind::kInt).AsInt32(), 1);
  EXPECT_EQ(Value::Int(-5).ConvertTo(ValueKind::kLong).AsInt64(), -5);
  EXPECT_EQ(Value::UInt(0xffffffffu).ConvertTo(ValueKind::kLong).AsInt64(),
            0xffffffffLL);
  EXPECT_FLOAT_EQ(Value::Int(7).ConvertTo(ValueKind::kFloat).AsFloat(), 7.0f);
  EXPECT_DOUBLE_EQ(Value::Float(2.5f).ConvertTo(ValueKind::kDouble).AsDouble(),
                   2.5);
}

TEST(Value, DivRemFollowRiscvCorners) {
  expr::EvalFlags flags;
  EXPECT_EQ(expr::Div(Value::Int(7), Value::Int(0), flags).AsInt32(), -1);
  EXPECT_TRUE(flags.divByZero);
  flags = {};
  EXPECT_EQ(expr::Rem(Value::Int(7), Value::Int(0), flags).AsInt32(), 7);
  EXPECT_TRUE(flags.divByZero);
  flags = {};
  EXPECT_EQ(expr::Div(Value::Int(std::numeric_limits<std::int32_t>::min()),
                      Value::Int(-1), flags)
                .AsInt32(),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_FALSE(flags.divByZero);
  EXPECT_EQ(expr::Rem(Value::Int(std::numeric_limits<std::int32_t>::min()),
                      Value::Int(-1), flags)
                .AsInt32(),
            0);
}

TEST(Value, FloatMinMaxNanAndSignedZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FLOAT_EQ(expr::Min(Value::Float(nan), Value::Float(3)).AsFloat(), 3.0f);
  EXPECT_FLOAT_EQ(expr::Max(Value::Float(5), Value::Float(nan)).AsFloat(), 5.0f);
  EXPECT_TRUE(std::signbit(
      expr::Min(Value::Float(0.0f), Value::Float(-0.0f)).AsFloat()));
  EXPECT_FALSE(std::signbit(
      expr::Max(Value::Float(0.0f), Value::Float(-0.0f)).AsFloat()));
}

TEST(Value, ComparisonsAreUnorderedOnNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(expr::CmpEq(Value::Float(nan), Value::Float(nan)).AsBool());
  EXPECT_FALSE(expr::CmpLt(Value::Float(nan), Value::Float(1)).AsBool());
  EXPECT_TRUE(expr::CmpNe(Value::Float(nan), Value::Float(nan)).AsBool());
}

TEST(Value, FpToIntConversionClampsAndFlags) {
  expr::EvalFlags flags;
  EXPECT_EQ(expr::F2I(Value::Float(1e20f), flags).AsInt32(),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_TRUE(flags.invalidConversion);
  flags = {};
  EXPECT_EQ(expr::F2I(Value::Float(-1e20f), flags).AsInt32(),
            std::numeric_limits<std::int32_t>::min());
  flags = {};
  EXPECT_EQ(expr::F2U(Value::Float(-3.0f), flags).AsUInt32(), 0u);
  flags = {};
  EXPECT_EQ(expr::F2I(Value::Float(std::numeric_limits<float>::quiet_NaN()),
                      flags)
                .AsInt32(),
            std::numeric_limits<std::int32_t>::max());
  EXPECT_TRUE(flags.invalidConversion);
  flags = {};
  EXPECT_EQ(expr::F2I(Value::Float(-2.9f), flags).AsInt32(), -2);  // RTZ
}

TEST(Value, ShiftsMaskAmounts) {
  EXPECT_EQ(expr::Shl(Value::Int(1), Value::Int(33)).AsInt32(), 2);
  EXPECT_EQ(expr::Shr(Value::Int(-8), Value::Int(1)).AsInt32(), -4);
  EXPECT_EQ(expr::Shr(Value::UInt(0x80000000u), Value::Int(31)).AsUInt32(), 1u);
  EXPECT_EQ(expr::Shr(Value::Long(-1), Value::Int(63)).AsInt64(), -1);
}

TEST(Value, ClassifyMatchesRiscvBits) {
  EXPECT_EQ(expr::Classify(Value::Float(-std::numeric_limits<float>::infinity()))
                .AsInt32(),
            1 << 0);
  EXPECT_EQ(expr::Classify(Value::Float(-1.0f)).AsInt32(), 1 << 1);
  EXPECT_EQ(expr::Classify(Value::Float(-0.0f)).AsInt32(), 1 << 3);
  EXPECT_EQ(expr::Classify(Value::Float(0.0f)).AsInt32(), 1 << 4);
  EXPECT_EQ(expr::Classify(Value::Float(1.0f)).AsInt32(), 1 << 6);
  EXPECT_EQ(expr::Classify(Value::Float(std::numeric_limits<float>::infinity()))
                .AsInt32(),
            1 << 7);
  EXPECT_EQ(expr::Classify(
                Value::Float(std::numeric_limits<float>::quiet_NaN()))
                .AsInt32(),
            1 << 9);
}

// ---- compiled expressions -----------------------------------------------------

isa::InstructionDescription ThreeIntArgs() {
  isa::InstructionDescription def;
  def.name = "test";
  def.args = {
      isa::ArgumentDescription{"rd", isa::ArgType::kInt, true, false},
      isa::ArgumentDescription{"rs1", isa::ArgType::kInt, false, false},
      isa::ArgumentDescription{"rs2", isa::ArgType::kInt, false, false},
  };
  return def;
}

TEST(Expression, EvaluatesWritesAndStackTop) {
  isa::InstructionDescription def = ThreeIntArgs();
  def.interpretableAs = "\\rs1 \\rs2 + \\rd =";
  auto compiled = expr::Expression::Compile(def.interpretableAs, def);
  ASSERT_TRUE(compiled.ok());
  expr::Value args[3] = {Value(), Value::Int(2), Value::Int(40)};
  auto result = compiled.value().Evaluate(args, 0);
  ASSERT_EQ(result.writes.size(), 1u);
  EXPECT_EQ(result.writes[0].argIndex, 0);
  EXPECT_EQ(result.writes[0].value.AsInt32(), 42);
  EXPECT_FALSE(result.stackTop.has_value());
}

TEST(Expression, PcTokenAndResidualStack) {
  isa::InstructionDescription def = ThreeIntArgs();
  def.interpretableAs = "\\pc 8 +";
  auto compiled = expr::Expression::Compile(def.interpretableAs, def);
  ASSERT_TRUE(compiled.ok());
  expr::Value args[3];
  auto result = compiled.value().Evaluate(args, 0x100);
  ASSERT_TRUE(result.stackTop.has_value());
  EXPECT_EQ(result.stackTop->AsInt32(), 0x108);
}

TEST(Expression, CompileRejectsMalformedExpressions) {
  isa::InstructionDescription def = ThreeIntArgs();
  EXPECT_FALSE(expr::Expression::Compile("\\rs1 \\nope +", def).ok());
  EXPECT_FALSE(expr::Expression::Compile("+ \\rs1", def).ok());
  EXPECT_FALSE(expr::Expression::Compile("\\rs1 \\rs2 bogus", def).ok());
  EXPECT_FALSE(expr::Expression::Compile("\\rs1 \\rs2 \\rd", def).ok());
}

TEST(Expression, MulhViaLongIntermediate) {
  isa::InstructionDescription def = ThreeIntArgs();
  def.interpretableAs = "\\rs1 i2l \\rs2 i2l * 32 >> l2i \\rd =";
  auto compiled = expr::Expression::Compile(def.interpretableAs, def);
  ASSERT_TRUE(compiled.ok());
  expr::Value args[3] = {Value(), Value::Int(0x40000000), Value::Int(8)};
  auto result = compiled.value().Evaluate(args, 0);
  ASSERT_EQ(result.writes.size(), 1u);
  EXPECT_EQ(result.writes[0].value.AsInt32(), 2);
}

}  // namespace
}  // namespace rvss
