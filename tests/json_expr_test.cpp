// JSON parser/writer tests and expression-interpreter unit tests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_common.h"
#include "cc/compiler.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "expr/expression.h"
#include "expr/value.h"
#include "isa/instruction_set.h"
#include "isa/instruction_set_json.h"
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

// ---- json::Writer: the one serializer ---------------------------------------

TEST(JsonWriter, WritesTheBytesDumpWritesForTheSameDom) {
  // Quotes, backslashes, every escaped control character, DEL and
  // multi-byte UTF-8 (é, €, an astral emoji), as a key and as a value.
  const std::string tricky =
      "q\"b\\s/\n\r\t\b\f\x01\x1f\x7f \xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";
  const std::int64_t ints[] = {std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max(), 0,
                               -1};
  const double doubles[] = {0.1, -0.0, 1e300, 1e-7, 2.5, -3.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};

  json::Writer w;
  Json dom = Json::MakeObject();
  w.BeginObject();
  w.Key("emptyObject").BeginObject();
  w.EndObject();
  dom.Set("emptyObject", Json::MakeObject());
  w.Key("emptyArray").BeginArray();
  w.EndArray();
  dom.Set("emptyArray", Json::MakeArray());
  w.Key(tricky).String(tricky);
  dom.Set(tricky, tricky);
  w.Key("ints").BeginArray();
  Json intList = Json::MakeArray();
  for (const std::int64_t value : ints) {
    w.Int(value);
    intList.Append(value);
  }
  w.EndArray();
  dom.Set("ints", std::move(intList));
  w.Key("doubles").BeginArray();
  Json doubleList = Json::MakeArray();
  for (const double value : doubles) {
    w.Double(value);
    doubleList.Append(value);
  }
  w.EndArray();
  dom.Set("doubles", std::move(doubleList));
  // [[], {}, [{"a": [null, true, false]}]]
  w.Key("nested").BeginArray();
  w.BeginArray();
  w.EndArray();
  w.BeginObject();
  w.EndObject();
  w.BeginArray();
  w.BeginObject();
  w.Key("a").BeginArray();
  w.Null();
  w.Bool(true);
  w.Bool(false);
  w.EndArray();
  w.EndObject();
  w.EndArray();
  w.EndArray();
  dom.Set("nested",
          json::Parse(R"([[],{},[{"a":[null,true,false]}]])").value());
  w.EndObject();
  const std::string written = std::move(w).Finish().Dump();

  EXPECT_EQ(written, dom.Dump());
  // The formatting itself, pinned.
  const std::string escaped =
      R"("q\"b\\s/\n\r\t\b\f\u0001\u001f)"
      "\x7f \xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\"";
  EXPECT_EQ(written,
            R"({"emptyObject":{},"emptyArray":[],)" + escaped + ":" + escaped +
                R"(,"ints":[-9223372036854775808,9223372036854775807,0,-1],)"
                R"("doubles":[0.1,-0.0,1e+300,1e-07,2.5,-3.0,null,1e999,)"
                R"(-1e999],"nested":[[],{},[{"a":[null,true,false]}]]})");
  EXPECT_EQ(json::Parse(written).value().Find(tricky)->AsString(), tricky);
}

TEST(JsonWriter, FinishReturnsARawNodeWithTheJsonHSemantics) {
  json::Writer w;
  w.BeginObject();
  w.Key("cycle").Int(3);
  w.Key("regs").BeginArray();
  w.Int(1);
  w.Double(2.5);
  w.String("x");
  w.EndArray();
  w.EndObject();
  const Json raw = std::move(w).Finish();
  const std::string text = R"({"cycle":3,"regs":[1,2.5,"x"]})";
  const Json dom = json::Parse(text).value();

  EXPECT_EQ(raw.type(), json::Type::kRaw);
  EXPECT_EQ(raw.Dump(), text);
  // Opaque: no members, no type.
  EXPECT_EQ(raw.Find("cycle"), nullptr);
  EXPECT_EQ(raw.GetInt("cycle", -1), -1);
  EXPECT_FALSE(raw.IsObject() || raw.IsArray() || raw.IsString() ||
               raw.IsNumber() || raw.IsBool() || raw.IsNull());
  // Pretty output and equality go by the parsed value.
  EXPECT_EQ(raw.DumpPretty(), dom.DumpPretty());
  EXPECT_EQ(raw, dom);
  EXPECT_EQ(dom, raw);
  EXPECT_NE(raw, json::Parse(R"({"cycle":4,"regs":[1,2.5,"x"]})").value());
  EXPECT_NE(raw, Json(3));

  // Inside a DOM it dumps its text in place.
  Json reply = server::OkResponse();
  reply.Set("state", raw);
  EXPECT_EQ(reply.Dump(), R"({"status":"ok","state":)" + text + "}");
  EXPECT_EQ(reply.DumpPretty(), json::Parse(reply.Dump()).value().DumpPretty());
}

// ---- golden renders: the bytes of a rendered state, pinned ------------------

std::uint64_t Fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct Render {
  std::string label;
  std::string text;
};

/// Every render the golden table pins, in table order: the differential
/// fuzz's default progen seeds on three machine shapes (with the memory
/// dump at cycle 17 and the whole log at cycle 1000), the interactive
/// benches' integer and floating-point C programs, a fast-forwarded
/// session, and two pretty-printed documents.
std::vector<Render> GoldenRenders() {
  std::vector<Render> renders;
  const auto stepTo = [](core::Simulation& sim, std::uint64_t cycle) {
    while (sim.cycle() < cycle && sim.status() == core::SimStatus::kRunning) {
      sim.Step();
    }
  };
  const std::pair<const char*, config::CpuConfig> configs[] = {
      {"default", config::DefaultConfig()},
      {"scalar", config::ScalarConfig()},
      {"wide", config::WideConfig()}};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string source = ref::GenerateProgram(seed);
    for (const auto& [name, config] : configs) {
      auto sim = core::Simulation::Create(config, source, {{}, "main"});
      EXPECT_TRUE(sim.ok()) << sim.error().ToText();
      if (!sim.ok()) continue;
      for (const std::uint64_t cycle : {0, 1, 17, 200, 1000}) {
        stepTo(*sim.value(), cycle);
        server::RenderOptions options;
        options.includeMemoryDump = cycle == 17;
        if (cycle == 1000) options.logTail = 1u << 20;
        renders.push_back({"seed" + std::to_string(seed) + "/" + name +
                               "/cycle" + std::to_string(cycle),
                           server::RenderJson(*sim.value(), options).Dump()});
      }
    }
  }
  for (const auto& [name, program] :
       {std::pair{"sort", bench::kSortC}, std::pair{"float", bench::kFloatC}}) {
    auto compiled = cc::Compile(program, cc::CompileOptions{2});
    EXPECT_TRUE(compiled.ok()) << compiled.error().ToText();
    if (!compiled.ok()) continue;
    for (const bool fastForward : {false, true}) {
      auto sim = core::Simulation::Create(
          config::DefaultConfig(), compiled.value().assembly, {{}, "main"});
      EXPECT_TRUE(sim.ok()) << sim.error().ToText();
      if (!sim.ok()) continue;
      core::Simulation& s = *sim.value();
      const std::string label = std::string(name) + (fastForward ? "/ff" : "");
      if (fastForward) {
        EXPECT_TRUE(s.FastForwardTo(1000).ok());
        s.Run(25);
        renders.push_back({label + "/cycle25",
                           server::RenderJson(s).Dump()});
        continue;
      }
      stepTo(s, 300);
      renders.push_back({label + "/cycle300", server::RenderJson(s).Dump()});
      s.Run();
      renders.push_back({label + "/end", server::RenderJson(s).Dump()});
    }
  }
  renders.push_back(
      {"config/pretty", config::ToJson(config::DefaultConfig()).DumpPretty()});
  renders.push_back(
      {"isa/pretty", isa::ToJson(isa::InstructionSet::Default()).DumpPretty()});
  return renders;
}

/// The apiVersion 2 shape of a v3 render, the shape the pins were taken
/// in: each `seq` in a container or in a busy unit's `instruction`
/// becomes its object from `instructions`, and that table is dropped. A
/// `seq` the table lists twice, or does not list, is an error.
Result<std::string> ExpandToV2(std::string_view v3) {
  RVSS_ASSIGN_OR_RETURN(Json state, json::Parse(v3));
  json::Object& fields = state.AsObject();
  const auto table = std::find_if(
      fields.begin(), fields.end(),
      [](const auto& field) { return field.first == "instructions"; });
  if (table == fields.end()) {
    return Error{ErrorKind::kInvalidArgument, "no instructions table"};
  }
  std::map<std::int64_t, Json> bySeq;
  for (Json& inst : table->second.AsArray()) {
    const std::int64_t seq = inst.GetInt("seq", -1);
    if (!bySeq.emplace(seq, std::move(inst)).second) {
      return Error{ErrorKind::kInvalidArgument,
                   "seq " + std::to_string(seq) + " listed twice"};
    }
  }
  fields.erase(table);

  std::vector<Json*> refs;
  for (const char* key :
       {"fetchQueue", "reorderBuffer", "loadBuffer", "storeBuffer"}) {
    for (Json& ref : state.Find(key)->AsArray()) refs.push_back(&ref);
  }
  for (auto& [name, window] : state.Find("issueWindows")->AsObject()) {
    for (Json& ref : window.AsArray()) refs.push_back(&ref);
  }
  for (Json& unit : state.Find("functionalUnits")->AsArray()) {
    if (Json* ref = unit.Find("instruction")) refs.push_back(ref);
  }
  for (Json* ref : refs) {
    const auto inst = ref->IsInt() ? bySeq.find(ref->AsInt()) : bySeq.end();
    if (inst == bySeq.end()) {
      return Error{ErrorKind::kInvalidArgument,
                   "unresolved reference " + ref->Dump()};
    }
    *ref = inst->second;
  }
  return state.Dump();
}

struct GoldenPin {
  const char* label;
  std::size_t bytes;
  std::uint64_t fnv1a64;
};

// Regenerate only for an intended change to the rendered state: the test
// prints the table it computed when any entry differs. A state render is
// pinned in its apiVersion 2 shape (ExpandToV2), so the pins still hold
// every instruction object in every container it sits in.
//
// No pin may depend on the build. NaN results are RISC-V's canonical NaN
// (FpResult in expr/value.cpp) because the NaN a host FPU returns can
// change with the compiler's operand order: seed 4 runs fmadd.s on three
// NaN operands at cycle 684.
constexpr GoldenPin kGoldenRenders[] = {
    {"seed1/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed1/default/cycle1", 6132, 0xc1cf28399db0f240ull},
    {"seed1/default/cycle17", 149864, 0x8ff64c73f2bd36c3ull},
    {"seed1/default/cycle200", 8662, 0xefc507ae4722cd49ull},
    {"seed1/default/cycle1000", 6767, 0x9fd0f5f616f11083ull},
    {"seed1/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed1/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed1/scalar/cycle17", 138277, 0x46299ee456d349eaull},
    {"seed1/scalar/cycle200", 9861, 0xb9758139227e0bf9ull},
    {"seed1/scalar/cycle1000", 9676, 0xf7a11e72a92f552eull},
    {"seed1/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed1/wide/cycle1", 15921, 0x78e709ca8ecbccc1ull},
    {"seed1/wide/cycle17", 157732, 0x26d52755b5e14d04ull},
    {"seed1/wide/cycle200", 17380, 0xd3a86e0ee97f025aull},
    {"seed1/wide/cycle1000", 15978, 0xb3dab93666d97b8cull},
    {"seed2/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed2/default/cycle1", 6133, 0x960e283d597c1f25ull},
    {"seed2/default/cycle17", 159976, 0xec308083b6960028ull},
    {"seed2/default/cycle200", 28157, 0xff8d513bfe23075full},
    {"seed2/default/cycle1000", 6150, 0x4a184fea0b04b61full},
    {"seed2/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed2/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed2/scalar/cycle17", 138228, 0xf08ef4cb88db59d7ull},
    {"seed2/scalar/cycle200", 9978, 0xe1000fdf2e850e59ull},
    {"seed2/scalar/cycle1000", 6072, 0x85b3f22c98946731ull},
    {"seed2/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed2/wide/cycle1", 15922, 0xed88d2257461ff9aull},
    {"seed2/wide/cycle17", 169668, 0x7a66bce5d284c903ull},
    {"seed2/wide/cycle200", 15254, 0xb87177b525309796ull},
    {"seed2/wide/cycle1000", 15360, 0x8ec956b7805a5dd6ull},
    {"seed3/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed3/default/cycle1", 6134, 0xe26d2f735ccd6e47ull},
    {"seed3/default/cycle17", 147989, 0x555c3dc8c770b2afull},
    {"seed3/default/cycle200", 36388, 0x43abb22bb1d9176full},
    {"seed3/default/cycle1000", 6735, 0x6f0115411f8c42bdull},
    {"seed3/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed3/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed3/scalar/cycle17", 138317, 0xed5d67dc2637f8b7ull},
    {"seed3/scalar/cycle200", 8647, 0xd31a4ac22aa54f17ull},
    {"seed3/scalar/cycle1000", 6015, 0x9b4eca723b293aafull},
    {"seed3/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed3/wide/cycle1", 15923, 0x71ca43e02c40e5e8ull},
    {"seed3/wide/cycle17", 159992, 0x1e0270702d88a3efull},
    {"seed3/wide/cycle200", 31526, 0x1fa48640ec6beb0eull},
    {"seed3/wide/cycle1000", 15609, 0x7076bda3282a1050ull},
    {"seed4/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed4/default/cycle1", 6132, 0xab8b428d73ffb67cull},
    {"seed4/default/cycle17", 159879, 0x141c4ccbaf1dd7cbull},
    {"seed4/default/cycle200", 27093, 0xb81292aef4c54879ull},
    {"seed4/default/cycle1000", 6127, 0x37eb77a8b7cae7a7ull},
    {"seed4/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed4/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed4/scalar/cycle17", 138257, 0x562d646618793a9dull},
    {"seed4/scalar/cycle200", 10820, 0x0d3642af879dfb64ull},
    {"seed4/scalar/cycle1000", 9074, 0xef7d779e2523ff48ull},
    {"seed4/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed4/wide/cycle1", 15920, 0xd13076b54d6de3c0ull},
    {"seed4/wide/cycle17", 174038, 0x2104c68719374fdbull},
    {"seed4/wide/cycle200", 46485, 0x71ce36275f66a4b0ull},
    {"seed4/wide/cycle1000", 15350, 0xd93a1c230e7d4b2eull},
    {"seed5/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed5/default/cycle1", 6132, 0xd52c88f8952dedd0ull},
    {"seed5/default/cycle17", 159399, 0xa2c487f71c9f7653ull},
    {"seed5/default/cycle200", 25065, 0xbab57b01c553c134ull},
    {"seed5/default/cycle1000", 6188, 0x8009dcf7de3a589aull},
    {"seed5/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed5/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed5/scalar/cycle17", 138257, 0xe2b97e5418cf9332ull},
    {"seed5/scalar/cycle200", 9526, 0x71266601177f66e9ull},
    {"seed5/scalar/cycle1000", 6108, 0xb9c8f333cad9ab64ull},
    {"seed5/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed5/wide/cycle1", 15923, 0xa37efe8c2088b06aull},
    {"seed5/wide/cycle17", 171666, 0x018fe0f351273dceull},
    {"seed5/wide/cycle200", 62412, 0x50ad27a0a8cea30aull},
    {"seed5/wide/cycle1000", 16039, 0x4538be74121bee5full},
    {"seed6/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed6/default/cycle1", 6133, 0x06f5128e0048397eull},
    {"seed6/default/cycle17", 159647, 0xbebb46ba005c71fbull},
    {"seed6/default/cycle200", 34103, 0x221ae5c1065c07c1ull},
    {"seed6/default/cycle1000", 6085, 0x5206b5ec8e020a21ull},
    {"seed6/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed6/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed6/scalar/cycle17", 138244, 0xc1bb811e43e7059cull},
    {"seed6/scalar/cycle200", 10642, 0x321db334ba79ee10ull},
    {"seed6/scalar/cycle1000", 6006, 0xb2538edf4bab4eb9ull},
    {"seed6/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed6/wide/cycle1", 15923, 0xc244e0eae02ca183ull},
    {"seed6/wide/cycle17", 178045, 0xe71741dcbdaa839bull},
    {"seed6/wide/cycle200", 101601, 0xbbef4ba003aa246cull},
    {"seed6/wide/cycle1000", 15948, 0x70a721ec619f5100ull},
    {"seed7/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed7/default/cycle1", 6133, 0xa0f747bb0c5033aaull},
    {"seed7/default/cycle17", 159823, 0x189d26b324b86615ull},
    {"seed7/default/cycle200", 36692, 0x23f5fd5c408a4341ull},
    {"seed7/default/cycle1000", 6802, 0x4cac038d80df25a1ull},
    {"seed7/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed7/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed7/scalar/cycle17", 138231, 0xaa5fcb3a3a294d13ull},
    {"seed7/scalar/cycle200", 10247, 0xd17894d53c67f35bull},
    {"seed7/scalar/cycle1000", 6051, 0xb956ea633281fc61ull},
    {"seed7/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed7/wide/cycle1", 15924, 0x2e54ea29ab5a9b09ull},
    {"seed7/wide/cycle17", 171350, 0x7cb5f9bb12a806caull},
    {"seed7/wide/cycle200", 104810, 0x81d2e624d2918ed5ull},
    {"seed7/wide/cycle1000", 16285, 0xba42b42b11fd86b4ull},
    {"seed8/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed8/default/cycle1", 6133, 0xda20538f37ff733eull},
    {"seed8/default/cycle17", 153549, 0x0b9c8ba885f3181aull},
    {"seed8/default/cycle200", 32644, 0x353ab09c20ebdff1ull},
    {"seed8/default/cycle1000", 7737, 0x4d3ddfb915656d00ull},
    {"seed8/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed8/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed8/scalar/cycle17", 138246, 0x10d5b9a18b6934d7ull},
    {"seed8/scalar/cycle200", 10101, 0x19dd86bc9d9056e3ull},
    {"seed8/scalar/cycle1000", 7342, 0xccc30e0a113ad5c4ull},
    {"seed8/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed8/wide/cycle1", 15921, 0x98cc4c76b13b63b4ull},
    {"seed8/wide/cycle17", 174804, 0x95b61dc9b5a39ad6ull},
    {"seed8/wide/cycle200", 19471, 0xf0bf2b785cc8c055ull},
    {"seed8/wide/cycle1000", 16951, 0x086abc8d1ba4d265ull},
    {"seed9/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed9/default/cycle1", 6134, 0xcdb932abbd78c399ull},
    {"seed9/default/cycle17", 148246, 0x69dd4c71aa189079ull},
    {"seed9/default/cycle200", 32751, 0xdf47070e8c94722bull},
    {"seed9/default/cycle1000", 6086, 0xfda9d2d81b12f6f6ull},
    {"seed9/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed9/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed9/scalar/cycle17", 138252, 0xe3a3bf92647acbd4ull},
    {"seed9/scalar/cycle200", 8332, 0xfc2343817cd5a39eull},
    {"seed9/scalar/cycle1000", 6006, 0x1105f381d28484e8ull},
    {"seed9/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed9/wide/cycle1", 15921, 0x4691851d6c97a9d8ull},
    {"seed9/wide/cycle17", 155636, 0x8dcdfb302d9eb325ull},
    {"seed9/wide/cycle200", 73826, 0x24fd817c3c14a44dull},
    {"seed9/wide/cycle1000", 16562, 0x92f9a33cac39f00bull},
    {"seed10/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed10/default/cycle1", 6132, 0xbff709d1868d60e2ull},
    {"seed10/default/cycle17", 159094, 0x486f1e02e7517d8dull},
    {"seed10/default/cycle200", 18807, 0x235d243a4a15c899ull},
    {"seed10/default/cycle1000", 6122, 0x113af5a6569a6081ull},
    {"seed10/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed10/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed10/scalar/cycle17", 138280, 0x6f0791ad909a5a2aull},
    {"seed10/scalar/cycle200", 10135, 0xaf70517f46cc817aull},
    {"seed10/scalar/cycle1000", 8907, 0x69ca4c704c1d80eaull},
    {"seed10/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed10/wide/cycle1", 15921, 0x073132276423ea75ull},
    {"seed10/wide/cycle17", 175569, 0xaf783183da2224daull},
    {"seed10/wide/cycle200", 26647, 0xdf2b68a79bf80357ull},
    {"seed10/wide/cycle1000", 15302, 0x025035c21cc93ff5ull},
    {"seed11/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed11/default/cycle1", 6133, 0xf9eb8e1e55297449ull},
    {"seed11/default/cycle17", 159288, 0xa7f287dffe1e719full},
    {"seed11/default/cycle200", 36591, 0xd318519db40ca32cull},
    {"seed11/default/cycle1000", 6155, 0x6bfa243f867bb34bull},
    {"seed11/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed11/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed11/scalar/cycle17", 138205, 0xf5fa96a64c27696bull},
    {"seed11/scalar/cycle200", 8353, 0x5fa5f6dd46ea8222ull},
    {"seed11/scalar/cycle1000", 6085, 0xdc33f49cf35fb189ull},
    {"seed11/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed11/wide/cycle1", 15920, 0xa9f1c66a58b98d65ull},
    {"seed11/wide/cycle17", 160769, 0x523c114b2f7fcf54ull},
    {"seed11/wide/cycle200", 105987, 0xd357b9f7a033a28dull},
    {"seed11/wide/cycle1000", 15370, 0xe64337eeeb517dcaull},
    {"seed12/default/cycle0", 5542, 0xfb4df53894d7280aull},
    {"seed12/default/cycle1", 6132, 0x5cf4aba52082737dull},
    {"seed12/default/cycle17", 159433, 0x4619c8fe2f89956full},
    {"seed12/default/cycle200", 26205, 0x5204148004f311bfull},
    {"seed12/default/cycle1000", 6122, 0x41bb9ff58223c449ull},
    {"seed12/scalar/cycle0", 5462, 0x59e3a7b213ebaf04ull},
    {"seed12/scalar/cycle1", 5609, 0x6c60ae04e64d7ec1ull},
    {"seed12/scalar/cycle17", 138240, 0x4ad0e32be409ab9dull},
    {"seed12/scalar/cycle200", 9806, 0x664277c27cef1eb2ull},
    {"seed12/scalar/cycle1000", 6042, 0x8748a9f3ecae0c1bull},
    {"seed12/wide/cycle0", 14750, 0x1c71f1be2b11e442ull},
    {"seed12/wide/cycle1", 15922, 0x6741a746eee002eaull},
    {"seed12/wide/cycle17", 195171, 0x126f55272c7164d8ull},
    {"seed12/wide/cycle200", 33872, 0xbbab388568dad69cull},
    {"seed12/wide/cycle1000", 15328, 0xc48ad152c438ec78ull},
    {"sort/cycle300", 37985, 0xc4878f686027a6ceull},
    {"sort/end", 5977, 0x1c71f350ef5d2e3cull},
    {"sort/ff/cycle25", 34769, 0xf2736f0cafd51420ull},
    {"float/cycle300", 36460, 0x05af97d7d2d633caull},
    {"float/end", 6025, 0xce0b3536da008568ull},
    {"float/ff/cycle25", 34971, 0x360b0d514182e2afull},
    {"config/pretty", 2237, 0x8504e68bf77f9223ull},
    {"isa/pretty", 40319, 0xd708dcdffb995b33ull},
};

TEST(GoldenRender, RenderedBytesMatchThePinnedTable) {
  const std::vector<Render> renders = GoldenRenders();
  EXPECT_EQ(renders.size(), std::size(kGoldenRenders));
  bool differs = renders.size() != std::size(kGoldenRenders);
  std::string table;
  for (std::size_t i = 0; i < renders.size(); ++i) {
    const Render& render = renders[i];
    const bool pretty = render.label.ends_with("/pretty");
    const Result<std::string> expanded =
        pretty ? Result<std::string>(render.text) : ExpandToV2(render.text);
    ASSERT_TRUE(expanded.ok()) << render.label << ": "
                               << expanded.error().ToText();
    const std::string& pinned = expanded.value();
    const std::uint64_t hash = Fnv1a64(pinned);
    char line[160];
    std::snprintf(line, sizeof line, "    {\"%s\", %zu, 0x%016llxull},\n",
                  render.label.c_str(), pinned.size(),
                  static_cast<unsigned long long>(hash));
    table += line;
    if (i < std::size(kGoldenRenders)) {
      const GoldenPin& pin = kGoldenRenders[i];
      const bool same = render.label == pin.label &&
                        pinned.size() == pin.bytes && hash == pin.fnv1a64;
      EXPECT_TRUE(same) << "render " << i << " differs: " << line;
      differs = differs || !same;
    }
    // Canonical: what the parser reads back dumps the same bytes.
    const auto parsed = json::Parse(render.text);
    ASSERT_TRUE(parsed.ok()) << render.label << ": "
                             << parsed.error().ToText();
    EXPECT_TRUE((pretty ? parsed.value().DumpPretty()
                        : parsed.value().Dump()) == render.text)
        << render.label;
  }
  if (differs) ADD_FAILURE() << "the table this build renders:\n" << table;
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

TEST(Value, NanResultsAreTheCanonicalNan) {
  // NaNs with distinct signs and payloads, as a program can load them.
  const Value f1 = Value::FromRaw(ValueKind::kFloat, 0x7fc00001u);
  const Value f2 = Value::FromRaw(ValueKind::kFloat, 0xffc00002u);
  const Value f3 = Value::FromRaw(ValueKind::kFloat, 0x7fc00003u);
  const Value d1 = Value::FromRaw(ValueKind::kDouble, 0x7ff8000000000001ull);
  const Value d2 = Value::FromRaw(ValueKind::kDouble, 0xfff8000000000002ull);
  const float inf = std::numeric_limits<float>::infinity();
  expr::EvalFlags flags;
  for (const Value& r :
       {expr::Fma(f1, f2, f3), expr::Fma(f2, f1, f3), expr::Add(f1, f2),
        expr::Add(Value::Float(inf), Value::Float(-inf)), expr::Sub(f2, f1),
        expr::Mul(f1, f2), expr::Div(f2, f1, flags),
        expr::Div(Value::Float(0), Value::Float(0), flags),
        expr::Rem(f1, f2, flags), expr::Sqrt(Value::Float(-1)),
        expr::Min(f1, f2), expr::Max(f2, f1), expr::D2F(d2)}) {
    EXPECT_EQ(r.kind(), ValueKind::kFloat);
    EXPECT_EQ(r.bits(), 0x7fc00000u);
  }
  for (const Value& r :
       {expr::Fma(d1, d2, d1), expr::Fma(d2, d1, d1), expr::Add(d1, d2),
        expr::Sub(d2, d1), expr::Mul(d2, d1),
        expr::Div(Value::Double(0), Value::Double(0), flags),
        expr::Sqrt(Value::Double(-1)), expr::Min(d2, d1), expr::Max(d1, d2),
        expr::F2D(f2)}) {
    EXPECT_EQ(r.kind(), ValueKind::kDouble);
    EXPECT_EQ(r.bits(), 0x7ff8000000000000ull);
  }
  // Sign injection, negation and fmv move bits: the payload stays.
  EXPECT_EQ(expr::SignInjectNeg(f1, f1).bits(), 0xffc00001u);
  EXPECT_EQ(expr::Negate(d1).bits(), 0xfff8000000000001ull);
  EXPECT_EQ(expr::BitsToFloatValue(Value::UInt(0x7fc00001u)).bits(),
            0x7fc00001u);
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
