#include "config/cpu_config.h"

#include "json/fields.h"

namespace rvss::config {

namespace {

constexpr EnumName<ReplacementPolicy> kReplacementPolicies[] = {
    {"LRU", ReplacementPolicy::kLru},
    {"FIFO", ReplacementPolicy::kFifo},
    {"Random", ReplacementPolicy::kRandom}};

constexpr EnumName<StorePolicy> kStorePolicies[] = {
    {"write-back", StorePolicy::kWriteBack},
    {"write-through", StorePolicy::kWriteThrough}};

constexpr EnumName<PredictorType> kPredictorTypes[] = {
    {"zero-bit", PredictorType::kZeroBit},
    {"one-bit", PredictorType::kOneBit},
    {"two-bit", PredictorType::kTwoBit}};

constexpr EnumName<HistoryKind> kHistoryKinds[] = {
    {"local", HistoryKind::kLocal}, {"global", HistoryKind::kGlobal}};

constexpr EnumName<FunctionalUnitConfig::Kind> kUnitKinds[] = {
    {"FX", FunctionalUnitConfig::Kind::kFx},
    {"FP", FunctionalUnitConfig::Kind::kFp},
    {"LS", FunctionalUnitConfig::Kind::kLs},
    {"Branch", FunctionalUnitConfig::Kind::kBranch},
    {"Memory", FunctionalUnitConfig::Kind::kMemory}};

// The field lists (json/fields.h), in the order the paper's settings
// window shows its tabs.

constexpr auto OperationFields = []<typename IO>(IO& io, auto& op) {
  if constexpr (IO::kReading) {
    // An operation has no class to default to.
    std::string name;
    io.Field("opClass", name);
    if (name.empty()) return io.Fail("unknown opClass '' in functional unit");
  }
  io.Enum("opClass", op.opClass, isa::kOpClassNames,
          "unknown opClass '{}' in functional unit");
  io.Field("latency", op.latency);
};

/// FX and FP units list their operations; the others have one latency.
constexpr auto UnitFields = []<typename IO>(IO& io, auto& fu) {
  io.Enum("kind", fu.kind, kUnitKinds, "unknown functional-unit kind '{}'");
  if (IO::kReading || !fu.name.empty()) io.Field("name", fu.name);
  if (fu.kind == FunctionalUnitConfig::Kind::kFx ||
      fu.kind == FunctionalUnitConfig::Kind::kFp) {
    io.Records("operations", fu.operations, OperationFields);
  } else {
    io.Field("latency", fu.latency);
  }
};

constexpr auto ConfigFields = [](auto& io, auto& config) {
  io.Field("name", config.name);
  io.Field("coreClockHz", config.coreClockHz);
  io.Field("memClockHz", config.memClockHz);
  io.Object("buffers", config.buffers, [](auto& section, auto& b) {
    section.Field("robSize", b.robSize);
    section.Field("fetchWidth", b.fetchWidth);
    section.Field("commitWidth", b.commitWidth);
    section.Field("flushPenalty", b.flushPenalty);
    section.Field("fetchBranchFollowLimit", b.fetchBranchFollowLimit);
    section.Field("issueWindowSize", b.issueWindowSize);
  });
  io.Records("functionalUnits", config.functionalUnits, UnitFields);
  io.Object("cache", config.cache, [](auto& section, auto& c) {
    section.Field("enabled", c.enabled);
    section.Field("lineCount", c.lineCount);
    section.Field("lineSizeBytes", c.lineSizeBytes);
    section.Field("associativity", c.associativity);
    section.Enum("replacement", c.replacement, kReplacementPolicies,
                 "unknown cache replacement policy");
    section.Enum("storePolicy", c.storePolicy, kStorePolicies,
                 "unknown cache store policy");
    section.Field("accessDelay", c.accessDelay);
    section.Field("lineReplacementDelay", c.lineReplacementDelay);
  });
  io.Object("memory", config.memory, [](auto& section, auto& m) {
    section.Field("sizeBytes", m.sizeBytes);
    section.Field("loadBufferSize", m.loadBufferSize);
    section.Field("storeBufferSize", m.storeBufferSize);
    section.Field("loadLatency", m.loadLatency);
    section.Field("storeLatency", m.storeLatency);
    section.Field("callStackBytes", m.callStackBytes);
    section.Field("renameRegisterCount", m.renameRegisterCount);
  });
  io.Object("predictor", config.predictor, [](auto& section, auto& p) {
    section.Field("btbSize", p.btbSize);
    section.Field("phtSize", p.phtSize);
    section.Enum("type", p.type, kPredictorTypes, "unknown predictor type");
    section.Field("defaultState", p.defaultState);
    section.Enum("history", p.history, kHistoryKinds,
                 "unknown predictor history kind");
    section.Field("historyBits", p.historyBits);
  });
  io.Object("checkpoint", config.checkpoint, [](auto& section, auto& k) {
    section.Field("intervalCycles", k.intervalCycles);
    section.Field("maxTotalBytes", k.maxTotalBytes);
    section.Field("adaptiveInterval", k.adaptiveInterval);
  });
  io.Field("trapOnDivZero", config.trapOnDivZero);
  io.Field("randomSeed", config.randomSeed);
};

}  // namespace

const char* ToString(FunctionalUnitConfig::Kind kind) {
  return NameOf(kUnitKinds, kind);
}

std::uint32_t FunctionalUnitConfig::LatencyFor(isa::OpClass opClass) const {
  for (const Operation& op : operations) {
    if (op.opClass == opClass) return op.latency;
  }
  return 0;
}

json::Json ToJson(const CpuConfig& config) {
  json::FieldWriter io;
  ConfigFields(io, config);
  return std::move(io).Finish();
}

Result<CpuConfig> CpuConfigFromJson(const json::Json& node) {
  if (!node.IsObject()) {
    return Error{ErrorKind::kConfig, "configuration must be a JSON object"};
  }
  CpuConfig config;
  config.functionalUnits = DefaultConfig().functionalUnits;
  json::FieldReader io(node, ErrorKind::kConfig);
  ConfigFields(io, config);
  RVSS_RETURN_IF_ERROR(io.status());
  return config;
}

}  // namespace rvss::config
