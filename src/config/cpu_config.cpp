#include "config/cpu_config.h"

#include "common/enum_names.h"

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

json::Json ToJson(const FunctionalUnitConfig& fu) {
  json::Json node = json::Json::MakeObject();
  node.Set("kind", ToString(fu.kind));
  if (!fu.name.empty()) node.Set("name", fu.name);
  if (fu.kind == FunctionalUnitConfig::Kind::kFx ||
      fu.kind == FunctionalUnitConfig::Kind::kFp) {
    json::Json ops = json::Json::MakeArray();
    for (const FunctionalUnitConfig::Operation& op : fu.operations) {
      json::Json opNode = json::Json::MakeObject();
      opNode.Set("opClass", isa::ToString(op.opClass));
      opNode.Set("latency", static_cast<std::int64_t>(op.latency));
      ops.Append(std::move(opNode));
    }
    node.Set("operations", std::move(ops));
  } else {
    node.Set("latency", static_cast<std::int64_t>(fu.latency));
  }
  return node;
}

Result<FunctionalUnitConfig> UnitFromJson(const json::Json& node) {
  FunctionalUnitConfig fu;
  auto kind = ValueOf(kUnitKinds, node.GetString("kind", "FX"));
  if (!kind) {
    return Error{ErrorKind::kConfig,
                 "unknown functional-unit kind '" +
                     node.GetString("kind", "") + "'"};
  }
  fu.kind = *kind;
  fu.name = node.GetString("name", "");
  fu.latency = static_cast<std::uint32_t>(node.GetInt("latency", 1));
  if (const json::Json* ops = node.Find("operations"); ops != nullptr) {
    if (!ops->IsArray()) {
      return Error{ErrorKind::kConfig, "'operations' must be an array"};
    }
    for (const json::Json& opNode : ops->AsArray()) {
      auto opClass = isa::OpClassFromString(opNode.GetString("opClass", ""));
      if (!opClass) {
        return Error{ErrorKind::kConfig,
                     "unknown opClass '" + opNode.GetString("opClass", "") +
                         "' in functional unit"};
      }
      fu.operations.push_back(FunctionalUnitConfig::Operation{
          *opClass, static_cast<std::uint32_t>(opNode.GetInt("latency", 1))});
    }
  }
  return fu;
}

}  // namespace

const char* ToString(ReplacementPolicy policy) {
  return NameOf(kReplacementPolicies, policy);
}

const char* ToString(StorePolicy policy) {
  return NameOf(kStorePolicies, policy);
}

const char* ToString(PredictorType type) {
  return NameOf(kPredictorTypes, type);
}

const char* ToString(HistoryKind kind) { return NameOf(kHistoryKinds, kind); }

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
  json::Json root = json::Json::MakeObject();
  root.Set("name", config.name);
  root.Set("coreClockHz", static_cast<std::int64_t>(config.coreClockHz));
  root.Set("memClockHz", static_cast<std::int64_t>(config.memClockHz));

  json::Json buffers = json::Json::MakeObject();
  buffers.Set("robSize", static_cast<std::int64_t>(config.buffers.robSize));
  buffers.Set("fetchWidth", static_cast<std::int64_t>(config.buffers.fetchWidth));
  buffers.Set("commitWidth",
              static_cast<std::int64_t>(config.buffers.commitWidth));
  buffers.Set("flushPenalty",
              static_cast<std::int64_t>(config.buffers.flushPenalty));
  buffers.Set("fetchBranchFollowLimit",
              static_cast<std::int64_t>(config.buffers.fetchBranchFollowLimit));
  buffers.Set("issueWindowSize",
              static_cast<std::int64_t>(config.buffers.issueWindowSize));
  root.Set("buffers", std::move(buffers));

  json::Json units = json::Json::MakeArray();
  for (const FunctionalUnitConfig& fu : config.functionalUnits) {
    units.Append(ToJson(fu));
  }
  root.Set("functionalUnits", std::move(units));

  json::Json cache = json::Json::MakeObject();
  cache.Set("enabled", config.cache.enabled);
  cache.Set("lineCount", static_cast<std::int64_t>(config.cache.lineCount));
  cache.Set("lineSizeBytes",
            static_cast<std::int64_t>(config.cache.lineSizeBytes));
  cache.Set("associativity",
            static_cast<std::int64_t>(config.cache.associativity));
  cache.Set("replacement", ToString(config.cache.replacement));
  cache.Set("storePolicy", ToString(config.cache.storePolicy));
  cache.Set("accessDelay", static_cast<std::int64_t>(config.cache.accessDelay));
  cache.Set("lineReplacementDelay",
            static_cast<std::int64_t>(config.cache.lineReplacementDelay));
  root.Set("cache", std::move(cache));

  json::Json memory = json::Json::MakeObject();
  memory.Set("sizeBytes", static_cast<std::int64_t>(config.memory.sizeBytes));
  memory.Set("loadBufferSize",
             static_cast<std::int64_t>(config.memory.loadBufferSize));
  memory.Set("storeBufferSize",
             static_cast<std::int64_t>(config.memory.storeBufferSize));
  memory.Set("loadLatency",
             static_cast<std::int64_t>(config.memory.loadLatency));
  memory.Set("storeLatency",
             static_cast<std::int64_t>(config.memory.storeLatency));
  memory.Set("callStackBytes",
             static_cast<std::int64_t>(config.memory.callStackBytes));
  memory.Set("renameRegisterCount",
             static_cast<std::int64_t>(config.memory.renameRegisterCount));
  root.Set("memory", std::move(memory));

  json::Json predictor = json::Json::MakeObject();
  predictor.Set("btbSize", static_cast<std::int64_t>(config.predictor.btbSize));
  predictor.Set("phtSize", static_cast<std::int64_t>(config.predictor.phtSize));
  predictor.Set("type", ToString(config.predictor.type));
  predictor.Set("defaultState",
                static_cast<std::int64_t>(config.predictor.defaultState));
  predictor.Set("history", ToString(config.predictor.history));
  predictor.Set("historyBits",
                static_cast<std::int64_t>(config.predictor.historyBits));
  root.Set("predictor", std::move(predictor));

  json::Json checkpoint = json::Json::MakeObject();
  checkpoint.Set("intervalCycles",
                 static_cast<std::int64_t>(config.checkpoint.intervalCycles));
  checkpoint.Set("maxTotalBytes",
                 static_cast<std::int64_t>(config.checkpoint.maxTotalBytes));
  checkpoint.Set("adaptiveInterval", config.checkpoint.adaptiveInterval);
  root.Set("checkpoint", std::move(checkpoint));

  root.Set("trapOnDivZero", config.trapOnDivZero);
  root.Set("randomSeed", static_cast<std::int64_t>(config.randomSeed));
  return root;
}

Result<CpuConfig> CpuConfigFromJson(const json::Json& node) {
  if (!node.IsObject()) {
    return Error{ErrorKind::kConfig, "configuration must be a JSON object"};
  }
  CpuConfig config;
  config.name = node.GetString("name", config.name);
  config.coreClockHz = static_cast<std::uint64_t>(
      node.GetInt("coreClockHz", static_cast<std::int64_t>(config.coreClockHz)));
  config.memClockHz = static_cast<std::uint64_t>(
      node.GetInt("memClockHz", static_cast<std::int64_t>(config.memClockHz)));

  if (const json::Json* buffers = node.Find("buffers"); buffers != nullptr) {
    BufferConfig& b = config.buffers;
    b.robSize = static_cast<std::uint32_t>(buffers->GetInt("robSize", b.robSize));
    b.fetchWidth =
        static_cast<std::uint32_t>(buffers->GetInt("fetchWidth", b.fetchWidth));
    b.commitWidth = static_cast<std::uint32_t>(
        buffers->GetInt("commitWidth", b.commitWidth));
    b.flushPenalty = static_cast<std::uint32_t>(
        buffers->GetInt("flushPenalty", b.flushPenalty));
    b.fetchBranchFollowLimit = static_cast<std::uint32_t>(
        buffers->GetInt("fetchBranchFollowLimit", b.fetchBranchFollowLimit));
    b.issueWindowSize = static_cast<std::uint32_t>(
        buffers->GetInt("issueWindowSize", b.issueWindowSize));
  }

  if (const json::Json* units = node.Find("functionalUnits"); units != nullptr) {
    if (!units->IsArray()) {
      return Error{ErrorKind::kConfig, "'functionalUnits' must be an array"};
    }
    for (const json::Json& unitNode : units->AsArray()) {
      RVSS_ASSIGN_OR_RETURN(FunctionalUnitConfig fu, UnitFromJson(unitNode));
      config.functionalUnits.push_back(std::move(fu));
    }
  } else {
    config.functionalUnits = DefaultConfig().functionalUnits;
  }

  if (const json::Json* cache = node.Find("cache"); cache != nullptr) {
    CacheConfig& c = config.cache;
    c.enabled = cache->GetBool("enabled", c.enabled);
    c.lineCount =
        static_cast<std::uint32_t>(cache->GetInt("lineCount", c.lineCount));
    c.lineSizeBytes = static_cast<std::uint32_t>(
        cache->GetInt("lineSizeBytes", c.lineSizeBytes));
    c.associativity = static_cast<std::uint32_t>(
        cache->GetInt("associativity", c.associativity));
    auto replacement =
        ValueOf(kReplacementPolicies, cache->GetString("replacement", "LRU"));
    if (!replacement) {
      return Error{ErrorKind::kConfig, "unknown cache replacement policy"};
    }
    c.replacement = *replacement;
    auto store =
        ValueOf(kStorePolicies, cache->GetString("storePolicy", "write-back"));
    if (!store) {
      return Error{ErrorKind::kConfig, "unknown cache store policy"};
    }
    c.storePolicy = *store;
    c.accessDelay =
        static_cast<std::uint32_t>(cache->GetInt("accessDelay", c.accessDelay));
    c.lineReplacementDelay = static_cast<std::uint32_t>(
        cache->GetInt("lineReplacementDelay", c.lineReplacementDelay));
  }

  if (const json::Json* memory = node.Find("memory"); memory != nullptr) {
    MemoryConfig& m = config.memory;
    m.sizeBytes =
        static_cast<std::uint32_t>(memory->GetInt("sizeBytes", m.sizeBytes));
    m.loadBufferSize = static_cast<std::uint32_t>(
        memory->GetInt("loadBufferSize", m.loadBufferSize));
    m.storeBufferSize = static_cast<std::uint32_t>(
        memory->GetInt("storeBufferSize", m.storeBufferSize));
    m.loadLatency = static_cast<std::uint32_t>(
        memory->GetInt("loadLatency", m.loadLatency));
    m.storeLatency = static_cast<std::uint32_t>(
        memory->GetInt("storeLatency", m.storeLatency));
    m.callStackBytes = static_cast<std::uint32_t>(
        memory->GetInt("callStackBytes", m.callStackBytes));
    m.renameRegisterCount = static_cast<std::uint32_t>(
        memory->GetInt("renameRegisterCount", m.renameRegisterCount));
  }

  if (const json::Json* predictor = node.Find("predictor"); predictor != nullptr) {
    PredictorConfig& p = config.predictor;
    p.btbSize =
        static_cast<std::uint32_t>(predictor->GetInt("btbSize", p.btbSize));
    p.phtSize =
        static_cast<std::uint32_t>(predictor->GetInt("phtSize", p.phtSize));
    auto type = ValueOf(kPredictorTypes, predictor->GetString("type", "two-bit"));
    if (!type) {
      return Error{ErrorKind::kConfig, "unknown predictor type"};
    }
    p.type = *type;
    p.defaultState = static_cast<std::uint32_t>(
        predictor->GetInt("defaultState", p.defaultState));
    auto history = ValueOf(kHistoryKinds, predictor->GetString("history", "local"));
    if (!history) {
      return Error{ErrorKind::kConfig, "unknown predictor history kind"};
    }
    p.history = *history;
    p.historyBits = static_cast<std::uint32_t>(
        predictor->GetInt("historyBits", p.historyBits));
  }

  if (const json::Json* checkpoint = node.Find("checkpoint");
      checkpoint != nullptr) {
    CheckpointConfig& k = config.checkpoint;
    k.intervalCycles = static_cast<std::uint64_t>(checkpoint->GetInt(
        "intervalCycles", static_cast<std::int64_t>(k.intervalCycles)));
    k.maxTotalBytes = static_cast<std::uint64_t>(checkpoint->GetInt(
        "maxTotalBytes", static_cast<std::int64_t>(k.maxTotalBytes)));
    k.adaptiveInterval =
        checkpoint->GetBool("adaptiveInterval", k.adaptiveInterval);
  }

  config.trapOnDivZero = node.GetBool("trapOnDivZero", config.trapOnDivZero);
  config.randomSeed = static_cast<std::uint64_t>(
      node.GetInt("randomSeed", static_cast<std::int64_t>(config.randomSeed)));
  return config;
}

}  // namespace rvss::config
