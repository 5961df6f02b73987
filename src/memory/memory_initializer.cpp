#include "memory/memory_initializer.h"

#include "common/bitops.h"
#include "common/enum_names.h"
#include "common/rng.h"
#include "json/fields.h"

namespace rvss::memory {

namespace {

constexpr EnumName<DataTypeKind> kDataTypeKinds[] = {
    {"byte", DataTypeKind::kByte},
    {"half", DataTypeKind::kHalf},
    {"word", DataTypeKind::kWord},
    {"float", DataTypeKind::kFloat},
    {"double", DataTypeKind::kDouble}};

}  // namespace

const char* ToString(DataTypeKind kind) { return NameOf(kDataTypeKinds, kind); }

std::uint32_t SizeOf(DataTypeKind kind) {
  switch (kind) {
    case DataTypeKind::kByte: return 1;
    case DataTypeKind::kHalf: return 2;
    case DataTypeKind::kWord: return 4;
    case DataTypeKind::kFloat: return 4;
    case DataTypeKind::kDouble: return 8;
  }
  return 4;
}

namespace {

void WriteElement(MainMemory& memory, std::uint32_t address, DataTypeKind kind,
                  double value) {
  switch (kind) {
    case DataTypeKind::kByte:
      memory.Write8(address, static_cast<std::uint8_t>(
                                 static_cast<std::int64_t>(value)));
      break;
    case DataTypeKind::kHalf:
      memory.Write16(address, static_cast<std::uint16_t>(
                                  static_cast<std::int64_t>(value)));
      break;
    case DataTypeKind::kWord:
      memory.Write32(address, static_cast<std::uint32_t>(
                                  static_cast<std::int64_t>(value)));
      break;
    case DataTypeKind::kFloat:
      memory.Write32(address, FloatToBits(static_cast<float>(value)));
      break;
    case DataTypeKind::kDouble:
      memory.Write64(address, DoubleToBits(value));
      break;
  }
}

double RandomElement(DataTypeKind kind, Rng& rng) {
  switch (kind) {
    case DataTypeKind::kByte:
      return static_cast<double>(rng.NextInRange(-128, 127));
    case DataTypeKind::kHalf:
      return static_cast<double>(rng.NextInRange(-32768, 32767));
    case DataTypeKind::kWord:
      return static_cast<double>(
          rng.NextInRange(-2147483648LL, 2147483647LL));
    case DataTypeKind::kFloat:
    case DataTypeKind::kDouble:
      return rng.NextDouble() * 2000.0 - 1000.0;
  }
  return 0.0;
}

}  // namespace

Result<MemoryLayout> ComputeLayout(const std::vector<ArrayDefinition>& arrays,
                                   std::uint32_t baseAddress,
                                   std::uint32_t memorySize) {
  MemoryLayout layout;
  layout.dataStart = baseAddress;
  std::uint32_t cursor = baseAddress;
  for (const ArrayDefinition& def : arrays) {
    if (def.name.empty()) {
      return Error{ErrorKind::kInvalidArgument, "array definition needs a name"};
    }
    if (layout.symbols.contains(def.name)) {
      return Error{ErrorKind::kInvalidArgument,
                   "duplicate array name '" + def.name + "'"};
    }
    const std::uint32_t alignment =
        def.alignment == 0 ? SizeOf(def.type) : def.alignment;
    if (!IsPowerOfTwo(alignment)) {
      return Error{ErrorKind::kInvalidArgument,
                   "alignment of '" + def.name + "' must be a power of two"};
    }
    cursor = static_cast<std::uint32_t>(AlignUp(cursor, alignment));
    const std::uint64_t byteSize = def.ByteSize();
    if (cursor > memorySize || byteSize > memorySize - cursor) {
      return Error{ErrorKind::kInvalidArgument,
                   "array '" + def.name + "' does not fit in memory"};
    }
    layout.symbols.emplace(def.name, cursor);
    cursor += static_cast<std::uint32_t>(byteSize);
  }
  layout.dataEnd = cursor;
  return layout;
}

Result<MemoryLayout> InitializeArrays(
    MainMemory& memory, const std::vector<ArrayDefinition>& arrays,
    std::uint32_t baseAddress) {
  RVSS_ASSIGN_OR_RETURN(MemoryLayout layout,
                        ComputeLayout(arrays, baseAddress, memory.size()));
  for (const ArrayDefinition& def : arrays) {
    const std::uint32_t start = layout.symbols.at(def.name);
    const std::uint32_t elemSize = SizeOf(def.type);
    Rng rng(def.randomSeed);
    for (std::uint32_t i = 0; i < def.ElementCount(); ++i) {
      double value = 0.0;
      switch (def.fill) {
        case ArrayDefinition::Fill::kValues:
          value = def.values[i];
          break;
        case ArrayDefinition::Fill::kConstant:
          value = def.values.empty() ? 0.0 : def.values[0];
          break;
        case ArrayDefinition::Fill::kRandom:
          value = RandomElement(def.type, rng);
          break;
      }
      WriteElement(memory, start + i * elemSize, def.type, value);
    }
  }
  return layout;
}

json::Json ToJson(const ArrayDefinition& def) {
  json::Json node = json::Json::MakeObject();
  node.Set("name", def.name);
  node.Set("type", ToString(def.type));
  if (def.alignment != 0) {
    node.Set("alignment", static_cast<std::int64_t>(def.alignment));
  }
  switch (def.fill) {
    case ArrayDefinition::Fill::kValues: {
      json::Json values = json::Json::MakeArray();
      for (double v : def.values) values.Append(v);
      node.Set("values", std::move(values));
      break;
    }
    case ArrayDefinition::Fill::kConstant:
      node.Set("constant", def.values.empty() ? 0.0 : def.values[0]);
      node.Set("count", static_cast<std::int64_t>(def.count));
      break;
    case ArrayDefinition::Fill::kRandom:
      node.Set("random", true);
      node.Set("count", static_cast<std::int64_t>(def.count));
      node.Set("randomSeed", static_cast<std::int64_t>(def.randomSeed));
      break;
  }
  return node;
}

Result<ArrayDefinition> ArrayDefinitionFromJson(const json::Json& node) {
  if (!node.IsObject()) {
    return Error{ErrorKind::kParse, "array definition must be an object"};
  }
  ArrayDefinition def;
  def.name = node.GetString("name", "");
  if (def.name.empty()) {
    return Error{ErrorKind::kParse, "array definition missing 'name'"};
  }
  auto type = ValueOf(kDataTypeKinds, node.GetString("type", "word"));
  if (!type) {
    return Error{ErrorKind::kParse,
                 "unknown data type in array '" + def.name + "'"};
  }
  def.type = *type;
  // The integers are read as a config's are (json/fields.h): out of their
  // field's range, they are refused rather than narrowed.
  json::FieldReader io(node, ErrorKind::kParse);
  io.Field("alignment", def.alignment);
  RVSS_RETURN_IF_ERROR(io.status());

  if (const json::Json* values = node.Find("values"); values != nullptr) {
    if (!values->IsArray()) {
      return Error{ErrorKind::kParse, "'values' must be an array"};
    }
    def.fill = ArrayDefinition::Fill::kValues;
    for (const json::Json& v : values->AsArray()) {
      if (!v.IsNumber()) {
        return Error{ErrorKind::kParse,
                     "non-numeric value in array '" + def.name + "'"};
      }
      def.values.push_back(v.AsDouble());
    }
  } else if (node.GetBool("random", false)) {
    def.fill = ArrayDefinition::Fill::kRandom;
    io.Field("count", def.count);
    io.Field("randomSeed", def.randomSeed);
  } else if (node.Find("constant") != nullptr) {
    def.fill = ArrayDefinition::Fill::kConstant;
    def.values = {node.GetDouble("constant", 0.0)};
    io.Field("count", def.count);
  } else {
    return Error{ErrorKind::kParse,
                 "array '" + def.name +
                     "' needs one of 'values', 'constant' or 'random'"};
  }
  RVSS_RETURN_IF_ERROR(io.status());
  return def;
}

}  // namespace rvss::memory
