#include "isa/instruction_set_json.h"

#include "json/fields.h"

namespace rvss::isa {

namespace {

constexpr EnumName<InstructionType> kInstructionTypes[] = {
    {"kArithmetic", InstructionType::kArithmetic},
    {"kMulDiv", InstructionType::kMulDiv},
    {"kFloat", InstructionType::kFloat},
    {"kLoad", InstructionType::kLoad},
    {"kStore", InstructionType::kStore},
    {"kBranch", InstructionType::kBranch},
    {"kJump", InstructionType::kJump}};

constexpr EnumName<ArgType> kArgTypes[] = {{"kInt", ArgType::kInt},
                                           {"kUInt", ArgType::kUInt},
                                           {"kFloat", ArgType::kFloat},
                                           {"kDouble", ArgType::kDouble},
                                           {"kBool", ArgType::kBool}};

constexpr EnumName<BranchKind> kBranchKinds[] = {
    {"kNone", BranchKind::kNone},
    {"kConditional", BranchKind::kConditional},
    {"kUnconditionalDirect", BranchKind::kUnconditionalDirect},
    {"kUnconditionalIndirect", BranchKind::kUnconditionalIndirect}};

// The field lists (json/fields.h). The writer leaves out a flag that is
// false, `branch` when kNone, `memory` unless the instruction loads or
// stores, and `flops` when 0.

/// One operand of the instruction called `owner`.
constexpr auto ArgumentFields = []<typename IO>(IO& io, auto& arg,
                                                const std::string& owner) {
  io.Field("name", arg.name);
  if constexpr (IO::kReading) {
    if (arg.name.empty()) {
      return io.Fail("argument of '" + owner + "' missing 'name'");
    }
    arg.isImmediate = arg.name == "imm";
  }
  io.Enum("type", arg.type, kArgTypes,
          "unknown argument type in '" + owner + "'");
  if (IO::kReading || arg.writeBack) io.Field("writeBack", arg.writeBack);
  if (IO::kReading || arg.isImmediate) {
    io.Field("isImmediate", arg.isImmediate);
  }
};

constexpr auto InstructionFields = []<typename IO>(IO& io, auto& def) {
  io.Field("name", def.name);
  if constexpr (IO::kReading) {
    if (def.name.empty()) {
      return io.Fail("instruction definition missing 'name'");
    }
  }
  io.Enum("instructionType", def.type, kInstructionTypes,
          "unknown instructionType in definition of '" + def.name + "'");
  io.Enum("opClass", def.opClass, kOpClassNames,
          "unknown opClass in definition of '" + def.name + "'");
  io.Records("arguments", def.args, [&def](auto& sub, auto& arg) {
    ArgumentFields(sub, arg, def.name);
  });
  io.Field("interpretableAs", def.interpretableAs);
  if (IO::kReading || def.branch != BranchKind::kNone) {
    io.Enum("branch", def.branch, kBranchKinds,
            "unknown branch kind in '" + def.name + "'");
  }
  if (IO::kReading || def.IsMemory()) {
    io.Object("memory", def.mem, [&def]<typename Sub>(Sub& sub, auto& mem) {
      sub.Field("isLoad", mem.isLoad);
      sub.Field("isStore", mem.isStore);
      sub.Field("sizeBytes", mem.sizeBytes);
      sub.Field("isSigned", mem.isSigned);
      sub.Field("isFloat", mem.isFloat);
      if constexpr (Sub::kReading) {
        if (mem.sizeBytes != 1 && mem.sizeBytes != 2 && mem.sizeBytes != 4 &&
            mem.sizeBytes != 8) {
          sub.Fail("invalid memory sizeBytes in '" + def.name + "'");
        }
      }
    });
  }
  if (IO::kReading || def.flops != 0) io.Field("flops", def.flops);
  if (IO::kReading || def.takesRoundingMode) {
    io.Field("takesRoundingMode", def.takesRoundingMode);
  }
  if (IO::kReading || def.isHalt) io.Field("isHalt", def.isHalt);
};

}  // namespace

const char* ToString(InstructionType type) {
  return NameOf(kInstructionTypes, type);
}

json::Json ToJson(const InstructionDescription& def) {
  json::FieldWriter io;
  InstructionFields(io, def);
  return std::move(io).Finish();
}

json::Json ToJson(const InstructionSet& set) {
  json::Json out = json::Json::MakeArray();
  for (const InstructionDescription& def : set.all()) {
    out.Append(ToJson(def));
  }
  return out;
}

Result<InstructionDescription> InstructionFromJson(const json::Json& node) {
  if (!node.IsObject()) {
    return Error{ErrorKind::kParse, "instruction definition must be an object"};
  }
  InstructionDescription def;
  json::FieldReader io(node, ErrorKind::kParse);
  InstructionFields(io, def);
  RVSS_RETURN_IF_ERROR(io.status());
  return def;
}

Result<InstructionSet> InstructionSetFromJson(const json::Json& node) {
  if (!node.IsArray()) {
    return Error{ErrorKind::kParse, "instruction set must be a JSON array"};
  }
  std::vector<InstructionDescription> defs;
  defs.reserve(node.AsArray().size());
  for (const json::Json& defNode : node.AsArray()) {
    RVSS_ASSIGN_OR_RETURN(InstructionDescription def,
                          InstructionFromJson(defNode));
    defs.push_back(std::move(def));
  }
  return InstructionSet(std::move(defs));
}

}  // namespace rvss::isa
