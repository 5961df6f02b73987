#include "isa/instruction_set_json.h"

#include "common/enum_names.h"

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

constexpr EnumName<OpClass> kOpClasses[] = {
    {"kIntAlu", OpClass::kIntAlu},   {"kIntMul", OpClass::kIntMul},
    {"kIntDiv", OpClass::kIntDiv},   {"kFpAdd", OpClass::kFpAdd},
    {"kFpMul", OpClass::kFpMul},     {"kFpDiv", OpClass::kFpDiv},
    {"kFpFma", OpClass::kFpFma},     {"kFpOther", OpClass::kFpOther},
    {"kBranch", OpClass::kBranch},   {"kMemAddr", OpClass::kMemAddr}};

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

}  // namespace

const char* ToString(InstructionType type) {
  return NameOf(kInstructionTypes, type);
}

const char* ToString(OpClass opClass) { return NameOf(kOpClasses, opClass); }

std::optional<OpClass> OpClassFromString(std::string_view name) {
  return ValueOf(kOpClasses, name);
}

const char* ToString(ArgType type) { return NameOf(kArgTypes, type); }

json::Json ToJson(const InstructionDescription& def) {
  json::Json node = json::Json::MakeObject();
  node.Set("name", def.name);
  node.Set("instructionType", ToString(def.type));
  node.Set("opClass", ToString(def.opClass));
  json::Json args = json::Json::MakeArray();
  for (const ArgumentDescription& arg : def.args) {
    json::Json argNode = json::Json::MakeObject();
    argNode.Set("name", arg.name);
    argNode.Set("type", ToString(arg.type));
    if (arg.writeBack) argNode.Set("writeBack", true);
    if (arg.isImmediate) argNode.Set("isImmediate", true);
    args.Append(std::move(argNode));
  }
  node.Set("arguments", std::move(args));
  node.Set("interpretableAs", def.interpretableAs);
  if (def.branch != BranchKind::kNone) node.Set("branch", NameOf(kBranchKinds, def.branch));
  if (def.mem.isLoad || def.mem.isStore) {
    json::Json mem = json::Json::MakeObject();
    mem.Set("isLoad", def.mem.isLoad);
    mem.Set("isStore", def.mem.isStore);
    mem.Set("sizeBytes", static_cast<int>(def.mem.sizeBytes));
    mem.Set("isSigned", def.mem.isSigned);
    mem.Set("isFloat", def.mem.isFloat);
    node.Set("memory", std::move(mem));
  }
  if (def.flops != 0) node.Set("flops", static_cast<int>(def.flops));
  if (def.takesRoundingMode) node.Set("takesRoundingMode", true);
  if (def.isHalt) node.Set("isHalt", true);
  return node;
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
  def.name = node.GetString("name", "");
  if (def.name.empty()) {
    return Error{ErrorKind::kParse, "instruction definition missing 'name'"};
  }
  auto type = ValueOf(kInstructionTypes,
                      node.GetString("instructionType", "kArithmetic"));
  if (!type) {
    return Error{ErrorKind::kParse,
                 "unknown instructionType in definition of '" + def.name + "'"};
  }
  def.type = *type;
  auto opClass = OpClassFromString(node.GetString("opClass", "kIntAlu"));
  if (!opClass) {
    return Error{ErrorKind::kParse,
                 "unknown opClass in definition of '" + def.name + "'"};
  }
  def.opClass = *opClass;
  if (const json::Json* args = node.Find("arguments"); args != nullptr) {
    if (!args->IsArray()) {
      return Error{ErrorKind::kParse, "'arguments' must be an array"};
    }
    for (const json::Json& argNode : args->AsArray()) {
      ArgumentDescription arg;
      arg.name = argNode.GetString("name", "");
      if (arg.name.empty()) {
        return Error{ErrorKind::kParse,
                     "argument of '" + def.name + "' missing 'name'"};
      }
      auto argType = ValueOf(kArgTypes, argNode.GetString("type", "kInt"));
      if (!argType) {
        return Error{ErrorKind::kParse,
                     "unknown argument type in '" + def.name + "'"};
      }
      arg.type = *argType;
      arg.writeBack = argNode.GetBool("writeBack", false);
      arg.isImmediate =
          argNode.GetBool("isImmediate", arg.name == "imm");
      def.args.push_back(std::move(arg));
    }
  }
  def.interpretableAs = node.GetString("interpretableAs", "");
  auto branch = ValueOf(kBranchKinds, node.GetString("branch", "kNone"));
  if (!branch) {
    return Error{ErrorKind::kParse,
                 "unknown branch kind in '" + def.name + "'"};
  }
  def.branch = *branch;
  if (const json::Json* mem = node.Find("memory"); mem != nullptr) {
    def.mem.isLoad = mem->GetBool("isLoad", false);
    def.mem.isStore = mem->GetBool("isStore", false);
    def.mem.sizeBytes = static_cast<std::uint8_t>(mem->GetInt("sizeBytes", 0));
    def.mem.isSigned = mem->GetBool("isSigned", false);
    def.mem.isFloat = mem->GetBool("isFloat", false);
    if (def.mem.sizeBytes != 1 && def.mem.sizeBytes != 2 &&
        def.mem.sizeBytes != 4 && def.mem.sizeBytes != 8) {
      return Error{ErrorKind::kParse,
                   "invalid memory sizeBytes in '" + def.name + "'"};
    }
  }
  def.flops = static_cast<std::uint8_t>(node.GetInt("flops", 0));
  def.takesRoundingMode = node.GetBool("takesRoundingMode", false);
  def.isHalt = node.GetBool("isHalt", false);
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
