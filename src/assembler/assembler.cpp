#include "assembler/assembler.h"

#include <cctype>
#include <optional>
#include <unordered_set>

#include "assembler/lexer.h"
#include "common/bitops.h"
#include "common/strings.h"
#include "config/cpu_config.h"
#include "isa/pseudo.h"

namespace rvss::assembler {
namespace {

// ---------------------------------------------------------------------------
// Operand expression evaluation (pass 2 and .word relocations)
// ---------------------------------------------------------------------------

class ExprParser {
 public:
  ExprParser(std::string_view text,
             const std::map<std::string, std::uint32_t>& symbols,
             std::uint32_t lineNo)
      : text_(text), symbols_(symbols), lineNo_(lineNo) {}

  Result<std::int64_t> Parse() {
    RVSS_ASSIGN_OR_RETURN(std::int64_t value, ParseSum());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters in expression '" + std::string(text_) +
                  "'");
    }
    return value;
  }

 private:
  Error Fail(std::string message) const {
    return Error{ErrorKind::kParse, std::move(message), SourcePos{lineNo_, 0}};
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::int64_t> ParseSum() {
    RVSS_ASSIGN_OR_RETURN(std::int64_t value, ParseProduct());
    while (true) {
      if (Consume('+')) {
        RVSS_ASSIGN_OR_RETURN(std::int64_t rhs, ParseProduct());
        value += rhs;
      } else if (Consume('-')) {
        RVSS_ASSIGN_OR_RETURN(std::int64_t rhs, ParseProduct());
        value -= rhs;
      } else {
        return value;
      }
    }
  }

  Result<std::int64_t> ParseProduct() {
    RVSS_ASSIGN_OR_RETURN(std::int64_t value, ParsePrimary());
    while (Consume('*')) {
      RVSS_ASSIGN_OR_RETURN(std::int64_t rhs, ParsePrimary());
      value *= rhs;
    }
    return value;
  }

  Result<std::int64_t> ParsePrimary() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("expected operand expression");
    char c = text_[pos_];
    if (c == '-') {
      ++pos_;
      RVSS_ASSIGN_OR_RETURN(std::int64_t value, ParsePrimary());
      return -value;
    }
    if (c == '(') {
      ++pos_;
      RVSS_ASSIGN_OR_RETURN(std::int64_t value, ParseSum());
      if (!Consume(')')) return Fail("expected ')'");
      return value;
    }
    if (c == '%') {
      // %hi(expr) / %lo(expr) relocation operators.
      ++pos_;
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      std::string_view op = text_.substr(start, pos_ - start);
      if (!Consume('(')) return Fail("expected '(' after %" + std::string(op));
      RVSS_ASSIGN_OR_RETURN(std::int64_t value, ParseSum());
      if (!Consume(')')) return Fail("expected ')'");
      const std::uint32_t address = static_cast<std::uint32_t>(value);
      if (op == "hi") {
        // Upper 20 bits with the +0x800 rounding that pairs with %lo.
        return static_cast<std::int64_t>(((address + 0x800u) >> 12) & 0xfffffu);
      }
      if (op == "lo") {
        // Sign-extended low 12 bits.
        return SignExtend(address & 0xfffu, 12);
      }
      return Fail("unknown relocation operator %" + std::string(op));
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])))) {
        ++pos_;
      }
      auto value = ParseInt(text_.substr(start, pos_ - start));
      if (!value) return Fail("malformed number in expression");
      return *value;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == '$')) {
        ++pos_;
      }
      std::string symbol(text_.substr(start, pos_ - start));
      auto it = symbols_.find(symbol);
      if (it == symbols_.end()) {
        return Fail("undefined symbol '" + symbol + "'");
      }
      return static_cast<std::int64_t>(it->second);
    }
    return Fail(std::string("unexpected character '") + c + "' in expression");
  }

  std::string_view text_;
  const std::map<std::string, std::uint32_t>& symbols_;
  std::uint32_t lineNo_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Pass-1 state
// ---------------------------------------------------------------------------

/// An instruction captured in pass 1: mnemonic resolved to a definition,
/// operand texts kept for pass-2 evaluation.
struct PendingInstruction {
  const isa::InstructionDescription* def = nullptr;
  std::vector<std::string> operandTexts;
  std::uint32_t pc = 0;
  std::uint32_t sourceLine = 0;
  std::int32_t cLine = -1;
};

/// A `.word expr` whose value needs pass-2 symbol resolution.
struct DataRelocation {
  std::size_t imageOffset = 0;
  std::uint8_t size = 4;
  std::string expression;
  std::uint32_t sourceLine = 0;
};

const std::unordered_set<std::string_view>& IgnorableDirectives() {
  static const auto* kSet = new std::unordered_set<std::string_view>{
      ".globl", ".global", ".local",  ".type",   ".size",   ".file",
      ".ident", ".option", ".attribute", ".weak", ".section", ".sect",
      ".rodata", ".bss", ".cfi_startproc", ".cfi_endproc", ".cfi_offset",
      ".cfi_def_cfa_offset", ".cfi_restore", ".cfi_def_cfa",
  };
  return *kSet;
}

Result<std::string> DecodeStringLiteral(std::string_view text,
                                        std::uint32_t lineNo) {
  if (text.size() < 2 || text.front() != '"' || text.back() != '"') {
    return Error{ErrorKind::kParse, "expected string literal",
                 SourcePos{lineNo, 0}};
  }
  std::string out;
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    char c = text[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (i + 2 >= text.size() + 1) {
      return Error{ErrorKind::kParse, "dangling escape in string",
                   SourcePos{lineNo, 0}};
    }
    char esc = text[++i];
    switch (esc) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case '0': out += '\0'; break;
      case '\\': out += '\\'; break;
      case '"': out += '"'; break;
      default:
        return Error{ErrorKind::kParse,
                     std::string("unknown escape '\\") + esc + "' in string",
                     SourcePos{lineNo, 0}};
    }
  }
  return out;
}

bool IsRoundingModeName(std::string_view text) {
  return text == "rne" || text == "rtz" || text == "rdn" || text == "rup" ||
         text == "rmm" || text == "dyn";
}

std::int32_t ParseCLineComment(std::string_view comment) {
  // The rvcc compiler links C and assembly lines by tagging emitted
  // instructions with "@c <line>" comments.
  comment = Trim(comment);
  if (!StartsWith(comment, "@c ")) return -1;
  auto value = ParseInt(Trim(comment.substr(3)));
  if (!value || *value < 0) return -1;
  return static_cast<std::int32_t>(*value);
}

}  // namespace

Result<std::int64_t> EvaluateOperandExpression(
    std::string_view text, const std::map<std::string, std::uint32_t>& symbols,
    std::uint32_t lineNo) {
  return ExprParser(text, symbols, lineNo).Parse();
}

Result<Program> Assembler::Assemble(std::string_view source,
                                    const AssembleOptions& options) const {
  RVSS_ASSIGN_OR_RETURN(std::vector<Line> lines, LexSource(source));

  // ---------------- Pass 1 ----------------
  enum class Section { kText, kData };
  Section section = Section::kText;

  std::vector<PendingInstruction> pending;
  std::vector<std::uint8_t> dataImage;
  std::vector<DataRelocation> relocations;
  // Label name -> (isCode, position): code positions are instruction
  // indices, data positions are offsets into dataImage.
  struct LabelPos {
    bool isCode = true;
    std::uint32_t position = 0;
    std::uint32_t line = 0;
  };
  std::map<std::string, LabelPos> labelPositions;

  auto defineLabels = [&](const Line& line) -> Status {
    for (const std::string& label : line.labels) {
      if (labelPositions.contains(label) ||
          options.externalSymbols.contains(label)) {
        return Status::Fail(ErrorKind::kSemantic,
                            "duplicate label '" + label + "'",
                            SourcePos{line.number, 0});
      }
      labelPositions.emplace(
          label,
          LabelPos{section == Section::kText,
                   section == Section::kText
                       ? static_cast<std::uint32_t>(pending.size())
                       : static_cast<std::uint32_t>(dataImage.size()),
                   line.number});
    }
    return Status::Ok();
  };

  auto appendData = [&](std::uint8_t size, std::uint64_t value) {
    for (std::uint8_t i = 0; i < size; ++i) {
      dataImage.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  };

  // The image may not outgrow the largest memory a configuration admits.
  // Padding is checked before it is allocated; other data grows with the
  // source text, and is checked after each directive.
  const auto tooLarge = [](const SourcePos& pos) {
    return Error{ErrorKind::kParse,
                 "data image larger than " +
                     std::to_string(config::kMaxMemoryBytes >> 20) +
                     " MiB, the largest memory",
                 pos};
  };
  auto padTo = [&](std::uint64_t size, const SourcePos& pos) -> Status {
    if (size > config::kMaxMemoryBytes) return tooLarge(pos);
    if (size > dataImage.size()) dataImage.resize(size, 0);
    return Status::Ok();
  };

  for (const Line& line : lines) {
    RVSS_RETURN_IF_ERROR(defineLabels(line));
    if (line.mnemonic.empty()) continue;
    const std::string& m = line.mnemonic;
    const SourcePos pos{line.number, 0};

    if (m[0] == '.') {
      // ------- directives -------
      if (m == ".text") {
        section = Section::kText;
      } else if (m == ".data") {
        section = Section::kData;
      } else if (m == ".section") {
        section = (!line.operands.empty() &&
                   (line.operands[0] == ".text"))
                      ? Section::kText
                      : Section::kData;
      } else if (m == ".byte" || m == ".hword" || m == ".half" ||
                 m == ".word") {
        if (section != Section::kData) {
          return Error{ErrorKind::kSemantic,
                       "data directive '" + m + "' outside .data section", pos};
        }
        const std::uint8_t size = m == ".byte" ? 1 : m == ".word" ? 4 : 2;
        for (const std::string& operand : line.operands) {
          if (auto value = ParseInt(operand); value.has_value()) {
            appendData(size, static_cast<std::uint64_t>(*value));
          } else {
            // Symbolic: resolve in pass 2 once addresses are known.
            relocations.push_back(DataRelocation{dataImage.size(), size,
                                                 operand, line.number});
            appendData(size, 0);
          }
        }
      } else if (m == ".float" || m == ".double") {
        if (section != Section::kData) {
          return Error{ErrorKind::kSemantic,
                       "data directive '" + m + "' outside .data section", pos};
        }
        for (const std::string& operand : line.operands) {
          auto value = ParseDouble(operand);
          if (!value) {
            return Error{ErrorKind::kParse,
                         "malformed floating-point literal '" + operand + "'",
                         pos};
          }
          if (m == ".float") {
            appendData(4, FloatToBits(static_cast<float>(*value)));
          } else {
            appendData(8, DoubleToBits(*value));
          }
        }
      } else if (m == ".align" || m == ".p2align") {
        // Power-of-two alignment (the paper's `.align 4` == 16 bytes).
        if (line.operands.size() != 1) {
          return Error{ErrorKind::kParse, m + " expects one operand", pos};
        }
        auto power = ParseInt(line.operands[0]);
        if (!power || *power < 0 || *power > 16) {
          return Error{ErrorKind::kParse, "invalid alignment", pos};
        }
        if (section == Section::kData) {
          RVSS_RETURN_IF_ERROR(padTo(
              AlignUp(dataImage.size(), std::uint64_t{1} << *power), pos));
        }
      } else if (m == ".balign") {
        if (line.operands.size() != 1) {
          return Error{ErrorKind::kParse, ".balign expects one operand", pos};
        }
        auto bytes = ParseInt(line.operands[0]);
        if (!bytes || *bytes <= 0 || !IsPowerOfTwo(static_cast<std::uint64_t>(*bytes))) {
          return Error{ErrorKind::kParse, "invalid .balign operand", pos};
        }
        if (section == Section::kData) {
          RVSS_RETURN_IF_ERROR(padTo(
              AlignUp(dataImage.size(), static_cast<std::uint64_t>(*bytes)),
              pos));
        }
      } else if (m == ".ascii" || m == ".asciiz" || m == ".string") {
        if (section != Section::kData) {
          return Error{ErrorKind::kSemantic,
                       "string directive outside .data section", pos};
        }
        if (line.operands.size() != 1) {
          return Error{ErrorKind::kParse, m + " expects one string operand",
                       pos};
        }
        RVSS_ASSIGN_OR_RETURN(std::string decoded,
                              DecodeStringLiteral(line.operands[0],
                                                  line.number));
        for (char c : decoded) dataImage.push_back(static_cast<std::uint8_t>(c));
        if (m != ".ascii") dataImage.push_back(0);  // NUL terminator
      } else if (m == ".skip" || m == ".zero") {
        if (section != Section::kData) {
          return Error{ErrorKind::kSemantic,
                       "'" + m + "' outside .data section", pos};
        }
        if (line.operands.size() != 1) {
          return Error{ErrorKind::kParse, m + " expects one operand", pos};
        }
        auto count = ParseInt(line.operands[0]);
        if (!count || *count < 0 || *count > (1 << 24)) {
          return Error{ErrorKind::kParse, "invalid size for " + m, pos};
        }
        RVSS_RETURN_IF_ERROR(padTo(
            dataImage.size() + static_cast<std::uint64_t>(*count), pos));
      } else if (IgnorableDirectives().contains(m)) {
        // Assembler metadata with no simulation meaning.
      } else {
        return Error{ErrorKind::kParse, "unknown directive '" + m + "'", pos};
      }
      if (dataImage.size() > config::kMaxMemoryBytes) return tooLarge(pos);
      continue;
    }

    // ------- instructions -------
    if (section != Section::kText) {
      return Error{ErrorKind::kSemantic,
                   "instruction '" + m + "' outside .text section", pos};
    }
    const std::int32_t cLine = ParseCLineComment(line.comment);

    // Single-operand jump conveniences resolve before pseudo expansion.
    std::string mnemonic = m;
    std::vector<std::string> operands = line.operands;
    if (mnemonic == "jal" && operands.size() == 1) {
      operands.insert(operands.begin(), "ra");
    } else if (mnemonic == "jalr" && operands.size() == 1) {
      operands = {"ra", operands[0], "0"};
    } else if (mnemonic == "jalr" && operands.size() == 2 &&
               operands[1].find('(') == std::string::npos) {
      operands.push_back("0");
    }

    std::vector<isa::ExpandedInstruction> expanded;
    // GNU bare-symbol memory forms:
    //   lw rd, sym        -> lui rd, %hi(sym);  lw rd, %lo(sym)(rd)
    //   flw fd, sym, rt   -> lui rt, %hi(sym);  flw fd, %lo(sym)(rt)
    //   sw rs, sym, rt    -> lui rt, %hi(sym);  sw rs, %lo(sym)(rt)
    const isa::InstructionDescription* directDef = isa_.Find(mnemonic);
    if (directDef != nullptr && directDef->IsMemory() && operands.size() >= 2 &&
        operands[1].find('(') == std::string::npos) {
      if (auto literal = ParseInt(operands[1]); literal.has_value()) {
        // Plain absolute offset: address it off x0.
        operands[1] += "(zero)";
        expanded = {isa::ExpandedInstruction{mnemonic, operands}};
      } else if (operands.size() == 3) {
        const std::string temp = operands[2];
        expanded = {
            isa::ExpandedInstruction{"lui", {temp, "%hi(" + operands[1] + ")"}},
            isa::ExpandedInstruction{
                mnemonic,
                {operands[0], "%lo(" + operands[1] + ")(" + temp + ")"}}};
      } else if (directDef->mem.isLoad && !directDef->mem.isFloat) {
        expanded = {
            isa::ExpandedInstruction{"lui",
                                     {operands[0], "%hi(" + operands[1] + ")"}},
            isa::ExpandedInstruction{
                mnemonic,
                {operands[0], "%lo(" + operands[1] + ")(" + operands[0] + ")"}}};
      } else {
        return Error{ErrorKind::kParse,
                     "store / FP load to a bare symbol needs a temp register "
                     "(e.g. `sw rs, sym, t0`)",
                     pos};
      }
    } else if (isa::IsPseudoInstruction(mnemonic) && isa_.Find(mnemonic) == nullptr) {
      auto expansion = isa::ExpandPseudoInstruction(mnemonic, operands);
      if (!expansion.ok()) {
        Error error = expansion.error();
        error.pos = pos;
        return error;
      }
      expanded = std::move(expansion).value();
    } else {
      expanded = {isa::ExpandedInstruction{mnemonic, operands}};
    }

    for (isa::ExpandedInstruction& unit : expanded) {
      const isa::InstructionDescription* def = isa_.Find(unit.mnemonic);
      if (def == nullptr) {
        return Error{ErrorKind::kParse,
                     "unknown instruction '" + unit.mnemonic + "'", pos};
      }
      PendingInstruction instr;
      instr.def = def;
      instr.operandTexts = std::move(unit.operands);
      instr.pc = static_cast<std::uint32_t>(pending.size()) * 4;
      instr.sourceLine = line.number;
      instr.cLine = cLine;
      pending.push_back(std::move(instr));
    }
  }

  // ---------------- Memory allocation between passes ----------------
  Program program;
  program.dataBase = options.dataBase;
  program.dataImage = std::move(dataImage);
  program.labels = options.externalSymbols;
  for (const auto& [name, position] : labelPositions) {
    program.labels[name] = position.isCode
                               ? position.position * 4
                               : options.dataBase + position.position;
  }

  // Resolve .word relocations now that every label has an address.
  for (const DataRelocation& reloc : relocations) {
    RVSS_ASSIGN_OR_RETURN(
        std::int64_t value,
        EvaluateOperandExpression(reloc.expression, program.labels,
                                  reloc.sourceLine));
    for (std::uint8_t i = 0; i < reloc.size; ++i) {
      program.dataImage[reloc.imageOffset + i] =
          static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) >> (8 * i));
    }
  }

  // ---------------- Pass 2: operand resolution ----------------
  program.instructions.reserve(pending.size());
  for (PendingInstruction& instr : pending) {
    Instruction out;
    out.def = instr.def;
    out.pc = instr.pc;
    out.sourceLine = instr.sourceLine;
    out.cLine = instr.cLine;

    // Drop a trailing rounding-mode operand on FP instructions.
    std::vector<std::string>& texts = instr.operandTexts;
    if (instr.def->takesRoundingMode && !texts.empty() &&
        IsRoundingModeName(texts.back())) {
      texts.pop_back();
    }

    // Memory-style syntax: rewrite `imm(rs1)` into separate fields.
    const bool memForm = instr.def->IsMemory();
    std::vector<std::string> fields;
    if (memForm) {
      if (texts.size() != 2) {
        return Error{ErrorKind::kParse,
                     instr.def->name + " expects 2 operands",
                     SourcePos{instr.sourceLine, 0}};
      }
      std::string& mem = texts[1];
      std::size_t open = mem.rfind('(');
      if (open == std::string::npos || mem.back() != ')') {
        return Error{ErrorKind::kParse,
                     "expected 'offset(register)' operand in " +
                         instr.def->name,
                     SourcePos{instr.sourceLine, 0}};
      }
      std::string offset(Trim(std::string_view(mem).substr(0, open)));
      std::string base = mem.substr(open + 1, mem.size() - open - 2);
      if (offset.empty()) offset = "0";
      // Definition order is rd/rs2, rs1, imm.
      fields = {texts[0], std::string(Trim(base)), offset};
    } else if (instr.def->name == "jalr" && texts.size() == 2 &&
               texts[1].find('(') != std::string::npos) {
      std::string& mem = texts[1];
      std::size_t open = mem.rfind('(');
      if (mem.back() != ')') {
        return Error{ErrorKind::kParse, "malformed jalr operand",
                     SourcePos{instr.sourceLine, 0}};
      }
      std::string offset(Trim(std::string_view(mem).substr(0, open)));
      std::string base = mem.substr(open + 1, mem.size() - open - 2);
      if (offset.empty()) offset = "0";
      fields = {texts[0], std::string(Trim(base)), offset};
    } else {
      fields = texts;
    }

    if (fields.size() != instr.def->args.size()) {
      return Error{ErrorKind::kParse,
                   instr.def->name + " expects " +
                       std::to_string(instr.def->args.size()) +
                       " operand(s), got " + std::to_string(fields.size()),
                   SourcePos{instr.sourceLine, 0}};
    }

    for (std::size_t i = 0; i < fields.size(); ++i) {
      const isa::ArgumentDescription& arg = instr.def->args[i];
      Operand operand;
      operand.text = fields[i];
      if (!arg.isImmediate) {
        auto reg = isa::ParseRegisterName(fields[i]);
        if (!reg) {
          return Error{ErrorKind::kParse,
                       "expected register, got '" + fields[i] + "' in " +
                           instr.def->name,
                       SourcePos{instr.sourceLine, 0}};
        }
        const bool wantFp = arg.IsFpRegister();
        if (wantFp != (reg->kind == isa::RegisterKind::kFp)) {
          return Error{ErrorKind::kSemantic,
                       std::string("register '") + fields[i] + "' is the wrong "
                       "register file for " + instr.def->name,
                       SourcePos{instr.sourceLine, 0}};
        }
        operand.isRegister = true;
        operand.reg = *reg;
      } else {
        RVSS_ASSIGN_OR_RETURN(
            std::int64_t value,
            EvaluateOperandExpression(fields[i], program.labels,
                                      instr.sourceLine));
        // Branch and direct-jump targets become PC-relative immediates
        // (the paper: "it is sometimes necessary to subtract the
        // instruction's position from the absolute value of the label").
        if (instr.def->branch == isa::BranchKind::kConditional ||
            instr.def->branch == isa::BranchKind::kUnconditionalDirect) {
          value -= instr.pc;
        }
        // Range checks where the ISA defines an encoding limit.
        if (instr.def->name == "slli" || instr.def->name == "srli" ||
            instr.def->name == "srai") {
          if (value < 0 || value > 31) {
            return Error{ErrorKind::kSemantic,
                         "shift amount out of range [0, 31]",
                         SourcePos{instr.sourceLine, 0}};
          }
        } else if (instr.def->name == "lui" || instr.def->name == "auipc") {
          if (value < 0 || value > 0xfffff) {
            return Error{ErrorKind::kSemantic,
                         "20-bit immediate out of range",
                         SourcePos{instr.sourceLine, 0}};
          }
        } else if (instr.def->opClass == isa::OpClass::kIntAlu &&
                   instr.def->args.size() == 3 && arg.name == "imm") {
          if (value < -2048 || value > 2047) {
            return Error{ErrorKind::kSemantic,
                         "12-bit immediate out of range in " + instr.def->name,
                         SourcePos{instr.sourceLine, 0}};
          }
        } else if (instr.def->IsMemory() ||
                   instr.def->name == "jalr") {
          if (value < -2048 || value > 2047) {
            return Error{ErrorKind::kSemantic,
                         "12-bit offset out of range in " + instr.def->name,
                         SourcePos{instr.sourceLine, 0}};
          }
        }
        operand.isRegister = false;
        operand.imm = static_cast<std::int32_t>(value);
      }
      out.operands.push_back(std::move(operand));
    }

    // Canonical display text.
    out.text = instr.def->name;
    for (std::size_t i = 0; i < out.operands.size(); ++i) {
      out.text += i == 0 ? " " : ", ";
      out.text += out.operands[i].text;
    }

    program.instructions.push_back(std::move(out));
  }

  // ---------------- Entry point ----------------
  if (!options.entryLabel.empty()) {
    auto it = program.labels.find(options.entryLabel);
    if (it == program.labels.end()) {
      return Error{ErrorKind::kSemantic,
                   "entry label '" + options.entryLabel + "' is not defined"};
    }
    auto posIt = labelPositions.find(options.entryLabel);
    if (posIt == labelPositions.end() || !posIt->second.isCode) {
      return Error{ErrorKind::kSemantic,
                   "entry label '" + options.entryLabel +
                       "' does not name code"};
    }
    program.entryPc = it->second;
  } else {
    program.entryPc = 0;
  }

  if (program.instructions.empty()) {
    return Error{ErrorKind::kSemantic, "program contains no instructions"};
  }
  return program;
}

}  // namespace rvss::assembler
