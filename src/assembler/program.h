// The assembled program: decoded instruction objects plus the data image.
//
// Like the paper's simulator, execution works on instruction *objects*
// produced by the assembler (linked to their behaviour description and
// resolved operands), not on encoded machine words. Code lives in its own
// segment addressed by PC (pc = 4 * instruction index); data directives
// assemble into a byte image that simulation startup copies into main
// memory at `dataBase`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction_set.h"
#include "isa/register_file_info.h"

namespace rvss::assembler {

/// One resolved operand, parallel to the definition's argument list.
struct Operand {
  bool isRegister = false;
  isa::RegisterId reg;       ///< valid when isRegister
  std::int32_t imm = 0;      ///< valid when !isRegister
  std::string text;          ///< as written, for display ("arr+64")
};

/// One decoded instruction.
struct Instruction {
  const isa::InstructionDescription* def = nullptr;
  std::vector<Operand> operands;
  std::uint32_t pc = 0;
  std::uint32_t sourceLine = 0;  ///< 1-based line in the assembly text
  std::int32_t cLine = -1;       ///< linked C source line (compiler metadata)
  std::string text;              ///< canonical display text
};

/// A fully assembled program.
struct Program {
  std::vector<Instruction> instructions;
  /// Every label with its resolved value (code labels: instruction
  /// addresses; data labels: memory addresses).
  std::map<std::string, std::uint32_t> labels;
  std::vector<std::uint8_t> dataImage;  ///< assembled .data/.bss payload
  std::uint32_t dataBase = 0;           ///< load address of dataImage
  std::uint32_t entryPc = 0;
};

}  // namespace rvss::assembler
