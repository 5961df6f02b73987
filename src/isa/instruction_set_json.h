// JSON import/export of instruction definitions, following the paper's
// Listing 1 schema ("name" / "instructionType" / "arguments" /
// "interpretableAs") extended with the pipeline-routing metadata.
//
// This is what makes the instruction set *easily extensible* (the paper's
// claim): a user can dump the built-in table, add an instruction, and load
// the result back without recompiling. One field list
// (instruction_set_json.cpp, over json/fields.h) writes and reads each
// definition; the writer leaves out a key at its default.
#pragma once

#include "common/status.h"
#include "isa/instruction_set.h"
#include "json/json.h"

namespace rvss::isa {

/// Serializes a single definition to the Listing-1 schema.
json::Json ToJson(const InstructionDescription& def);

/// Serializes the whole set as a JSON array.
json::Json ToJson(const InstructionSet& set);

/// Parses one definition; validates enum values and argument sanity.
Result<InstructionDescription> InstructionFromJson(const json::Json& node);

/// Parses a whole set from a JSON array.
Result<InstructionSet> InstructionSetFromJson(const json::Json& node);

}  // namespace rvss::isa
