// Command-line interface (paper §II-E): batch execution of large programs
// with runtime-statistics collection.
//
// The paper's CLI ships the program to a simulation server over HTTP; ours
// hosts the same SimServer in-process (DESIGN.md substitution), so the
// mandatory arguments match: an assembly (or C) source file and an
// architecture description in JSON. Optional parameters select the entry
// point, memory configuration, output format and verbosity.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rvss::cli {

/// Runs the CLI. `argv[0]` is the program name. Returns the process exit
/// code (0 success, 1 usage error, 2 simulation error).
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace rvss::cli
