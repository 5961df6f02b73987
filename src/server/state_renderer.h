// State renderer: serializes the complete simulator state.
//
// This is the GUI substitution layer (DESIGN.md): the web client's main
// window is, from the simulator's point of view, a consumer of a full
// state snapshot every displayed cycle. RenderJson produces that snapshot
// (the API payload whose serialization dominates request time — experiment
// E2); RenderText produces the terminal rendering used by the
// pipeline_viewer example and benchmarked as the E4 render-cost analogue.
#pragma once

#include <string>

#include "core/simulation.h"
#include "json/json.h"

namespace rvss::server {

struct RenderOptions {
  bool includeMemoryDump = false;  ///< full memory pop-up (paper Fig. 2)
  std::uint32_t logTail = 16;      ///< most recent log entries to include
};

/// Full processor-state snapshot as JSON, streamed through one
/// json::Writer (no DOM is built) and returned as a raw node (json.h):
/// Dump copies its bytes; to read inside it, json::Parse(state.Dump()).
json::Json RenderJson(const core::Simulation& sim,
                      const RenderOptions& options = {});

/// Terminal rendering of the main simulator window (paper Fig. 12):
/// fetch/decode blocks, issue windows, functional units, ROB, registers
/// with rename tags, cache lines and the statistics sidebar.
std::string RenderText(const core::Simulation& sim);

}  // namespace rvss::server
