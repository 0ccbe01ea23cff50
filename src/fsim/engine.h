// Functional-execution engine selection. The interpreter (fsim::Machine)
// is the golden model; the threaded-code engine (fsim::ThreadedEngine)
// produces bit-identical architectural results faster. The choice applies
// to functional runs (`imac_run run`, the gdb stub). Timed runs always
// drive the threaded engine's block trace (timing/trace.h): TimingSim,
// RunConfig and SweepSpec still accept an ExecEngine, but it has no effect
// there. It never enters sweep cache keys or report bytes.
#pragma once

#include <string>

namespace indexmac {

enum class ExecEngine {
  kInterp,    ///< Machine::step interpreter (golden reference)
  kThreaded,  ///< predecoded threaded-code blocks + fused superblocks
};

/// Stable CLI/JSON name ("interp" / "threaded").
[[nodiscard]] const char* exec_engine_name(ExecEngine engine);

/// Parses an engine name; throws SimError listing the valid names.
[[nodiscard]] ExecEngine parse_exec_engine(const std::string& text);

}  // namespace indexmac
