# Checks how `imac_run run` treats flag combinations it cannot honour: each
# must exit 2 with its message on stderr, not run and exit 0. A plain
# `run --timing` of the same program must still succeed.
#
#   cmake -DIMAC_RUN=<imac_run> -DGOLDEN_DIR=<tests/golden> -P run_flags.cmake
set(program ${GOLDEN_DIR}/debug_demo.s)

function(expect_rc want message)
  string(JOIN " " flags ${ARGN})
  execute_process(COMMAND ${IMAC_RUN} run ${ARGN} ${program}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "imac_run run ${flags} exited ${rc}, want ${want}\n${out}${err}")
  endif()
  if(NOT message STREQUAL "" AND NOT err MATCHES "${message}")
    message(FATAL_ERROR "imac_run run ${flags}: stderr lacks '${message}':\n${err}")
  endif()
endfunction()

expect_rc(2 "--trace cannot be combined with --timing" --timing --trace)
expect_rc(2 "--trace cannot be combined with --timing" --trace --timing)
expect_rc(2 "--trace requires --engine interp" --trace --engine threaded)
expect_rc(0 "" --timing)
expect_rc(0 "" --timing --engine threaded)
