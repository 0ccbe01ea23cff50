# Checks how `imac_run` treats command lines it cannot honour: each must exit
# 2 with its message on stderr, not run and exit 0 (or fail later with exit
# 1). A plain `run --timing` of the same program must still succeed.
#
#   cmake -DIMAC_RUN=<imac_run> -DGOLDEN_DIR=<tests/golden> -P run_flags.cmake
set(program ${GOLDEN_DIR}/debug_demo.s)

# Runs `imac_run <subcommand> ARGN` and checks its exit code and stderr.
function(expect_rc want message subcommand)
  string(JOIN " " args ${subcommand} ${ARGN})
  execute_process(COMMAND ${IMAC_RUN} ${subcommand} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "imac_run ${args} exited ${rc}, want ${want}\n${out}${err}")
  endif()
  if(NOT message STREQUAL "" AND NOT err MATCHES "${message}")
    message(FATAL_ERROR "imac_run ${args}: stderr lacks '${message}':\n${err}")
  endif()
endfunction()

expect_rc(2 "--trace cannot be combined with --timing" run --timing --trace ${program})
expect_rc(2 "--trace cannot be combined with --timing" run --trace --timing ${program})
expect_rc(2 "--trace requires --engine interp" run --trace --engine threaded ${program})
expect_rc(0 "" run --timing ${program})
expect_rc(0 "" run --timing --engine threaded ${program})

# A mistyped subcommand, or the retired `imac_run file.s` form, is a usage
# error, not a missing file.
expect_rc(2 "unknown subcommand \"nosuchcmd\"" nosuchcmd)
expect_rc(2 "unknown subcommand" ${program})
expect_rc(2 "imac_run sweep: unknown flag --bogus" sweep --bogus)
expect_rc(2 "imac_run sweep: unknown flag --engine" sweep --engine threaded)
expect_rc(2 "imac_run sweep: --spec expects a value" sweep --spec)
expect_rc(2 "imac_run sweep: --threads must be an integer" sweep --threads 0)
# run times one program and batches nothing, so it takes no --threads.
expect_rc(2 "imac_run run: unknown flag --threads" run --threads 2 ${program})
expect_rc(2 "imac_run run: unknown execution engine \"bogus\"" run --engine bogus ${program})
expect_rc(2 "imac_run gdb: unknown execution engine \"bogus\"" gdb --engine bogus ${program})
