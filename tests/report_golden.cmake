# Byte-compares the stdout of `imac_run report` (per-point and --rollup
# views) on the golden tiny sweep CSV against its checked-in renderings.
#
#   cmake -DIMAC_RUN=<imac_run> -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<dir>
#         -P report_golden.cmake
foreach(view IN ITEMS plain rollup)
  if(view STREQUAL "rollup")
    set(flags --rollup)
    set(golden ${GOLDEN_DIR}/report_tiny_sweep_rollup.txt)
  else()
    set(flags "")
    set(golden ${GOLDEN_DIR}/report_tiny_sweep.txt)
  endif()
  set(actual ${WORK_DIR}/report_tiny_sweep_${view}.txt)
  execute_process(COMMAND ${IMAC_RUN} report ${flags} ${GOLDEN_DIR}/tiny_sweep.csv
                  OUTPUT_FILE ${actual} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "imac_run report ${flags} exited ${rc}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${golden}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "imac_run report ${flags} drifted: compare ${actual} with ${golden}")
  endif()
endforeach()
