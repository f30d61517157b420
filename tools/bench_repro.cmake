# Reproduction check for a deterministic bench: run it and require what it
# produced to match the committed file byte for byte.  Two modes:
#
#   JSON report, written into the build tree:
#   cmake -DBENCH=<bench> -DJSON=<output.json> -DEXPECTED=<committed.json> \
#         -P bench_repro.cmake
#
#   Standard output, captured into the build tree:
#   cmake -DBENCH=<bench> -DSTDOUT=<output.txt> -DEXPECTED=<committed.txt> \
#         -P bench_repro.cmake
if(DEFINED STDOUT)
  execute_process(COMMAND ${BENCH}
                  RESULT_VARIABLE rc OUTPUT_FILE ${STDOUT})
  set(ACTUAL ${STDOUT})
else()
  execute_process(COMMAND ${BENCH} --json=${JSON}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  set(ACTUAL ${JSON})
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${ACTUAL} differs from ${EXPECTED}")
endif()
