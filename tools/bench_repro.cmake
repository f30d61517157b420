# Reproduction check for a simulated-time bench: run it with its JSON
# written into the build tree and require the file to match the committed
# one byte for byte.
#
#   cmake -DBENCH=<bench> -DJSON=<output.json> -DEXPECTED=<committed.json> \
#         -P bench_repro.cmake
execute_process(COMMAND ${BENCH} --json=${JSON}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${JSON} ${EXPECTED}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${JSON} differs from ${EXPECTED}")
endif()
