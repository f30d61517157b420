# Span-export smoke test: two same-seed nx_pipeline runs must write
# byte-identical span JSONL, and `nxdtool spans` must accept the export.
# The durable section stays off: its spans carry wall-clock nanoseconds.
#
#   cmake -DPIPELINE=<nx_pipeline> -DNXDTOOL=<nxdtool> -DWORK_DIR=<dir> \
#         -P span_smoke.cmake
foreach(run a b)
  execute_process(
    COMMAND ${PIPELINE} --seed=3 --loss=0.1 --max-conns=64
            --spans=${WORK_DIR}/smoke_spans_${run}.jsonl
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nx_pipeline run ${run} exited ${rc}")
  endif()
endforeach()

file(SIZE ${WORK_DIR}/smoke_spans_a.jsonl bytes)
if(bytes EQUAL 0)
  message(FATAL_ERROR "span export is empty")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/smoke_spans_a.jsonl ${WORK_DIR}/smoke_spans_b.jsonl
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "same-seed span exports differ")
endif()

execute_process(COMMAND ${NXDTOOL} spans ${WORK_DIR}/smoke_spans_a.jsonl
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nxdtool spans exited ${rc}")
endif()
