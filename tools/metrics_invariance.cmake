# Metrics-out invariance test: writing a metrics snapshot must not change
# what nx_pipeline reports.  The run puts two resolvers and two networks on
# one registry (--loss and --chaos-upstream) plus the overload section, and
# is made once without and once with --metrics-out.  The stdouts must match
# apart from the "metrics snapshot written to ..." line, which must appear
# exactly once.
#
#   cmake -DPIPELINE=<nx_pipeline> -DWORK_DIR=<dir> -P metrics_invariance.cmake
set(args --seed=3 --loss=0.1 --chaos-upstream=flap --max-conns=64)
execute_process(COMMAND ${PIPELINE} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE plain)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nx_pipeline without --metrics-out exited ${rc}")
endif()
execute_process(
  COMMAND ${PIPELINE} ${args}
          --metrics-out=${WORK_DIR}/metrics_invariance.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE metered)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nx_pipeline with --metrics-out exited ${rc}")
endif()

set(written_line "metrics snapshot written to [^\n]*\n")
string(REGEX MATCHALL "${written_line}" lines "${metered}")
list(LENGTH lines count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "--metrics-out printed ${count} snapshot lines")
endif()
string(REGEX REPLACE "${written_line}" "" metered "${metered}")
if(NOT plain STREQUAL metered)
  message(FATAL_ERROR "stdout depends on --metrics-out")
endif()
