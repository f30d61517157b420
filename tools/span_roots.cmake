# Trace-id uniqueness across instances: one nx_pipeline run puts two
# resolvers and two networks on one tracer (--loss and --chaos-upstream);
# every root span in the export must have a trace id of its own.
#
#   cmake -DPIPELINE=<nx_pipeline> -DWORK_DIR=<dir> -P span_roots.cmake
set(export ${WORK_DIR}/span_roots.jsonl)
execute_process(
  COMMAND ${PIPELINE} --seed=3 --loss=0.1 --chaos-upstream=flap
          --spans=${export}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nx_pipeline exited ${rc}")
endif()
file(READ ${export} spans)
string(REGEX MATCHALL "\"trace\":[0-9]+,\"span\":[0-9]+,\"parent\":0,"
       roots "${spans}")
set(ids "")
foreach(root ${roots})
  string(REGEX REPLACE "^\"trace\":([0-9]+),.*" "\\1" id "${root}")
  list(APPEND ids ${id})
endforeach()
list(LENGTH ids total)
list(REMOVE_DUPLICATES ids)
list(LENGTH ids distinct)
if(total EQUAL 0)
  message(FATAL_ERROR "the span export has no root spans")
endif()
if(NOT total EQUAL distinct)
  math(EXPR shared "${total} - ${distinct}")
  message(FATAL_ERROR "${shared} of ${total} root spans share a trace id")
endif()
