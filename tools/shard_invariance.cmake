# Shard-count invariance smoke test: the sharded in-memory ingest of
# `nx_pipeline --threads=N` must print the same report for every N.  Only
# the "(sharded ingest: N workers over N shards, ...)" line names N; it must
# appear exactly once per run and is the one line left out of the compare.
#
#   cmake -DPIPELINE=<nx_pipeline> -P shard_invariance.cmake
set(sharded_line "\\(sharded ingest: [0-9]+ workers over [0-9]+ shards, [^\n]*\n")
foreach(threads 2 4)
  execute_process(
    COMMAND ${PIPELINE} --seed=3 --threads=${threads}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nx_pipeline --threads=${threads} exited ${rc}")
  endif()
  string(REGEX MATCHALL "${sharded_line}" lines "${out}")
  list(LENGTH lines count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR
            "--threads=${threads} printed ${count} sharded ingest lines")
  endif()
  string(REGEX REPLACE "${sharded_line}" "" report_${threads} "${out}")
endforeach()

if(NOT report_2 STREQUAL report_4)
  message(FATAL_ERROR "--threads=2 and --threads=4 reports differ")
endif()
