# `nxdtool loadstats` smoke test.  bench/overload_shed --snapshot writes the
# 10x run's gate and recorder series as an "nxd-metrics v1" snapshot, and
# loadstats must read it and print the derived rates.  A hand-written
# snapshot then pins the shed rate: it sums every `reason` of
# nxd_honeypot_conns_shed_total (2 capacity + 1 rate + 3 pressure of 10).
#
#   cmake -DBENCH=<overload_shed> -DNXDTOOL=<nxdtool> -DWORK_DIR=<dir> \
#         -P loadstats_smoke.cmake
execute_process(
  COMMAND ${BENCH} --duration=10 --json=${WORK_DIR}/loadstats_overload.json
          --snapshot=${WORK_DIR}/loadstats_snapshot.txt
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "overload_shed exited ${rc}")
endif()
execute_process(
  COMMAND ${NXDTOOL} loadstats ${WORK_DIR}/loadstats_snapshot.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nxdtool loadstats exited ${rc}")
endif()
foreach(want "nxd_honeypot_conns_opened_total" "nxd_honeypot_records_total"
             "accept rate" "shed rate" "reap rate")
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "loadstats output lacks '${want}':\n${out}")
  endif()
endforeach()

file(WRITE ${WORK_DIR}/loadstats_pressure.txt
"nxd-metrics v1
counter nxd_honeypot_conns_opened_total 10
counter nxd_honeypot_conns_accepted_total 4
counter nxd_honeypot_conns_shed_total{reason=capacity} 2
counter nxd_honeypot_conns_shed_total{reason=pressure} 3
counter nxd_honeypot_conns_shed_total{reason=rate} 1
counter nxd_honeypot_conns_expired_total{phase=idle} 1
")
execute_process(
  COMMAND ${NXDTOOL} loadstats ${WORK_DIR}/loadstats_pressure.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nxdtool loadstats exited ${rc} on the pressure file")
endif()
foreach(want "accept rate  40.0%" "shed rate    60.0%"
             "reap rate    25.0% (of accepted)")
  string(FIND "${out}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "loadstats output lacks '${want}':\n${out}")
  endif()
endforeach()
