# phisched_jobstats counts a job as unschedulable when the harness's fit
# check refuses it on one node of the --devices fleet: the precondition
# phisched_cli's submit enforces. A 12,000 MiB job and a 2-card gang fit
# no node of the default fleet (one 5110P); both fit a 2x7120P node. A
# malformed spec or a misspelt flag exits 2 instead of being ignored.
file(WRITE ${WORKDIR}/jobstats_fleet.jobs
"job id=0 mem=12000 threads=60
  offload 1 60 11000
end
job id=1 mem=500 threads=60
  offload 1 60 400
end
job id=2 mem=500 threads=60 devices=2
  offload_async 1 60 400 0
  offload_async 1 60 400 1
  sync
end
")
# Each case: expected exit code, a pattern its stdout (stderr on exit 2)
# must match, then the flags.
foreach(case
    "1;unschedulable[^\n]*: 2\n"
    "0;unschedulable[^\n]*: 0\n;--devices;2x7120P"
    "2;devices: unknown generation;--devices;2x7120X"
    "2;unknown flag --device\n;--device;2x7120P")
  list(POP_FRONT case want_rc want)
  execute_process(COMMAND ${JOBSTATS} ${WORKDIR}/jobstats_fleet.jobs ${case}
                  TIMEOUT 10
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "'${case}' exited ${rc}, expected ${want_rc}:\n${out}${err}")
  endif()
  set(text "${out}")
  if(rc EQUAL 2)
    set(text "${err}")
  endif()
  if(NOT text MATCHES "${want}")
    message(FATAL_ERROR "'${case}': no match for '${want}':\n${out}${err}")
  endif()
endforeach()
