# phisched_cli --load-jobs rejects a job set with a number the reader
# cannot use, with exit 2 and the reader's line-numbered error, before
# anything runs. `submit=inf`, `host inf` and `offload inf ...` used to
# load and then simulate forever.
foreach(case
    "job id=0 mem=100 threads=60 base=0 submit=inf\n  host 1\nend\n"
    "job id=0 mem=100 threads=60 base=0 submit=0\n  host inf\nend\n"
    "job id=0 mem=100 threads=60 base=0 submit=0\n  offload inf 240 1023\nend\n"
    "job id=0 mem=100 threads=4294967536 base=0 submit=0\n  host 1\nend\n"
    "job id=-1 mem=100 threads=60 base=0 submit=0\n  host 1\nend\n")
  file(WRITE ${WORKDIR}/bad_number.jobs "${case}")
  execute_process(
    COMMAND ${CLI} --load-jobs ${WORKDIR}/bad_number.jobs --compare --nodes 2
    TIMEOUT 10
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${case}: exited '${rc}', expected 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "jobset parse error on line [12]:")
    message(FATAL_ERROR "${case}: not the reader's error:\n${err}")
  endif()
endforeach()
