# A bench's --json flags refuse values they cannot use, with exit 2 and a
# message naming the flag, before any seed runs. `--seeds -1` used to
# become 2^64-1 in strtoull and abort on an uncaught std::length_error;
# `--seed-base -1` and `--threads -1` ran with the wrapped value. The
# 20-digit values are past every range. A case that sets --seeds
# overrides the --seeds 1 in front, so no case asks for a large sweep.
set(OUT ${WORKDIR}/BENCH_bad_flags.json)
foreach(case
    "--seeds;-1"
    "--seeds;99999999999999999999"
    "--seed-base;-1"
    "--seed-base;99999999999999999999"
    "--threads;-1"
    "--threads;99999999999999999999")
  list(GET case 0 flag)
  execute_process(COMMAND ${BENCH_FIG8} --json ${OUT} --seeds 1 ${case}
                  TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${case} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR "${case}: the message does not name ${flag}:\n${err}")
  endif()
endforeach()
