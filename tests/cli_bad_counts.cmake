# phisched_cli rejects count and number options it cannot use, with exit
# 2 and a message naming the option, before anything is built. `--nodes
# -1` used to wrap to SIZE_MAX and segfault; `--overcommit nan` reached
# an undefined float-to-int cast; `--seed 99999999999999999999` was
# silently clamped to INT64_MAX; `--devices 99999999999999999999x5110P`
# failed with a bare "stol". A node holds at most 64 cards
# (phi::kMaxDevicesPerNode), so 65 is refused in both spec forms. Every
# number goes through one reader (common/parse.hpp), so a hex float or a
# padded count is refused in a flag, a `--negotiation` key and an
# `--arrivals` key alike; each used to run with the value in effect.
# No message may carry the build's source directory (SOURCE_DIR): a
# contract failure names its file relative to the tree. A batch run
# with no job (`--jobs 0`, or a job set file holding only its header)
# used to spin idle negotiation cycles until the simulator's runaway
# guard threw, minutes later; each case is bounded by a timeout.
file(WRITE ${WORKDIR}/empty.jobs "# phisched jobset v1\n")
foreach(case
    "--nodes;-1;nodes"
    "--jobs;-5;jobs"
    "--jobs;0;jobs"
    "--load-jobs;empty.jobs;holds no jobs"
    "--devices;99999999999;devices"
    "--devices;65;devices"
    "--devices;65x5110P;devices"
    "--devices;1x7120P+64;devices"
    "--devices;99999999999999999999x5110P;devices"
    "--overcommit;nan;overcommit"
    "--overcommit;1e300;overcommit"
    "--overcommit;0x1.8p0;overcommit"
    "--nodes; 2;nodes"
    "--negotiation;batch:occ=0x1p-1;occ"
    "--serve;--arrivals;poisson:rate=0x1p-1;rate"
    "--seed;99999999999999999999;seed"
    "--serve;--tenants;-2;tenants"
    "--serve;--admit-queue;-1;admit-queue"
    "--serve;--admit-max-defers;-3;admit-max-defers")
  list(POP_BACK case option)
  # --jobs 1 comes first so a case that sets --jobs overrides it.
  execute_process(COMMAND ${CLI} --jobs 1 ${case}
                  WORKING_DIRECTORY ${WORKDIR} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${case} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "${option}")
    message(FATAL_ERROR "${case}: the message does not name ${option}:\n${err}")
  endif()
  string(FIND "${err}" "${SOURCE_DIR}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${case}: the message names the source directory:\n${err}")
  endif()
endforeach()
