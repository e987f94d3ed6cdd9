# Perf-regression gate for the negotiation pipeline: regenerate
# BENCH_batch.json with the freshly built bench_batch and diff it against
# the committed golden. Every metric is a deterministic simulation output
# (fifo vs batched makespan / wait / turnaround / utilization per stack
# and Fig. 7 distribution), so bench_diff --exact fails the build on any
# change, in either direction, down to one ulp. bench_batch itself hard-fails if a batched
# MCCK run is not bit-identical across a repeat, so a green gate also
# certifies batch-mode determinism.
set(CANDIDATE ${WORKDIR}/BENCH_batch_candidate.json)

execute_process(
  COMMAND ${BENCH_BATCH} --json ${CANDIDATE} --seeds 3 --serial
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_batch --json failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${BENCH_DIFF} ${GOLDEN} ${CANDIDATE} --exact
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batch negotiation gate failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "batch negotiation gate clean:\n${out}")
