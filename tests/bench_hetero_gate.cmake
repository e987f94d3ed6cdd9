# Perf-regression gate for the heterogeneity extension: regenerate
# BENCH_hetero.json with the freshly built bench_hetero and diff it
# against the committed golden. Each seed runs interference-aware MCCK
# against the interference-blind ablation on a mixed 3120A+7120P fleet
# with the memory-bandwidth contention model on. Every metric is a
# deterministic simulation output, so bench_diff --exact fails the build
# on any change, the aware/blind makespan ratio included. bench_hetero
# itself hard-fails if an aware run diverges from its own repeat, so a
# green gate also certifies heterogeneous-fleet determinism.
set(CANDIDATE ${WORKDIR}/BENCH_hetero_candidate.json)

execute_process(
  COMMAND ${BENCH_HETERO} --json ${CANDIDATE} --seeds 3 --serial
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_hetero --json failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${BENCH_DIFF} ${GOLDEN} ${CANDIDATE} --exact
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "heterogeneity gate failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "heterogeneity gate clean:\n${out}")
