# Thread-count gate: bench_fig9 is the one harness whose seed function
# runs a parallel sweep of its own (makespan_by_size over cluster sizes),
# so a serial run and a 4-thread run of the same seeds exercise outer and
# nested parallel_for calls together. Every metric is a deterministic
# simulation output, so bench_diff --exact fails on any number a thread
# count changed.
set(SERIAL ${WORKDIR}/BENCH_fig9_serial.json)
set(THREADED ${WORKDIR}/BENCH_fig9_threads4.json)

execute_process(
  COMMAND ${BENCH_FIG9} --json ${SERIAL} --seeds 2 --serial
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_fig9 --serial failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${BENCH_FIG9} --json ${THREADED} --seeds 2 --threads 4
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_fig9 --threads 4 failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${BENCH_DIFF} ${SERIAL} ${THREADED} --exact
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig9 thread-count gate failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "fig9 thread-count gate clean:\n${out}")
