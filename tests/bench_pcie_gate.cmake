# Perf-regression gate: regenerate BENCH_pcie.json with the freshly
# built bench_pcie_hier and diff it against the committed golden. The
# metrics are deterministic (pure simulation), so bench_diff --exact
# fails the build on any change at all — per-card throughput, recovered
# Table 1 constants, or the full-stack makespan/wait/turnaround/
# utilization, in either direction, down to one ulp.
set(CANDIDATE ${WORKDIR}/BENCH_pcie_candidate.json)

execute_process(
  COMMAND ${BENCH_PCIE_HIER} --json ${CANDIDATE} --seeds 3 --serial
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_pcie_hier --json failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND ${BENCH_DIFF} ${GOLDEN} ${CANDIDATE} --exact
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "PCIe perf gate failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "PCIe perf gate clean:\n${out}")
