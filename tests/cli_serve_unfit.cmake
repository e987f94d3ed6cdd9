# phisched_cli --serve on a fleet too small for part of the arrival mix:
# a 3120A has 228 threads, so the Table I mix's 240-thread jobs fit no
# card of 4x3120A. The service must reject them as unfit and run on
# (exit 0), not abort on the harness's submit precondition.
execute_process(
  COMMAND ${CLI} --serve --nodes 2 --seed 7 --devices 4x3120A
    --arrivals poisson:rate=0.3 --horizon 300
  TIMEOUT 60
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve run on 4x3120A failed (rc=${rc}):\n${out}${err}")
endif()
if(NOT out MATCHES "unfit [1-9][0-9]*")
  message(FATAL_ERROR "no unfit rejection counted:\n${out}")
endif()
