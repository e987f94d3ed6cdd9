# phisched_cli refuses an option of the other mode with exit 2 and a
# message naming the option and its mode, before anything runs. Each of
# these used to exit 0 with the option ignored: `--serve --metrics-out
# m.json` wrote no file, and `--jobs 10 --sla-out x.json` wrote nothing.
# Every batch-only option is tried with --serve and every service option
# without it, on a tiny run, and no output file may be left behind.
set(dir ${WORKDIR}/cli_mode_options)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

set(serve_base --serve --horizon 20 --jobs 10 --nodes 2)
set(batch_base --jobs 10 --nodes 2)

function(expect_refused base mode case)
  list(GET case 0 option)
  list(LENGTH case n)
  set(value "")
  if(n GREATER 1)
    list(GET case 1 value)
  endif()
  execute_process(COMMAND ${CLI} ${base} --${option} ${value}
                  WORKING_DIRECTORY ${dir} TIMEOUT 60
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--${option} (${mode} mode only) exited ${rc}, "
                        "expected 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "--${option} " OR NOT err MATCHES "${mode} mode")
    message(FATAL_ERROR "--${option}: the message does not name the option "
                        "and ${mode} mode:\n${err}")
  endif()
  file(GLOB left RELATIVE ${dir} ${dir}/*)
  if(left)
    message(FATAL_ERROR "--${option} left files behind: ${left}")
  endif()
endfunction()

# Each case is "<option>[;<value>]"; a value naming a file is a path
# that must not appear.
foreach(case
    "compare"
    "arrival-rate;0.5"
    "series"
    "csv;out.csv"
    "save-jobs;out.jobs"
    "load-jobs;missing.jobs"
    "metrics-out;m.json"
    "events-out;e.json"
    "metrics-filter;phi.")
  expect_refused("${serve_base}" batch "${case}")
endforeach()
foreach(case
    "arrivals;poisson:rate=1.0"
    "horizon;5"
    "sla-interval;10"
    "sla-out;sla.json"
    "admit-queue;3"
    "admit-occupancy;0.9"
    "admit-defer;5"
    "admit-max-defers;2"
    "admit-pack"
    "tenants;3"
    "tenant-skew;1"
    "no-drain")
  expect_refused("${batch_base}" service "${case}")
endforeach()
file(REMOVE_RECURSE ${dir})
