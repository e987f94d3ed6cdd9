# Every example reads its positional arguments with the library's one
# number reader and refuses a value it cannot use with exit 2 and a
# message naming the argument, before it runs anything. They used to
# read them with std::atoll, std::atof and std::atoi: `abc` read as 0,
# so quickstart, footprint_planner, custom_policy and gang_jobs ran an
# empty workload that never returned, and dynamic_arrivals and
# sharing_timeline aborted on a precondition; `0x1p1` read as 0, or as
# 2 for the arrival rate. Each case is bounded by a timeout.
foreach(case
    "quickstart;num_jobs"
    "quickstart;200;num_nodes"
    "quickstart;200;8;seed"
    "footprint_planner;num_jobs"
    "footprint_planner;400;max_nodes"
    "footprint_planner;400;8;seed"
    "dynamic_arrivals;arrival_rate_jobs_per_sec"
    "dynamic_arrivals;2;num_jobs"
    "dynamic_arrivals;2;400;seed"
    "custom_policy;num_jobs"
    "gang_jobs;gang_jobs"
    "gang_jobs;30;single_jobs"
    "sharing_timeline;threads_per_offload")
  list(POP_FRONT case example)
  list(POP_BACK case name)
  foreach(bad abc 0x1p1)
    execute_process(COMMAND ${EXAMPLES}/${example} ${case} ${bad}
                    TIMEOUT 30
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR
        "${example} ${case} ${bad} exited ${rc}, expected 2:\n${out}${err}")
    endif()
    if(NOT err MATCHES "${name}")
      message(FATAL_ERROR
        "${example} ${case} ${bad}: the message does not name ${name}:\n${err}")
    endif()
  endforeach()
endforeach()
