# --pcie-bandwidth sets every card's link on every fleet. `--devices 2`
# and `--devices 2x5110P` name the same two cards, so their reports must
# be byte-identical, and a 200 MiB/s link must change both against the
# default 6,144 MiB/s.
set(run --stack MCC --jobs 200 --nodes 2 --pcie-contention)
foreach(devices 2 2x5110P)
  foreach(bandwidth slow default)
    set(extra)
    if(bandwidth STREQUAL "slow")
      set(extra --pcie-bandwidth 200)
    endif()
    execute_process(COMMAND ${CLI} ${run} --devices ${devices} ${extra}
                    TIMEOUT 60
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "--devices ${devices} ${extra} exited ${rc}:\n${out}${err}")
    endif()
    set(${bandwidth}_${devices} "${out}")
  endforeach()
endforeach()
if(NOT slow_2 STREQUAL slow_2x5110P)
  message(FATAL_ERROR "--pcie-bandwidth 200: --devices 2 and 2x5110P differ:\n"
                      "${slow_2}\n---\n${slow_2x5110P}")
endif()
foreach(devices 2 2x5110P)
  if(slow_${devices} STREQUAL default_${devices})
    message(FATAL_ERROR "--devices ${devices}: --pcie-bandwidth 200 changed "
                        "nothing:\n${slow_${devices}}")
  endif()
endforeach()
