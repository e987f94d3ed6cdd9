# bench_diff smoke: identical reports pass, a regressed makespan fails
# with a non-zero exit, an improved makespan passes, and a sub-threshold
# wobble is tolerated.
set(BASE ${WORKDIR}/bench_diff_base.json)
set(SAME ${WORKDIR}/bench_diff_same.json)
set(WORSE ${WORKDIR}/bench_diff_worse.json)
set(BETTER ${WORKDIR}/bench_diff_better.json)
set(WOBBLE ${WORKDIR}/bench_diff_wobble.json)

file(WRITE ${BASE} [=[
{"bench":"table2","schema_version":1,
 "environment":{"compiler":"x","build_type":"Release","os":"linux","hardware_concurrency":8},
 "threads_used":2,"wall_time_s":1.0,
 "results":[
  {"seed":42,"metrics":{"mc_makespan_s":1000.0,"mcck_makespan_s":600.0,"mcck_core_util":0.82}},
  {"seed":43,"metrics":{"mc_makespan_s":1010.0,"mcck_makespan_s":610.0,"mcck_core_util":0.81}}
 ]}
]=])
file(WRITE ${SAME} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mc_makespan_s":1000.0,"mcck_makespan_s":600.0,"mcck_core_util":0.82}},
  {"seed":43,"metrics":{"mc_makespan_s":1010.0,"mcck_makespan_s":610.0,"mcck_core_util":0.81}}
 ]}
]=])
# 10% worse makespan on one seed AND a utilization drop.
file(WRITE ${WORSE} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mc_makespan_s":1000.0,"mcck_makespan_s":660.0,"mcck_core_util":0.70}},
  {"seed":43,"metrics":{"mc_makespan_s":1010.0,"mcck_makespan_s":610.0,"mcck_core_util":0.81}}
 ]}
]=])
file(WRITE ${BETTER} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mc_makespan_s":1000.0,"mcck_makespan_s":540.0,"mcck_core_util":0.88}},
  {"seed":43,"metrics":{"mc_makespan_s":1010.0,"mcck_makespan_s":550.0,"mcck_core_util":0.87}}
 ]}
]=])
# +1% makespan: inside the default 2% tolerance.
file(WRITE ${WOBBLE} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mc_makespan_s":1000.0,"mcck_makespan_s":606.0,"mcck_core_util":0.82}},
  {"seed":43,"metrics":{"mc_makespan_s":1010.0,"mcck_makespan_s":612.0,"mcck_core_util":0.81}}
 ]}
]=])

execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${SAME} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical reports flagged as regression (rc=${rc}):\n${out}")
endif()

execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${WORSE} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "regressed candidate passed:\n${out}")
endif()
if(NOT out MATCHES "REGRESS")
  message(FATAL_ERROR "regression report missing REGRESSED verdict:\n${out}")
endif()

execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${BETTER} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "improved candidate flagged as regression (rc=${rc}):\n${out}")
endif()
if(NOT out MATCHES "improved")
  message(FATAL_ERROR "improvement not reported:\n${out}")
endif()

execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${WOBBLE} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sub-threshold wobble flagged (rc=${rc}):\n${out}")
endif()

# A tighter threshold must catch the wobble.
execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${WOBBLE} --threshold 0.005
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "tight threshold missed the wobble:\n${out}")
endif()

# Zero-baseline metrics (e.g. wait time at low load): the relative delta
# is undefined, so the table must print n/a (never inf/nan) and the
# verdict must fall back to the absolute delta.
set(ZBASE ${WORKDIR}/bench_diff_zero_base.json)
set(ZWORSE ${WORKDIR}/bench_diff_zero_worse.json)
set(ZSAME ${WORKDIR}/bench_diff_zero_same.json)
file(WRITE ${ZBASE} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mean_wait_s":0.0,"mcck_makespan_s":600.0}}
 ]}
]=])
file(WRITE ${ZWORSE} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mean_wait_s":3.5,"mcck_makespan_s":600.0}}
 ]}
]=])
file(WRITE ${ZSAME} [=[
{"bench":"table2","results":[
  {"seed":42,"metrics":{"mean_wait_s":0.0,"mcck_makespan_s":600.0}}
 ]}
]=])

# A regression from a 0 baseline must fail (the old relative-only code
# reported 0% and exited clean) and must not print inf/nan.
execute_process(COMMAND ${BENCH_DIFF} ${ZBASE} ${ZWORSE} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "regression from a zero baseline passed:\n${out}")
endif()
if(out MATCHES "inf" OR out MATCHES "nan")
  message(FATAL_ERROR "zero baseline printed inf/nan:\n${out}")
endif()
if(NOT out MATCHES "n/a")
  message(FATAL_ERROR "zero baseline missing n/a delta:\n${out}")
endif()

# Zero vs zero is clean.
execute_process(COMMAND ${BENCH_DIFF} ${ZBASE} ${ZSAME} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical zero-baseline reports flagged (rc=${rc}):\n${out}")
endif()

# A generous absolute tolerance must absorb the movement.
execute_process(COMMAND ${BENCH_DIFF} ${ZBASE} ${ZWORSE} --abs-threshold 10.0
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "abs-threshold did not absorb the zero-baseline delta (rc=${rc}):\n${out}")
endif()

# Unreadable input is a usage error (exit 2), not a silent pass.
execute_process(COMMAND ${BENCH_DIFF} ${WORKDIR}/nonexistent.json ${BASE}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "missing input file did not fail")
endif()

# Malformed JSON is a parse diagnostic (exit 2) with file + byte offset,
# never an uncaught exception / abort. "12..5" is the classic: std::stod
# happily reads the valid prefix, so only a full-consumption check
# rejects it.
set(BADNUM ${WORKDIR}/bench_diff_badnum.json)
file(WRITE ${BADNUM} [=[
{"bench":"table2","results":[{"seed":42,"metrics":{"m":12..5}}]}
]=])
execute_process(COMMAND ${BENCH_DIFF} ${BADNUM} ${BASE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "malformed number exited ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "parse error" OR NOT err MATCHES "offset")
  message(FATAL_ERROR "malformed number missing the parse diagnostic:\n${err}")
endif()
if(NOT err MATCHES "malformed number")
  message(FATAL_ERROR "diagnostic does not name the bad number:\n${err}")
endif()

# A bad \u escape used to reach std::stoul and throw out of main.
set(BADESC ${WORKDIR}/bench_diff_badesc.json)
file(WRITE ${BADESC} [=[
{"bench":"\uZZZZ","results":[]}
]=])
execute_process(COMMAND ${BENCH_DIFF} ${BADESC} ${BASE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad unicode escape exited ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "parse error" OR NOT err MATCHES "hex digit")
  message(FATAL_ERROR "bad escape missing the parse diagnostic:\n${err}")
endif()

# Truncated document: same contract.
set(TRUNC ${WORKDIR}/bench_diff_trunc.json)
file(WRITE ${TRUNC} [=[
{"bench":"table2","results":[{"seed":42,
]=])
execute_process(COMMAND ${BENCH_DIFF} ${TRUNC} ${BASE}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "truncated report exited ${rc}, expected 2:\n${err}")
endif()
if(NOT err MATCHES "parse error")
  message(FATAL_ERROR "truncated report missing the parse diagnostic:\n${err}")
endif()

# Reports are read as RFC 8259 JSON and nothing else. A number strtod
# reads but JSON does not (+1, 01, .5, 1.) and a raw TAB inside a key are
# parse errors at the offending byte; each used to be read as data.
set(NONJSON ${WORKDIR}/bench_diff_nonjson.json)
foreach(bad "+1" "01" ".5" "1." "key")
  if(bad STREQUAL "key")
    set(doc "{\"bench\":\"table2\",\"results\":[{\"seed\":42,\"metrics\":{\"m\tx\":1}}]}\n")
    string(FIND "${doc}" "\t" offset)
  else()
    set(doc "{\"bench\":\"table2\",\"results\":[{\"seed\":42,\"metrics\":{\"m\":${bad}}}]}\n")
    string(FIND "${doc}" ":${bad}}" offset)
    math(EXPR offset "${offset} + 1")
  endif()
  file(WRITE ${NONJSON} "${doc}")
  execute_process(COMMAND ${BENCH_DIFF} ${NONJSON} ${BASE}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "non-JSON ${bad} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  string(FIND "${err}" "parse error in ${NONJSON} at offset ${offset}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "non-JSON ${bad}: no parse error at offset ${offset}:\n${err}")
  endif()
endforeach()

# A seed must be a whole number a uint64 holds: converting -1, 2.5 or
# 1e300 to one is undefined, so each is a malformed entry (exit 2).
foreach(seed "-1" "2.5" "1e300")
  file(WRITE ${NONJSON} "{\"bench\":\"table2\",\"results\":[{\"seed\":${seed},\"metrics\":{\"m\":1}}]}\n")
  execute_process(COMMAND ${BENCH_DIFF} ${NONJSON} ${BASE}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "malformed results entry")
    message(FATAL_ERROR "seed ${seed} exited ${rc}, expected 2 naming the entry:\n${out}${err}")
  endif()
endforeach()

# 200,000 nested arrays used to overflow the reader's stack (SIGSEGV);
# nesting past the reader's bound of 256 levels is a parse error.
string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
set(DEEP ${WORKDIR}/bench_diff_deep.json)
file(WRITE ${DEEP} "${open}${close}")
execute_process(COMMAND ${BENCH_DIFF} ${DEEP} ${BASE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "200,000 nested arrays exited ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "parse error" OR NOT err MATCHES "256")
  message(FATAL_ERROR "deep nesting does not name the depth bound:\n${err}")
endif()

# A bad option value is a usage error (exit 2). --threshold nan used to
# print "no regressions." for any candidate (every `bad > NaN` is false),
# and --threshold abc aborted on an uncaught exception.
foreach(bad nan inf abc)
  execute_process(COMMAND ${BENCH_DIFF} ${BASE} ${WORSE} --threshold ${bad}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--threshold ${bad} exited ${rc}, expected 2:\n${out}${err}")
  endif()
  if(NOT err MATCHES "threshold")
    message(FATAL_ERROR "--threshold ${bad} diagnostic does not name the option:\n${err}")
  endif()
endforeach()

# --exact: same seeds, same keys, bit-equal values; host-time keys
# (events_per_sec) are skipped.
set(EXACT_BASE ${WORKDIR}/bench_diff_exact_base.json)
set(EXACT_SAME ${WORKDIR}/bench_diff_exact_same.json)
set(EXACT_ULP ${WORKDIR}/bench_diff_exact_ulp.json)
set(EXACT_BETTER ${WORKDIR}/bench_diff_exact_better.json)
set(EXACT_MISSING ${WORKDIR}/bench_diff_exact_missing.json)
set(EXACT_EXTRA ${WORKDIR}/bench_diff_exact_extra.json)
set(EXACT_SEED ${WORKDIR}/bench_diff_exact_seed.json)
file(WRITE ${EXACT_BASE} [=[
{"bench":"scale","wall_time_s":1.0,"environment":{"compiler":"x"},"results":[
  {"seed":42,"metrics":{"scale.makespan_s":1234.5678901234567,"scale.events":1000,"scale.seq_events_per_sec":35000.0}},
  {"seed":43,"metrics":{"scale.makespan_s":1200.0,"scale.events":990,"scale.seq_events_per_sec":34000.0}}
 ]}
]=])
# Same simulation outputs; host time, wall time and environment differ.
file(WRITE ${EXACT_SAME} [=[
{"bench":"scale","wall_time_s":9.0,"environment":{"compiler":"y"},"results":[
  {"seed":42,"metrics":{"scale.makespan_s":1234.5678901234567,"scale.events":1000,"scale.seq_events_per_sec":71000.0}},
  {"seed":43,"metrics":{"scale.makespan_s":1200.0,"scale.events":990,"scale.seq_events_per_sec":70000.0}}
 ]}
]=])
# One ulp above 1234.5678901234567.
file(WRITE ${EXACT_ULP} [=[
{"bench":"scale","results":[
  {"seed":42,"metrics":{"scale.makespan_s":1234.5678901234569,"scale.events":1000,"scale.seq_events_per_sec":35000.0}},
  {"seed":43,"metrics":{"scale.makespan_s":1200.0,"scale.events":990,"scale.seq_events_per_sec":34000.0}}
 ]}
]=])
# A shorter makespan is still a difference.
file(WRITE ${EXACT_BETTER} [=[
{"bench":"scale","results":[
  {"seed":42,"metrics":{"scale.makespan_s":1000.0,"scale.events":1000,"scale.seq_events_per_sec":35000.0}},
  {"seed":43,"metrics":{"scale.makespan_s":1200.0,"scale.events":990,"scale.seq_events_per_sec":34000.0}}
 ]}
]=])
file(WRITE ${EXACT_MISSING} [=[
{"bench":"scale","results":[
  {"seed":42,"metrics":{"scale.makespan_s":1234.5678901234567,"scale.seq_events_per_sec":35000.0}},
  {"seed":43,"metrics":{"scale.makespan_s":1200.0,"scale.events":990,"scale.seq_events_per_sec":34000.0}}
 ]}
]=])
file(WRITE ${EXACT_EXTRA} [=[
{"bench":"scale","results":[
  {"seed":42,"metrics":{"scale.makespan_s":1234.5678901234567,"scale.events":1000,"scale.new_key":1.0,"scale.seq_events_per_sec":35000.0}},
  {"seed":43,"metrics":{"scale.makespan_s":1200.0,"scale.events":990,"scale.seq_events_per_sec":34000.0}}
 ]}
]=])
file(WRITE ${EXACT_SEED} [=[
{"bench":"scale","results":[
  {"seed":42,"metrics":{"scale.makespan_s":1234.5678901234567,"scale.events":1000,"scale.seq_events_per_sec":35000.0}}
 ]}
]=])

execute_process(COMMAND ${BENCH_DIFF} ${EXACT_BASE} ${EXACT_SAME} --exact
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--exact flagged a host-time-only difference (rc=${rc}):\n${out}")
endif()
if(NOT out MATCHES "bit-identical")
  message(FATAL_ERROR "--exact clean run missing its verdict:\n${out}")
endif()

foreach(case ULP BETTER MISSING EXTRA SEED)
  execute_process(COMMAND ${BENCH_DIFF} ${EXACT_BASE} ${EXACT_${case}} --exact
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "--exact passed the ${case} candidate (rc=${rc}):\n${out}")
  endif()
  if(NOT out MATCHES "DIFFERENCES")
    message(FATAL_ERROR "--exact ${case} report missing DIFFERENCES:\n${out}")
  endif()
endforeach()
