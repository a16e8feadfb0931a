# Export-failure gate: a bench must exit non-zero when any export it was
# asked for cannot be written, or when the profiler cannot start, so a CI
# step never passes on a missing artifact.
#
# Invoked by ctest as:
#   cmake -DFIG10=<fig10_native_compare> -DMICRO=<micro_core>
#         -DWORKDIR=<dir> -P export_failure.cmake

if(NOT DEFINED FIG10 OR NOT DEFINED MICRO OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "usage: cmake -DFIG10=... -DMICRO=... -DWORKDIR=... -P export_failure.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(bad "${WORKDIR}/missing-dir/out")
set(fig10_cmd "${FIG10}" --procs=4 --items=2)
set(micro_cmd "${MICRO}" --selfbench --reps=1 --churn-events=1000
    --churn-timers=16 --coro-procs=4 --coro-rounds=10 --spawns=100)

# Each case (flags joined by '|') names one unwritable export, or a profiler
# rate it refuses; every other export is left off. fig10 covers the exports
# of an observed run; the profiler's exports go through the same harness
# code in every bench, so the cheaper micro_core covers those.
set(fig10_cases
  --metrics-json=${bad}.json
  --baseline=${bad}.json
  --trace=${bad}.json)
set(micro_cases
  --metrics-json=${bad}.json
  --baseline=${bad}.json
  --profile=${bad}.folded|--profile-every=64
  --profile=${WORKDIR}/ok.folded|--profile-every=64|--profile-digest=${bad}.json
  --profile=${WORKDIR}/ok.folded|--profile-hz=0)
foreach(bench fig10 micro)
  foreach(case IN LISTS ${bench}_cases)
    string(REPLACE "|" ";" args "${case}")
    execute_process(
      COMMAND ${${bench}_cmd} ${args}
      OUTPUT_QUIET ERROR_QUIET
      RESULT_VARIABLE rc)
    if(rc EQUAL 0)
      message(FATAL_ERROR "${bench} ${case} exited 0 despite a failed export")
    endif()
  endforeach()
endforeach()
