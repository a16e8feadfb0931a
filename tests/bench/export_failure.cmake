# Export-failure gate: a bench must exit non-zero when any export it was
# asked for cannot be written, or when the profiler cannot start, so a CI
# step never passes on a missing artifact. The analysis tools (tracestats,
# profstats, dufs_lint) must likewise exit 2 when their report cannot be
# written, to an --out/--sarif file or to stdout.
#
# Invoked by ctest as:
#   cmake -DFIG10=<fig10_native_compare> -DMICRO=<micro_core>
#         -DTRACESTATS=<tracestats> -DPROFSTATS=<profstats>
#         -DDUFS_LINT=<dufs_lint> -DLINT_TREE=<lint fixture tree>
#         -DWORKDIR=<dir> -P export_failure.cmake

if(NOT DEFINED FIG10 OR NOT DEFINED MICRO OR NOT DEFINED TRACESTATS
   OR NOT DEFINED PROFSTATS OR NOT DEFINED DUFS_LINT OR NOT DEFINED LINT_TREE
   OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "usage: cmake -DFIG10=... -DMICRO=... -DTRACESTATS=... -DPROFSTATS=... "
    "-DDUFS_LINT=... -DLINT_TREE=... -DWORKDIR=... -P export_failure.cmake")
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

# Report writes: each tool gets a valid input and a full device as its
# report destination, through --out/--sarif or, for a case ending in '>',
# through stdout.
execute_process(COMMAND ${fig10_cmd} --trace=${WORKDIR}/ok.json
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE trace_rc)
execute_process(
  COMMAND ${micro_cmd} --profile=${WORKDIR}/ok.folded --profile-every=64
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE prof_rc)
if(NOT trace_rc EQUAL 0 OR NOT prof_rc EQUAL 0)
  message(FATAL_ERROR "writing the tool inputs failed (${trace_rc}, ${prof_rc})")
endif()
set(tool_cases
  "${TRACESTATS}|--trace=${WORKDIR}/ok.json|--out=/dev/full"
  "${TRACESTATS}|--trace=${WORKDIR}/ok.json|>"
  "${PROFSTATS}|${WORKDIR}/ok.folded|--out=/dev/full"
  "${PROFSTATS}|${WORKDIR}/ok.folded|>"
  "${DUFS_LINT}|--root=${LINT_TREE}|--sarif=/dev/full"
  "${DUFS_LINT}|--root=${LINT_TREE}|--format=json|>"
  "${DUFS_LINT}|--root=${LINT_TREE}|>")
foreach(case IN LISTS tool_cases)
  string(REPLACE "|" ";" args "${case}")
  set(out "${WORKDIR}/report.txt")
  if(args MATCHES ";>$")
    list(REMOVE_AT args -1)
    set(out /dev/full)
  endif()
  execute_process(
    COMMAND ${args}
    OUTPUT_FILE "${out}" ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${case} exited ${rc}, not 2, when its report could not be written")
  endif()
endforeach()
