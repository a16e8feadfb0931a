# Fixture gate: dufs_lint over the fixture mini-tree must exit 1 and print
# exactly the checked-in findings (expected.txt), so a finding the rules
# start or stop emitting fails. A second run keeps only the warn-severity
# await-holding-ref finding: warn findings fail the run too.
#
# Invoked by ctest as:
#   cmake -DDUFS_LINT=<dufs_lint> -DTREE=<fixture tree> -DEXPECTED=<file>
#         -DWORKDIR=<dir> -P fixture_gate.cmake

if(NOT DEFINED DUFS_LINT OR NOT DEFINED TREE OR NOT DEFINED EXPECTED
   OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "usage: cmake -DDUFS_LINT=... -DTREE=... -DEXPECTED=... -DWORKDIR=... "
    "-P fixture_gate.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${DUFS_LINT}" --root=${TREE}
  OUTPUT_FILE "${WORKDIR}/findings.txt"
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "dufs_lint over the fixture tree exited ${rc}, not 1")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    "${EXPECTED}" "${WORKDIR}/findings.txt"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ "${WORKDIR}/findings.txt" got)
  message(FATAL_ERROR
    "fixture findings differ from ${EXPECTED}; dufs_lint printed:\n${got}")
endif()

execute_process(
  COMMAND "${DUFS_LINT}" --root=${TREE} --rule=await-holding-ref
  OUTPUT_VARIABLE got
  ERROR_QUIET
  RESULT_VARIABLE rc)
file(READ "${EXPECTED}" all)
string(REGEX MATCH "[^\n]*\\[warn\\] await-holding-ref:[^\n]*\n" want
  "${all}")
if(NOT rc EQUAL 1 OR NOT got STREQUAL want)
  message(FATAL_ERROR
    "--rule=await-holding-ref exited ${rc} (want 1) and printed:\n${got}")
endif()
