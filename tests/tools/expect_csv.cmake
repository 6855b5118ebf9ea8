# Runs PROGRAM with --csv=CSV and passes only when it exits 0, the CSV's first
# line is HEADER and at least one later line matches the regex ROW — the
# happy path of a driver's machine-readable artifact.
#
#   cmake -DPROGRAM=<exe> -DCSV=<path> -DHEADER=<line> -DROW=<regex>
#         -P expect_csv.cmake
file(REMOVE ${CSV})
execute_process(
  COMMAND ${PROGRAM} --csv=${CSV}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "expected exit code 0, got '${rc}'; stderr:\n${err}")
endif()
file(STRINGS ${CSV} lines)
list(POP_FRONT lines first)
if(NOT first STREQUAL HEADER)
  message(FATAL_ERROR "CSV header is '${first}', want '${HEADER}'")
endif()
list(FILTER lines INCLUDE REGEX "${ROW}")
list(LENGTH lines rows)
if(rows EQUAL 0)
  message(FATAL_ERROR "no CSV row matches '${ROW}'")
endif()
message(STATUS "${CSV}: header '${first}' and ${rows} row(s) matching '${ROW}'")
