# Runs PROGRAM (with the ;-separated ARGS) under the environment assignment
# ENV and passes only when it exits with code 2 and its stderr holds an
# "error: " line matching EXPECT — the contract every user-facing binary keeps
# for bad input: a message and a non-zero code, never an abort.
#
#   cmake -DPROGRAM=<exe> -DARGS=<a;b> -DENV=VAR=value -DEXPECT=<regex>
#         -P expect_error.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${PROGRAM} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2 under ${ENV}, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "error: [^\n]*${EXPECT}")
  message(FATAL_ERROR "stderr under ${ENV} lacks an 'error: ...${EXPECT}' line:\n${err}")
endif()
message(STATUS "exit 2 with: ${err}")
