# Run PROGRAM with ARGS and require exit code EXPECT_CODE and EXPECT_OUTPUT
# somewhere in its combined stdout/stderr.
#
#   cmake -DPROGRAM=<exe> -DARGS=<arg> -DEXPECT_CODE=<n> -DEXPECT_OUTPUT=<text>
#         -P expect_exit.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${code}', expected ${EXPECT_CODE}\n${out}")
endif()
string(FIND "${out}" "${EXPECT_OUTPUT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: output lacks '${EXPECT_OUTPUT}'\n${out}")
endif()
