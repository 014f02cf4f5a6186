# Runs EXE (cmake -DEXE=... -DEXPECT=... -P expect_error.cmake) and passes
# only when it exits with status 1 and its stderr matches the regex EXPECT:
# the way an example reports a typed parsvd::Error. The environment that
# provokes the error comes from the test's ENVIRONMENT property.
execute_process(COMMAND "${EXE}" RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
