# Regression driver for a CLI's unknown-flag path: the real binary, run
# with a typo'd option, must exit nonzero and print a usage message (the
# unknown name plus the option list) on stderr.  Invoked by ctest as:
#
#   cmake -DCLI=<path-to-binary> [-DREMOVED_FLAG=--some-flag] \
#         -P expect_unknown_flag.cmake
#
# REMOVED_FLAG names an option the CLI used to take: passed with a value,
# it must now be refused as unknown too.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to the CLI binary>")
endif()

execute_process(
    COMMAND ${CLI} --no-such-flag
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(status EQUAL 0)
  message(FATAL_ERROR "${CLI} accepted an unknown flag (exit 0)")
endif()
if(NOT err MATCHES "unknown option --no-such-flag")
  message(FATAL_ERROR "stderr does not name the unknown option: ${err}")
endif()
if(NOT err MATCHES "Options:")
  message(FATAL_ERROR "stderr lacks the usage/option list: ${err}")
endif()
if(NOT err MATCHES "--help")
  message(FATAL_ERROR "stderr does not point at --help: ${err}")
endif()

# The value-typo path must stay a loud failure too.
execute_process(
    COMMAND ${CLI} --threads not-a-number
    RESULT_VARIABLE status2
    ERROR_VARIABLE err2)
if(status2 EQUAL 0)
  message(FATAL_ERROR "${CLI} accepted a non-numeric --threads")
endif()
if(NOT err2 MATCHES "expects an integer")
  message(FATAL_ERROR "stderr does not explain the bad value: ${err2}")
endif()

if(DEFINED REMOVED_FLAG)
  execute_process(
      COMMAND ${CLI} ${REMOVED_FLAG} 100
      RESULT_VARIABLE status3
      ERROR_VARIABLE err3)
  if(status3 EQUAL 0)
    message(FATAL_ERROR "${CLI} accepted the removed ${REMOVED_FLAG}")
  endif()
  if(NOT err3 MATCHES "unknown option ${REMOVED_FLAG}")
    message(FATAL_ERROR "stderr does not name ${REMOVED_FLAG}: ${err3}")
  endif()
endif()
