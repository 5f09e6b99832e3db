# Regression driver for explore_cli's report export: with every write to
# the NDJSON report failing (an injected fault through util::IoEnv), the
# real binary must exit 1 and name the file it could not write, not exit
# 0 over a truncated report.  Invoked by ctest as:
#
#   cmake -DCLI=<path-to-explore_cli> -DWORK_DIR=<scratch dir> \
#         -P expect_report_write_failure.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCLI=<path to explore_cli> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "MS_FAILPOINTS=io.write=always@.ndjson"
        ${CLI} --quiet --threads 1 --variants asymmetric --apps kmeans
        --budgets 64 --small-cores 1 --sizes 4,8 --out ${WORK_DIR}/report
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT status EQUAL 1)
  message(FATAL_ERROR "explore_cli exited ${status}, expected 1\n${out}\n${err}")
endif()
if(NOT err MATCHES "explore_cli: cannot write [^\n]*report\\.ndjson: ")
  message(FATAL_ERROR "stderr does not name the failed report: ${err}")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
