# Pinned reports: generate each design of DIGESTS with --inject=2, check it
# with DECK in seq and par mode, and compare the SHA-256 of each sorted
# report with the committed digest. A change that alters any reported
# violation of these designs, or their order-independent text, fails here.
# Invoked as:
#   cmake -DODRC_BIN=<odrc> -DDECK=<deck> -DDIGESTS=<file> -DWORK_DIR=<dir>
#         -P report_digest_test.cmake
file(MAKE_DIRECTORY ${WORK_DIR})
file(STRINGS ${DIGESTS} entries REGEX "^[a-z]")
if(NOT entries)
  message(FATAL_ERROR "no digests in ${DIGESTS}")
endif()
foreach(entry IN LISTS entries)
  string(REPLACE " " ";" fields "${entry}")
  list(GET fields 0 design)
  list(GET fields 1 scale)
  list(GET fields 2 want)
  set(gds ${WORK_DIR}/digest_${design}.gds)
  execute_process(COMMAND ${ODRC_BIN} generate ${design} ${gds} --scale=${scale} --inject=2
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "generate ${design} failed (${rc}): ${err}")
  endif()
  foreach(mode seq par)
    set(report ${WORK_DIR}/digest_${design}_${mode}.txt)
    execute_process(COMMAND ${ODRC_BIN} check ${gds} ${DECK} --mode=${mode} --report=${report}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc STREQUAL "1")
      message(FATAL_ERROR "check ${design} --mode=${mode} must exit 1, got ${rc}: ${err}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E env LC_ALL=C sort ${report}
                    OUTPUT_FILE ${report}.sorted RESULT_VARIABLE rc)
    if(NOT rc STREQUAL "0")
      message(FATAL_ERROR "sort ${report} failed (${rc})")
    endif()
    file(SHA256 ${report}.sorted got)
    if(NOT got STREQUAL want)
      message(FATAL_ERROR "${design} x${scale} --mode=${mode}: sorted report digest ${got}, "
                          "want ${want} (report: ${report})")
    endif()
    message(STATUS "${design} x${scale} ${mode}: ${got}")
  endforeach()
endforeach()
