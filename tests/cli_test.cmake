# CLI integration test: generate -> check -> render -> markers round trip.
# Invoked as: cmake -DODRC_BIN=<path> -DWORK_DIR=<dir> -P cli_test.cmake
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "1")
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(last_rc ${rc} PARENT_SCOPE)
  set(last_out ${out} PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
set(gds ${WORK_DIR}/cli_uart.gds)
set(deck ${WORK_DIR}/cli.deck)
set(report ${WORK_DIR}/cli_report.txt)
set(svg ${WORK_DIR}/cli.svg)
set(markers ${WORK_DIR}/cli_markers.gds)

run(${ODRC_BIN} generate uart ${gds} --scale=0.5 --inject=1)
if(NOT EXISTS ${gds})
  message(FATAL_ERROR "generate produced no GDS")
endif()

execute_process(COMMAND ${ODRC_BIN} deck-template OUTPUT_FILE ${deck} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "deck-template failed")
endif()

run(${ODRC_BIN} check ${gds} ${deck} --report=${report} --markers=${markers} --json=${WORK_DIR}/cli.json)
if(NOT last_rc STREQUAL "1")
  message(FATAL_ERROR "check on an injected design must exit 1, got ${last_rc}")
endif()
if(NOT EXISTS ${report} OR NOT EXISTS ${markers})
  message(FATAL_ERROR "check did not write report/markers")
endif()
file(READ ${report} report_text)
if(NOT report_text MATCHES "width")
  message(FATAL_ERROR "report misses the injected width violation:\n${report_text}")
endif()
file(READ ${WORK_DIR}/cli.json json_text)
if(NOT json_text MATCHES "^{\"design\"" OR NOT json_text MATCHES "\"rules\"")
  message(FATAL_ERROR "json output malformed:\n${json_text}")
endif()

run(${ODRC_BIN} check ${gds} ${deck} --mode=par --bench-json=${WORK_DIR}/cli_bench.json)
if(NOT last_rc STREQUAL "1")
  message(FATAL_ERROR "parallel-mode check must also exit 1")
endif()
if(NOT EXISTS ${WORK_DIR}/cli_bench.json)
  message(FATAL_ERROR "--bench-json wrote no report")
endif()
file(READ ${WORK_DIR}/cli_bench.json bench_text)
if(NOT bench_text MATCHES "\"schema\":\"odrc-bench\"" OR NOT bench_text MATCHES "\"suite\":\"cli_check\""
   OR NOT bench_text MATCHES "\"violations\"")
  message(FATAL_ERROR "--bench-json output malformed:\n${bench_text}")
endif()

# An unknown --mode is a usage error (exit 2), never a silent fallback.
execute_process(COMMAND ${ODRC_BIN} check ${gds} ${deck} --mode=parallel
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "check --mode=parallel must exit 2 (usage), got ${rc}")
endif()

# Malformed arguments are usage errors (exit 2) with a message naming the
# problem: an option where a positional belongs, a value that is not a number
# in range, an option the command does not know.
function(expect_usage_error pattern)
  execute_process(COMMAND ${ODRC_BIN} ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "odrc ${ARGN} must exit 2 with '${pattern}', got ${rc}: ${err}")
  endif()
endfunction()
set(bad_gds ${WORK_DIR}/cli_bad.gds)
expect_usage_error("positional argument, got option '--scale=0.5'" generate uart --scale=0.5)
if(EXISTS "${WORK_DIR}/--scale=0.5")
  message(FATAL_ERROR "generate wrote a file named after an option")
endif()
expect_usage_error("--scale expects a number > 0, got 'abc'" generate uart ${bad_gds} --scale=abc)
expect_usage_error("--scale expects a number > 0, got '0'" generate uart ${bad_gds} --scale=0)
expect_usage_error("--inject expects an integer >= 0, got '-1'"
                   generate uart ${bad_gds} --inject=-1)
expect_usage_error("--inject expects an integer >= 0, got '2x'"
                   generate uart ${bad_gds} --inject=2x)
if(EXISTS ${bad_gds})
  message(FATAL_ERROR "generate with a malformed option still wrote a layout")
endif()
expect_usage_error("unknown argument '--bogus=1'" check ${gds} ${deck} --bogus=1)
expect_usage_error("unknown argument '--metrics=1'" check ${gds} ${deck} --metrics=1)
expect_usage_error("positional argument, got option '--mode=seq'" check ${gds} --mode=seq ${deck})
expect_usage_error("unknown argument '--bogus=1'" render ${gds} ${WORK_DIR}/cli_bad.svg --bogus=1)
expect_usage_error("unknown argument '--bogus'" inspect ${gds} --bogus)
# serve/coord/client reject bad counts before they read a layout, bind a
# socket or start a thread or process.
set(no_sock --socket=${WORK_DIR}/never.sock)
expect_usage_error("--workers expects an integer in 1..256, got 'abc'"
                   serve ${gds} ${deck} ${no_sock} --workers=abc)
expect_usage_error("--workers expects an integer in 1..256, got '0'"
                   serve ${gds} ${deck} ${no_sock} --workers=0)
expect_usage_error("unknown --simd value 'fast'" serve ${gds} ${deck} ${no_sock} --simd=fast)
expect_usage_error("unknown argument '--bogus=1'" serve ${gds} ${deck} ${no_sock} --bogus=1)
expect_usage_error("--shards expects an integer in 1..64, got '0'"
                   coord ${gds} ${deck} ${no_sock} --shards=0)
expect_usage_error("--shards expects an integer in 1..64, got '-1'"
                   coord ${gds} ${deck} ${no_sock} --shards=-1)
expect_usage_error("--workers expects an integer in 1..256, got 'abc'"
                   coord ${gds} ${deck} ${no_sock} --workers=abc)
expect_usage_error("unknown argument '--bogus=1'" coord ${gds} ${deck} ${no_sock} --bogus=1)
expect_usage_error("--session expects an integer in 0..4294967295, got 'abc'"
                   client ${no_sock} --session=abc ping)
expect_usage_error("--count expects an integer >= 0, got '-1'"
                   client ${no_sock} subscribe --count=-1)
expect_usage_error("--timeout expects an integer >= -1, got 'abc'"
                   client ${no_sock} subscribe --timeout=abc)
expect_usage_error("unknown argument '--bogus=1'" client ${no_sock} --bogus=1 ping)
if(EXISTS ${WORK_DIR}/cli_bad.svg OR EXISTS ${WORK_DIR}/never.sock)
  message(FATAL_ERROR "a command rejected as a usage error still wrote a file")
endif()

# A distance whose candidate halo overflows coord_t is a deck error with the
# line number, not an internal failure.
file(WRITE ${WORK_DIR}/overflow.deck "rule S spacing layer=19 min=2147483647\n")
execute_process(COMMAND ${ODRC_BIN} check ${gds} ${WORK_DIR}/overflow.deck
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "deck line 1:")
  message(FATAL_ERROR "overflowing deck distance must exit 1 with 'deck line 1:', got ${rc}: ${err}")
endif()

# coord notices a spawned worker that exits before it comes up (its deck
# cannot be read) instead of polling the worker's socket until its deadline.
execute_process(COMMAND ${ODRC_BIN} coord ${gds} ${WORK_DIR}/no_such.deck
                        --socket=${WORK_DIR}/coord.sock --shards=1
                TIMEOUT 10 RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "1" OR NOT err MATCHES "worker 0 exited")
  message(FATAL_ERROR "coord with a dead worker must exit 1 within 10 s, got ${rc}: ${err}")
endif()

run(${ODRC_BIN} render ${gds} ${svg} --deck=${deck})
file(READ ${svg} svg_text)
if(NOT svg_text MATCHES "</svg>")
  message(FATAL_ERROR "render produced invalid SVG")
endif()

run(${ODRC_BIN} inspect ${markers})
if(NOT last_out MATCHES "MARKERS")
  message(FATAL_ERROR "marker library misses MARKERS cell: ${last_out}")
endif()

# A clean design must exit 0.
set(clean ${WORK_DIR}/cli_clean.gds)
run(${ODRC_BIN} generate uart ${clean} --scale=0.5)
run(${ODRC_BIN} check ${clean} ${deck})
if(NOT last_rc STREQUAL "0")
  message(FATAL_ERROR "clean design must exit 0, got ${last_rc}")
endif()
# diff: identical reports are clean (exit 0); against the empty baseline the
# report's violations are all "introduced" (exit 1).
run(${ODRC_BIN} diff ${report} ${report})
if(NOT last_rc STREQUAL "0")
  message(FATAL_ERROR "self-diff must be clean, got ${last_rc}")
endif()
file(WRITE ${WORK_DIR}/empty.txt "# empty baseline\n")
run(${ODRC_BIN} diff ${WORK_DIR}/empty.txt ${report})
if(NOT last_rc STREQUAL "1")
  message(FATAL_ERROR "diff against empty baseline must report regressions, got ${last_rc}")
endif()

message(STATUS "CLI round trip OK")
