# Golden-output check for a bench or CLI binary: run it with fixed
# small-scale flags and require its output to be byte-identical to the
# checked-in golden file. Invoked from CTest (see the golden tests in
# CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DBENCH_ARGS="--tasks=30 ..." \
#         -DGOLDEN=<file> [-DEXPECT_RC=<code>] [-DCAPTURE_STDERR=ON] \
#         [-DINPUT_FILE=<stdin file>] [-DSCRUB_TIMINGS=ON] \
#         -P run_bench_golden.cmake
#
# EXPECT_RC   the exit code the run must end with (default 0).
# CAPTURE_STDERR
#             compare stdout, a "--- stderr ---" line, then stderr;
#             otherwise stdout alone.
# INPUT_FILE  feed this file to stdin.
# SCRUB_TIMINGS
#             replace wall-clock values: table cells holding a number with
#             one or two decimals (the `wall ms`, `total ms` and
#             `resolve ms` columns; ratios print three) become `<ms>`, and
#             JSON `"*_ms": <number>` values become 0.
#
# The figure goldens were captured from the pre-ProfileSource build; any
# diff means a refactor changed experiment output, which is a bug unless
# the golden is regenerated on purpose (see tests/golden/README.md).

separate_arguments(BENCH_ARG_LIST UNIX_COMMAND "${BENCH_ARGS}")
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()
set(stdin_args)
if(INPUT_FILE)
  set(stdin_args INPUT_FILE ${INPUT_FILE})
endif()

execute_process(
  COMMAND ${BENCH} ${BENCH_ARG_LIST}
  ${stdin_args}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)

if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
          "${BENCH} exited with ${rc}, expected ${EXPECT_RC}: ${errors}")
endif()

if(CAPTURE_STDERR)
  string(APPEND actual "--- stderr ---\n${errors}")
endif()
if(SCRUB_TIMINGS)
  string(REGEX REPLACE "\\| [0-9]+\\.[0-9][0-9]? +\\|" "| <ms> |"
         actual "${actual}")
  string(REGEX REPLACE "(\"[a-z_]+_ms\"): [-+0-9.eE]+" "\\1: 0"
         actual "${actual}")
endif()

file(READ ${GOLDEN} expected)

if(NOT actual STREQUAL expected)
  file(WRITE ${GOLDEN}.actual "${actual}")
  message(FATAL_ERROR
          "output of ${BENCH} ${BENCH_ARGS} diverged from ${GOLDEN} — "
          "actual output written to ${GOLDEN}.actual")
endif()
