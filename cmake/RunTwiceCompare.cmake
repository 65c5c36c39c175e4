# Byte-identity gate for a sweep bench: run BIN twice with identical
# arguments and require every machine-readable output file to compare
# equal byte for byte. This is the determinism contract of DESIGN.md §14 —
# under the discrete-event scheduler a seeded run's machine-readable
# output is a pure function of the seed, so even one flipped bit means
# wall-clock or iteration-order nondeterminism leaked into the stats
# plane.
#
# Usage:
#   cmake -DBIN=<sweep binary> -DOUT_DIR=<scratch dir>
#         [-DOUT_FLAGS=<;-list of output flags, default --json>]
#         [-DEXTRA_ARGS=<;-list appended to both runs>]
#         [-DFRESH_DIR=<directory deleted before run a>]
#         -P RunTwiceCompare.cmake
#
# FRESH_DIR names a model cache directory that EXTRA_ARGS passes to the
# binary: run `a` then starts cold and trains, run `b` loads what `a`
# saved, and the pair must still be identical.
#
# Each flag F in OUT_FLAGS contributes "F ${OUT_DIR}/run_<run>.<stem>.json"
# to both invocations (stem = flag without dashes), and the resulting pair
# must be identical — so one gate covers --json and --breakdown at once.
if(NOT DEFINED BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "RunTwiceCompare.cmake needs -DBIN=... and -DOUT_DIR=...")
endif()
if(NOT DEFINED OUT_FLAGS)
  set(OUT_FLAGS "--json")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
if(DEFINED FRESH_DIR)
  file(REMOVE_RECURSE "${FRESH_DIR}")
endif()
set(stems)
foreach(run a b)
  set(args)
  foreach(flag ${OUT_FLAGS})
    string(REPLACE "-" "" stem "${flag}")
    list(APPEND stems ${stem})
    list(APPEND args ${flag} "${OUT_DIR}/run_${run}.${stem}.json")
  endforeach()
  execute_process(
    COMMAND "${BIN}" --quick ${args} ${EXTRA_ARGS}
    RESULT_VARIABLE status
    OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} run '${run}' exited with ${status}")
  endif()
endforeach()
list(REMOVE_DUPLICATES stems)

foreach(stem ${stems})
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT_DIR}/run_a.${stem}.json" "${OUT_DIR}/run_b.${stem}.json"
    RESULT_VARIABLE identical)
  if(NOT identical EQUAL 0)
    message(FATAL_ERROR
            "--${stem} output differs between same-seed runs: "
            "${OUT_DIR}/run_a.${stem}.json vs run_b.${stem}.json")
  endif()
  message(STATUS
          "byte-identical: ${OUT_DIR}/run_a.${stem}.json == run_b.${stem}.json")
endforeach()
