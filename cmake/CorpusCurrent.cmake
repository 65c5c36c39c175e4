# Seed-corpus freshness gate: regenerate every fuzz corpus with GEN into
# OUT_DIR and require the result to equal the checked-in CORPUS tree file
# for file, byte for byte. A wire-format change that forgets to run
# `fuzz_seed_gen <repo>/fuzz/corpus` then fails ctest, not only the nightly
# fuzz job, whose mutations would start from seeds of the old format.
#
# Usage:
#   cmake -DGEN=<fuzz_seed_gen> -DCORPUS=<repo>/fuzz/corpus
#         -DOUT_DIR=<scratch dir> -P CorpusCurrent.cmake
cmake_minimum_required(VERSION 3.16)  # IN_LIST in script mode
if(NOT DEFINED GEN OR NOT DEFINED CORPUS OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
          "CorpusCurrent.cmake needs -DGEN=..., -DCORPUS=... and -DOUT_DIR=...")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${GEN}" "${OUT_DIR}"
                RESULT_VARIABLE status
                OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${GEN} exited with ${status}")
endif()

file(GLOB_RECURSE fresh RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
file(GLOB_RECURSE checked RELATIVE "${CORPUS}" "${CORPUS}/*")
set(problems)
foreach(seed ${checked})
  if(NOT seed IN_LIST fresh)
    list(APPEND problems "not generated any more: ${seed}")
  endif()
endforeach()
foreach(seed ${fresh})
  if(NOT seed IN_LIST checked)
    list(APPEND problems "generated but not checked in: ${seed}")
    continue()
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT_DIR}/${seed}" "${CORPUS}/${seed}"
    RESULT_VARIABLE identical)
  if(NOT identical EQUAL 0)
    list(APPEND problems "differs: ${seed}")
  endif()
endforeach()

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR
          "the checked-in seed corpus is stale:\n  ${report}\n"
          "regenerate it with: fuzz_seed_gen <repo>/fuzz/corpus\n"
          "(extra files usually come from a libFuzzer run whose first corpus "
          "directory was the checked-in one; fuzz into a scratch directory "
          "listed before it)")
endif()
list(LENGTH fresh count)
message(STATUS "seed corpus current: ${count} files match ${CORPUS}")
