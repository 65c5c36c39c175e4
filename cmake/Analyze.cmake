# Convenience targets for the static checker (tools/analyze.py, DESIGN.md
# §6, §12): its whole-program passes and its line rules. It needs only
# python3.
#
#   cmake --build build --target analyze                 # gate: 0 new findings
#   cmake --build build --target analyze-write-baseline  # intentional refresh
#
# The same checks run in ctest as analyze.self_test / analyze.repo_clean /
# analyze.baseline_current (tests/CMakeLists.txt) and as CI's `analyze`
# job, so these targets are for local iteration, not the only gate.
find_package(Python3 COMPONENTS Interpreter QUIET)

if(Python3_FOUND)
  add_custom_target(analyze
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/analyze.py
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "analyze.py: whole-program passes and line rules"
    VERBATIM)
  add_custom_target(analyze-write-baseline
    COMMAND ${Python3_EXECUTABLE} ${CMAKE_SOURCE_DIR}/tools/analyze.py
            --write-baseline
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "analyze.py: refreshing tools/analyze_baseline.json"
    VERBATIM)
endif()
