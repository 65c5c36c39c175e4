# Warning and sanitizer presets shared by every TeamNet target.
#
# Usage: include() once at the top level, then call
# teamnet_apply_build_flags(<target>) on every library and executable.
# Sanitizer instrumentation is attached PUBLIC so it propagates to anything
# that links an instrumented library — mixing instrumented and plain TUs in
# one process is what breaks sanitizer builds, so the whole tree opts in
# together.
#
#   TEAMNET_SANITIZE      = off | address | undefined | thread | asan+ubsan
#   TEAMNET_WERROR        = ON to promote warnings to errors (the CI default)
#   TEAMNET_THREAD_SAFETY = ON for clang's compile-time capability analysis
#                           (-Wthread-safety -Wthread-safety-beta -Werror);
#                           proves lock discipline on ALL paths, not just the
#                           interleavings TSan happens to execute
#   TEAMNET_FUZZ          = ON to build the libFuzzer harnesses in fuzz/
#                           (clang only; the corpus-replay ctest cases build
#                           with every compiler regardless)

set(TEAMNET_SANITIZE "off" CACHE STRING
    "Sanitizer preset: off, address, undefined, thread, or asan+ubsan")
set_property(CACHE TEAMNET_SANITIZE PROPERTY STRINGS
             off address undefined thread asan+ubsan)
option(TEAMNET_WERROR "Treat compiler warnings as errors" OFF)
option(TEAMNET_THREAD_SAFETY
       "Enable clang -Wthread-safety capability analysis as errors" OFF)
option(TEAMNET_FUZZ "Build libFuzzer harnesses (requires clang)" OFF)

if(TEAMNET_THREAD_SAFETY AND NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  message(FATAL_ERROR
          "TEAMNET_THREAD_SAFETY=ON requires clang (the capability analysis "
          "is a clang extension); configure with -DCMAKE_CXX_COMPILER=clang++")
endif()
if(TEAMNET_FUZZ AND NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  message(FATAL_ERROR
          "TEAMNET_FUZZ=ON requires clang (libFuzzer ships with clang); "
          "configure with -DCMAKE_CXX_COMPILER=clang++")
endif()

if(TEAMNET_SANITIZE STREQUAL "off")
  set(TEAMNET_SANITIZE_FLAGS "")
elseif(TEAMNET_SANITIZE STREQUAL "address")
  set(TEAMNET_SANITIZE_FLAGS -fsanitize=address -fno-omit-frame-pointer)
elseif(TEAMNET_SANITIZE STREQUAL "undefined")
  set(TEAMNET_SANITIZE_FLAGS -fsanitize=undefined -fno-sanitize-recover=all
      -fno-omit-frame-pointer)
elseif(TEAMNET_SANITIZE STREQUAL "asan+ubsan")
  set(TEAMNET_SANITIZE_FLAGS -fsanitize=address,undefined
      -fno-sanitize-recover=all -fno-omit-frame-pointer)
elseif(TEAMNET_SANITIZE STREQUAL "thread")
  set(TEAMNET_SANITIZE_FLAGS -fsanitize=thread -fno-omit-frame-pointer)
else()
  message(FATAL_ERROR
          "TEAMNET_SANITIZE=${TEAMNET_SANITIZE} is not a known preset "
          "(expected off, address, undefined, thread, or asan+ubsan)")
endif()

if(NOT TEAMNET_SANITIZE STREQUAL "off")
  message(STATUS "TeamNet sanitizer preset: ${TEAMNET_SANITIZE}")
endif()

function(teamnet_apply_build_flags target)
  target_compile_options(${target} PRIVATE -Wall -Wextra)
  # Every `a * b + c` rounds twice, on every host and compiler. GCC (even
  # under ISO -std for C++) and clang would otherwise fuse it into one FMA
  # wherever the target has the instruction — AArch64 NEON, or the GEMM's
  # avx512f kernel — and trained checkpoints would then depend on the CPU
  # (DESIGN.md §2.2).
  target_compile_options(${target} PRIVATE -ffp-contract=off)
  if(TEAMNET_WERROR)
    target_compile_options(${target} PRIVATE -Werror)
  endif()
  if(TEAMNET_THREAD_SAFETY)
    # Always -Werror: a thread-safety finding is a lock-discipline bug, and
    # an advisory warning on a build nobody reads is how races ship.
    target_compile_options(${target} PRIVATE
                           -Wthread-safety -Wthread-safety-beta -Werror)
  endif()
  if(TEAMNET_SANITIZE_FLAGS)
    target_compile_options(${target} PUBLIC ${TEAMNET_SANITIZE_FLAGS})
    target_link_options(${target} PUBLIC ${TEAMNET_SANITIZE_FLAGS})
  endif()
endfunction()
