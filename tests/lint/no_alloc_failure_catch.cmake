# Fails if src/ catches AllocFailure.  A full heap is an ordinary answer
# on the placement path: code that only turns the exception into a
# value calls SimAllocator::tryAlloc or LayoutBackend::tryAllocate,
# which return std::nullopt, instead of unwinding the stack for it.
# Tools, benches and tests may still catch it at their top level.
#
#   cmake -DSRC_DIR=<repo>/src -P no_alloc_failure_catch.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR)
    message(FATAL_ERROR "pass -DSRC_DIR=<path to src/>")
endif()

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.cc" "${SRC_DIR}/*.hh")
list(SORT sources)
set(offenders "")
foreach(rel IN LISTS sources)
    file(STRINGS "${SRC_DIR}/${rel}" hits REGEX
         "catch[ \t]*\\([ \t]*const[ \t]+AllocFailure")
    foreach(hit IN LISTS hits)
        string(STRIP "${hit}" hit)
        string(APPEND offenders "\n  src/${rel}: ${hit}")
    endforeach()
endforeach()

if(offenders)
    message(FATAL_ERROR
        "AllocFailure caught in src/; use tryAlloc()/tryAllocate() "
        "(std::nullopt on a full heap) instead:${offenders}")
endif()
message(STATUS "no AllocFailure catch: ok")
