# Fails if a second way of executing references comes back under src/,
# tools/, bench/ or examples/.  Every reference enters the machine
# through Machine::access() (runtime/machine.hh), one call per
# reference in program order; Machine::run() replays a batch through
# it.  Four names mark the deleted alternatives: a deferring emitter
# ("BatchEmitter"), a hoisted batch loop ("runRefs"), a separate traced
# instantiation of the reference executor ("Exec::traced") and an ALU
# count carried across references ("alu_acc").
#
#   cmake -DREPO_DIR=<repo> -P one_access_dispatch.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT REPO_DIR)
    message(FATAL_ERROR "pass -DREPO_DIR=<path to the repository>")
endif()

set(sources "")
foreach(dir src tools bench examples)
    file(GLOB_RECURSE found RELATIVE "${REPO_DIR}"
         "${REPO_DIR}/${dir}/*.cc" "${REPO_DIR}/${dir}/*.hh"
         "${REPO_DIR}/${dir}/*.cpp" "${REPO_DIR}/${dir}/*.h")
    list(APPEND sources ${found})
endforeach()
list(SORT sources)

set(offenders "")
foreach(rel IN LISTS sources)
    file(STRINGS "${REPO_DIR}/${rel}" hits REGEX
         "BatchEmitter|runRefs|Exec::traced|alu_acc")
    foreach(hit IN LISTS hits)
        string(STRIP "${hit}" hit)
        string(APPEND offenders "\n  ${rel}: ${hit}")
    endforeach()
endforeach()

if(offenders)
    message(FATAL_ERROR
        "references must enter through Machine::access(), one call per "
        "reference:${offenders}")
endif()
message(STATUS "one access dispatch: ok")
