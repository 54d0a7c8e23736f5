# Fails if the virtual memory-level chain or the block-prefetch wrapper
# comes back under src/, tools/, bench/ or examples/.  The hierarchy is
# one concrete chain, L1 -> L2 -> MainMemory (cache/hierarchy.hh): a
# Cache calls the next Cache, or MainMemory at the last level, and
# block prefetch is the prefetch case of Machine::exec().  Three names
# mark the deleted alternatives: the virtual level interface
# ("MemLevel"), its adapter over main memory ("MemoryLevel") and the
# wrapper that issued block prefetches ("Prefetcher").  The cache
# oracle's verbatim parent copy lives under tests/ and is not scanned.
#
#   cmake -DREPO_DIR=<repo> -P one_memory_chain.cmake

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
         "MemLevel|MemoryLevel|Prefetcher")
    foreach(hit IN LISTS hits)
        string(STRIP "${hit}" hit)
        string(APPEND offenders "\n  ${rel}: ${hit}")
    endforeach()
endforeach()

if(offenders)
    message(FATAL_ERROR
        "the hierarchy is one concrete chain, L1 -> L2 -> MainMemory, "
        "and block prefetch lives in Machine::exec():${offenders}")
endif()
message(STATUS "one memory chain: ok")
