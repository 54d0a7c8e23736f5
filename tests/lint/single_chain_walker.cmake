# Fails if a forwarding dereference appears in src/ outside
# core/chain_walk.hh (walkChain, the one chain walker) and
# core/cycle_check.cc (the accurate check's visited-set walk).  Two
# shapes count: a loop on the forwarding bit ("while (... fbit(", any
# case, so the timed software walk's "readFBit(" counts), and a payload
# followed as the next address ("wordAlign(... rawReadWord("), which
# catches a chain loop of any other shape, such as "for (;;)".
#
#   cmake -DSRC_DIR=<repo>/src -P single_chain_walker.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR)
    message(FATAL_ERROR "pass -DSRC_DIR=<path to src/>")
endif()

set(allowed core/chain_walk.hh core/cycle_check.cc)
file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}"
     "${SRC_DIR}/*.cc" "${SRC_DIR}/*.hh")
set(offenders "")
foreach(rel IN LISTS sources)
    if(rel IN_LIST allowed)
        continue()
    endif()
    file(STRINGS "${SRC_DIR}/${rel}" hits REGEX
         "while[ \t]*\\(.*[fF][bB][iI][tT]\\(|wordAlign[ \t]*\\(.*rawReadWord[ \t]*\\(")
    foreach(hit IN LISTS hits)
        string(STRIP "${hit}" hit)
        string(APPEND offenders "\n  src/${rel}: ${hit}")
    endforeach()
endforeach()

if(offenders)
    message(FATAL_ERROR
        "forwarding dereference loop outside walkChain(); follow chains "
        "with walkChain()/chainTail() (core/chain_walk.hh):${offenders}")
endif()
message(STATUS "single chain walker: ok")
