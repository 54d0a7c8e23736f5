# Fails if RunResult (src/workloads/driver.hh) declares a member other
# than the five the metrics tree cannot hold, or if the deleted flat
# stats registry class reappears under src/ or tools/ (the regex is
# bracketed so a search for the class name does not find this file).
#
#   cmake -DREPO_DIR=<repo> -P one_run_result.cmake

cmake_minimum_required(VERSION 3.16)

set(allowed workload variant checksum space_overhead_bytes metrics)
set(offenders "")

file(READ "${REPO_DIR}/src/workloads/driver.hh" text)
string(FIND "${text}" "\nstruct RunResult\n{\n" begin)
if(begin EQUAL -1)
    message(FATAL_ERROR "struct RunResult not found in ${REPO_DIR}")
endif()
string(SUBSTRING "${text}" ${begin} -1 text)
string(FIND "${text}" "\n};" end)
string(SUBSTRING "${text}" 0 ${end} body)

# Drop comments; keep ';' and brackets out of CMake's list syntax.
string(REGEX REPLACE "/\\*([^*]|\\*+[^*/])*\\*+/|//[^\n]*" "" body "${body}")
string(REGEX REPLACE "[][]" "" body "${body}")
string(REPLACE ";" "@" body "${body}")
string(REPLACE "\n" ";" lines "${body}")

# Members sit at the four-space indent (deeper lines are function
# bodies).  "<type> <name> [= init | {init}];" is a field; anything
# else there, such as a member function, is an offender.
set(field "^    [A-Za-z_:][A-Za-z0-9_:<>, ]*[ &*]([A-Za-z_][A-Za-z0-9_]*)")
string(APPEND field " *(=[^@]*|{[^@]*})?@ *$")
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^    [^ ]" OR line MATCHES "^    [{}]+@? *$")
        continue()
    endif()
    if(NOT line MATCHES "${field}" OR NOT CMAKE_MATCH_1 IN_LIST allowed)
        string(STRIP "${line}" line)
        string(REPLACE "@" ";" line "${line}")
        string(APPEND offenders "\n  RunResult member: ${line}")
    endif()
endforeach()

file(GLOB_RECURSE sources "${REPO_DIR}/src/*" "${REPO_DIR}/tools/*")
foreach(path IN LISTS sources)
    file(STRINGS "${path}" hits REGEX "Stats[R]egistry")
    if(hits)
        string(APPEND offenders "\n  ${path}: names the stats registry")
    endif()
endforeach()

if(offenders)
    string(REPLACE ";" ", " allowed "${allowed}")
    message(FATAL_ERROR "RunResult keeps only ${allowed}; read simulated "
        "results with RunResult::metrics.counterAt():${offenders}")
endif()
message(STATUS "one run result: ok")
