# Counts the settable values of the simulator: the data members of
# every *Config, *Plan, *Options, *Costs and *Tunables struct under
# the source directory given as -DSOURCE_DIR=.  A `static` or
# `constexpr` member, a member function and an operator are not
# settable; a nested config (MachineConfig::core) counts as one.
# Prints one line per struct and the total.  With -DEXPECTED=N it fails
# unless the total is N: the Config.SettableValuesPinned ratchet, so a
# change that adds or removes a settable value updates the pin in
# tests/CMakeLists.txt and says why in CHANGES.md.
#
#   cmake -DSOURCE_DIR=src -P tests/settable_values.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT IS_DIRECTORY "${SOURCE_DIR}")
    message(FATAL_ERROR "no such directory: '${SOURCE_DIR}'")
endif()
get_filename_component(SOURCE_DIR "${SOURCE_DIR}" ABSOLUTE)
file(GLOB_RECURSE files RELATIVE "${SOURCE_DIR}"
    "${SOURCE_DIR}/*.hh" "${SOURCE_DIR}/*.cc")
list(SORT files)

set(total 0)
foreach(file IN LISTS files)
    file(READ "${SOURCE_DIR}/${file}" text)
    # One list item per line: the characters CMake lists treat
    # specially become inert stand-ins first (`;` ends a member, so it
    # becomes `@`).
    string(REPLACE "\\" "/" text "${text}")
    string(REPLACE "[" "<" text "${text}")
    string(REPLACE "]" ">" text "${text}")
    string(REPLACE ";" "@" text "${text}")
    string(REPLACE "\n" ";" lines "${text}")

    set(name "")
    set(number 0)
    foreach(line IN LISTS lines)
        math(EXPR number "${number} + 1")
        if(name STREQUAL "")
            if(line MATCHES "^[ \t]*(struct|class)[ \t]+([A-Za-z0-9_]*(Config|Plan|Options|Costs|Tunables))[ \t]*(:.*)?$")
                set(name "${CMAKE_MATCH_2}")
                set(at ${number})
                set(depth 0)
                set(opened FALSE)
                set(members 0)
            endif()
            continue()
        endif()

        string(REGEX REPLACE "//.*" "" line "${line}")
        string(STRIP "${line}" line)
        if(depth EQUAL 1 AND line MATCHES "@$"
                AND NOT line MATCHES "^(using|static|constexpr|friend|typedef|enum|return|[*}]|/[*])"
                AND NOT line MATCHES "operator")
            string(REGEX REPLACE "=.*" "" head "${line}")
            if(NOT head MATCHES "[(]")
                math(EXPR members "${members} + 1")
            endif()
        endif()

        string(REPLACE "{" "" no_open "${line}")
        string(REPLACE "}" "" no_close "${line}")
        string(LENGTH "${line}" length)
        string(LENGTH "${no_open}" open_length)
        string(LENGTH "${no_close}" close_length)
        math(EXPR depth "${depth} + ${length} - ${open_length} - (${length} - ${close_length})")
        if(NOT open_length EQUAL length)
            set(opened TRUE)
        endif()
        if(opened AND depth EQUAL 0)
            message(STATUS "${file}:${at} ${name} ${members}")
            math(EXPR total "${total} + ${members}")
            set(name "")
        endif()
    endforeach()
endforeach()

message(STATUS "settable values: ${total}")
if(DEFINED EXPECTED AND NOT total EQUAL EXPECTED)
    message(FATAL_ERROR "${total} settable values, pinned at ${EXPECTED}: "
        "update the pin in tests/CMakeLists.txt and give the reason "
        "in CHANGES.md")
endif()
