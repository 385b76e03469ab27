# The golden check behind the Figure.* and Example.* tests: runs one
# figure, table, ablation or example binary in a fresh directory and
# compares its stdout with a committed golden file.  The only filter
# drops the `campaign: …` lines, which print wall time and the worker
# count; every other byte must match.
#
#   cmake -DBINARY=build/bench/fig10_port_contention \
#         -DGOLDEN=tests/golden/fig10_port_contention.txt \
#         -DWORKDIR=/tmp/fig10 [-DUPDATE=ON] -P tests/golden.cmake
#
# With UPDATE=ON the filtered stdout overwrites the golden instead
# (`cmake --build build --target update-goldens` does this for all).
foreach(var BINARY GOLDEN WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden.cmake: -D${var}= is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BINARY}"
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BINARY} exited with '${status}'")
endif()

# The wall-clock filter: `campaign: 12 trials … in 0.32s …` and the
# quickstart's `campaign              : … on 4 worker(s)`.
string(PREPEND out "\n")
string(REGEX REPLACE "\ncampaign *:[^\n]*" "" out "${out}")
string(SUBSTRING "${out}" 1 -1 out)

if(UPDATE)
    file(WRITE "${GOLDEN}" "${out}")
    message(STATUS "wrote ${GOLDEN}")
    return()
endif()
if(NOT EXISTS "${GOLDEN}")
    message(FATAL_ERROR "no golden '${GOLDEN}'")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
    file(WRITE "${WORKDIR}/stdout.txt" "${out}")
    message(FATAL_ERROR "stdout differs from the golden; see\n"
        "  diff ${GOLDEN} ${WORKDIR}/stdout.txt")
endif()
