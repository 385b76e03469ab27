# The grep gate behind the SvcScheduler.NoSystemCalls test: fails when
# the source file given as -DSOURCE= names a system call, a sleep or a
# clock read.  svc::Scheduler (src/svc/scheduler.cc) is a state machine
# that the daemon drives on an injected clock (DESIGN.md §13), so any
# of these words there means I/O or time crept back into the policy.
#
#   cmake -DSOURCE=src/svc/scheduler.cc -P tests/no_system_calls.cmake
if(NOT EXISTS "${SOURCE}")
    message(FATAL_ERROR "no such file: '${SOURCE}'")
endif()
file(READ "${SOURCE}" text)
foreach(name poll fork exec "kill(" waitpid socket sleep usleep
        steady_clock "Clock::now" "::unlink")
    string(FIND "${text}" "${name}" at)
    if(NOT at EQUAL -1)
        string(SUBSTRING "${text}" 0 ${at} before)
        string(REGEX MATCHALL "\n" newlines "${before}")
        list(LENGTH newlines line)
        math(EXPR line "${line} + 1")
        message(FATAL_ERROR "${SOURCE}:${line} names '${name}'")
    endif()
endforeach()
