# ctest driver for a command line that must be rejected: the program
# has to exit non-zero and print a message matching EXPECT.
#
# Arguments: -DPROGRAM=<binary> -DARGS="<space-separated args>"
#            -DEXPECT=<regex>

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND "${PROGRAM}" ${arg_list}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "'${ARGS}' was accepted (exit 0)")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "'${ARGS}' exited ${rc} without '${EXPECT}':\n${err}")
endif()
