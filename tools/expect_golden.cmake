# ctest driver for a command whose stdout must match a golden file
# byte for byte.
#
# Arguments: -DPROGRAM=<binary> -DARGS="<space-separated args>"
#            -DGOLDEN=<expected stdout> -DACTUAL=<where to keep stdout>

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND "${PROGRAM}" ${arg_list}
    RESULT_VARIABLE rc
    OUTPUT_FILE "${ACTUAL}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGS}' exited ${rc}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
        "stdout of '${ARGS}' differs from ${GOLDEN}; see ${ACTUAL}")
endif()
