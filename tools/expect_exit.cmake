# Runs ${CLI} with ${ARGS} (space-separated) and fails unless the process
# exits with status ${EXPECT} and, when ${MATCH} is set, its stdout matches
# that regular expression (`^$`: printed nothing). Used to pin the CLI's
# usage-error contract — malformed flag values must exit 2, not crash (1)
# or succeed (0) — and what a run prints.
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${arg_list} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL ${EXPECT})
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}'\nstderr: ${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "stdout does not match '${MATCH}':\n${out}")
endif()
