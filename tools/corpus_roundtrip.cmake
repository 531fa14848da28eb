# Runs ${CLI} with ${ARGS} (space-separated) plus `--corpus ${CORPUS}` on a
# fresh corpus file and requires exit 1 and exactly one appended line
# containing ${MATCH}. Then runs the `bcsim ...` command of that line and
# requires the exit code its verdict implies: 0 for transparent (and for a
# diagnosed chaos cell), 1 otherwise.
file(REMOVE ${CORPUS})
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${arg_list} --corpus ${CORPUS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected the sweep to fail (exit 1), got '${rc}':\n${out}")
endif()
file(STRINGS ${CORPUS} lines)
list(LENGTH lines n)
if(NOT n EQUAL 1 OR NOT lines MATCHES "^([a-z]+) bcsim ([a-z]+) (.*)$")
  message(FATAL_ERROR "expected one '<verdict> bcsim <command> ...' line, got:\n${lines}")
endif()
set(verdict ${CMAKE_MATCH_1})
set(command ${CMAKE_MATCH_2})
set(options ${CMAKE_MATCH_3})
string(FIND "${lines}" "${MATCH}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "corpus line lacks '${MATCH}': ${lines}")
endif()
set(expect 1)
if(verdict STREQUAL "transparent" OR (command STREQUAL "chaos" AND verdict STREQUAL "diagnosed"))
  set(expect 0)
endif()
separate_arguments(replay_list UNIX_COMMAND "${command} ${options}")
execute_process(COMMAND ${CLI} ${replay_list} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL expect)
  message(FATAL_ERROR "'${lines}' exited ${rc}, its verdict means ${expect}:\n${out}")
endif()
