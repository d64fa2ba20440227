# Every flag a cawosched-cli mode accepts, except --help, must appear in
# that mode's --help text. The modes come from the unknown-subcommand
# error and each mode's flags from its unknown-flag error, so a new
# command-table entry or flag is covered without editing this script.
# Invoked from CTest (`cli_usage_lists_every_flag` in CMakeLists.txt):
#
#   cmake -DCLI=<cawosched-cli> -P check_cli_usage.cmake

# The "(valid: a, b, ...)" list of an error message, as a CMake list.
function(valid_list out err)
  if(NOT err MATCHES "\\(valid: ([^)]*)\\)")
    message(FATAL_ERROR "no valid-list in: ${err}")
  endif()
  string(REPLACE ", " ";" items "${CMAKE_MATCH_1}")
  set(${out} "${items}" PARENT_SCOPE)
endfunction()

execute_process(COMMAND ${CLI} no-such-subcommand
                OUTPUT_QUIET ERROR_VARIABLE err)
valid_list(subcommands "${err}")

set(missing)
foreach(word "" ${subcommands})
  execute_process(COMMAND ${CLI} ${word} --help
                  OUTPUT_VARIABLE usage RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cawosched-cli ${word} --help exited with ${rc}")
  endif()
  execute_process(COMMAND ${CLI} ${word} --no-such-flag
                  OUTPUT_QUIET ERROR_VARIABLE err)
  valid_list(flags "${err}")
  string(STRIP "cawosched-cli ${word}" mode)
  foreach(flag ${flags})
    if(flag STREQUAL "--help")
      continue()
    endif()
    if(NOT usage MATCHES "${flag}([^a-z-]|$)")
      list(APPEND missing "${mode} ${flag}")
    endif()
  endforeach()
endforeach()

if(missing)
  list(JOIN missing "\n  " missing)
  message(FATAL_ERROR "flags missing from their --help text:\n  ${missing}")
endif()
