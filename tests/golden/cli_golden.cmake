# radnet_cli stdout goldens: every tests/golden/cli/<case>.txt starts with
# the command line it pins ("$ radnet_cli <flags>"), followed by the exact
# stdout of that run and its exit status. The script re-runs each command
# and fails, printing both versions, on any byte difference.
#
#   cmake -DCLI=build/radnet_cli -DGOLDEN_DIR=tests/golden/cli -P cli_golden.cmake
#
# Add -DBLESS=1 to rewrite the files from the current build after an
# intended output change (explain every moved file in CHANGES.md). A new
# case is a file holding just its command line, blessed once.
if(NOT CLI OR NOT GOLDEN_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<radnet_cli> -DGOLDEN_DIR=<dir> "
                      "[-DBLESS=1] -P cli_golden.cmake")
endif()

file(GLOB cases "${GOLDEN_DIR}/*.txt")
list(LENGTH cases count)
if(count EQUAL 0)
  message(FATAL_ERROR "no cases under ${GOLDEN_DIR}")
endif()

set(failed 0)
foreach(case IN LISTS cases)
  file(READ "${case}" expected)
  string(FIND "${expected}" "\n" eol)
  string(SUBSTRING "${expected}" 0 ${eol} command)
  if(NOT command MATCHES "^\\$ radnet_cli ")
    message(FATAL_ERROR "${case}: first line must be '$ radnet_cli <flags>'")
  endif()
  string(REGEX REPLACE "^\\$ radnet_cli " "" flags "${command}")
  separate_arguments(argv UNIX_COMMAND "${flags}")
  execute_process(COMMAND "${CLI}" ${argv}
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE status)
  set(actual "${command}\n${stdout}[exit ${status}]\n")
  get_filename_component(name "${case}" NAME_WE)
  if(BLESS)
    file(WRITE "${case}" "${actual}")
    message(STATUS "blessed ${name}")
  elseif(NOT actual STREQUAL expected)
    math(EXPR failed "${failed} + 1")
    message("---- ${name}: expected\n${expected}---- got\n${actual}${stderr}")
  endif()
endforeach()

if(failed GREATER 0)
  message(FATAL_ERROR "${failed} of ${count} radnet_cli goldens differ")
endif()
message(STATUS "${count} radnet_cli goldens match")
