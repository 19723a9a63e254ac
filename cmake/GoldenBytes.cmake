# Golden-bytes check, CLI level: the SHA-256 of `wdag batch --stream-csv`
# output for every workload family at seeds 1 and 2, and for the dense
# random-dag command (the dense-dsatur benchmark's instance shape), must
# match the digests committed in tests/data/golden_csv.sha256. Batch bytes
# are a function of the seed only, so any difference is a changed result.
#
# The file is in `sha256sum` format, one "<digest>  <name>.csv" line per
# command, so `sha256sum -c` in the work dir re-checks a run by hand. Each
# run writes its own digests, in the same format and order, to
# golden_csv.sha256 in the work dir: a change that alters the bytes on
# purpose copies that file over the committed one and says why in
# CHANGES.md.
#
# Invoked as:
#   cmake -DWDAG_CLI=<path> -DWDAG_WORK_DIR=<dir> -DWDAG_GOLDEN=<file>
#         -P GoldenBytes.cmake

cmake_minimum_required(VERSION 3.20)  # if(IN_LIST) below

foreach(var WDAG_CLI WDAG_WORK_DIR WDAG_GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden-bytes: ${var} must be defined")
  endif()
endforeach()

set(families random-upp random-dag no-internal layered tree grid butterfly
             fat-chain spine odd-cycle c5 c7 figure1 figure3 havet)

file(REMOVE_RECURSE "${WDAG_WORK_DIR}")
file(MAKE_DIRECTORY "${WDAG_WORK_DIR}")

set(actual "")
function(record name)
  set(csv "${WDAG_WORK_DIR}/${name}.csv")
  execute_process(
    COMMAND "${WDAG_CLI}" batch ${ARGN} --stream-csv "${csv}"
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "golden-bytes: 'wdag batch ${ARGN}' failed (${rc}):\n${err}")
  endif()
  file(SHA256 "${csv}" digest)
  set(actual "${actual}${digest}  ${name}.csv\n" PARENT_SCOPE)
endfunction()

foreach(family IN LISTS families)
  foreach(seed 1 2)
    record(${family}-s${seed} --gen ${family} --count 500 --seed ${seed})
  endforeach()
endforeach()
record(dense-random-dag-s1 --gen random-dag --size 60 --density 0.15
       --paths 1500 --count 32 --seed 1)

file(WRITE "${WDAG_WORK_DIR}/golden_csv.sha256" "${actual}")
file(READ "${WDAG_GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  string(REPLACE "\n" ";" expected_lines "${expected}")
  string(REPLACE "\n" ";" actual_lines "${actual}")
  set(report "")
  foreach(line IN LISTS actual_lines)
    if(line AND NOT line IN_LIST expected_lines)
      string(APPEND report "  now ${line}\n")
    endif()
  endforeach()
  foreach(line IN LISTS expected_lines)
    if(line AND NOT line IN_LIST actual_lines)
      string(APPEND report "  was ${line}\n")
    endif()
  endforeach()
  message(FATAL_ERROR
    "golden-bytes: batch CSV bytes differ from ${WDAG_GOLDEN}:\n${report}"
    "Outputs and their digests are in ${WDAG_WORK_DIR}.")
endif()

message(STATUS "golden-bytes: all commands match ${WDAG_GOLDEN}")
