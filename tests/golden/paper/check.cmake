# Runs one paper-figure driver and compares what it prints, and the CSV it
# writes (if any), byte for byte with the goldens in this directory.
#
#   cmake -DBIN=<driver> -DNAME=<golden stem> -DWORK_DIR=<dir>
#         [-DCSV=<file written by the driver>] -P check.cmake
#
# The driver runs in WORK_DIR so concurrent tests never share a CSV. The
# one wall-clock line (bench_fig09's calibration time) is filtered out
# before the comparison. On a mismatch the actual bytes land next to the
# run as <name>.actual.
set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
if(CSV)
  file(REMOVE ${WORK_DIR}/${CSV})
endif()

execute_process(COMMAND ${BIN} WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
string(REGEX REPLACE "calibration \\(one-time per target\\): [^\n]*\n" ""
       out "${out}")

function(compare name actual)
  file(READ ${golden_dir}/${name} want)
  if(NOT actual STREQUAL want)
    file(WRITE ${WORK_DIR}/${name}.actual "${actual}")
    message(FATAL_ERROR "${name} differs from its golden; see "
                        "${WORK_DIR}/${name}.actual")
  endif()
endfunction()

compare(${NAME}.txt "${out}")
if(CSV)
  file(READ ${WORK_DIR}/${CSV} csv)
  compare(${CSV} "${csv}")
endif()
