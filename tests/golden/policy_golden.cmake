# Golden gate for the timeout-policy outputs: reruns the ablation bench
# and the adaptive-policy tournament (default flags) and the
# outage-monitor example, and requires their stdout to match the
# committed files byte for byte. Run by the `policy_golden` ctest:
#
#   cmake -DABLATION=<ablation_timeout_policy> -DMONITOR=<outage_monitor> \
#         -DTOURNAMENT=<policy_tournament> -DPLANS_DIR=<examples> \
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<scratch dir> -P policy_golden.cmake
#
# A mismatch leaves the fresh output in OUT_DIR for diffing.
function(check_golden exe name)
  set(out "${OUT_DIR}/${name}.txt")
  execute_process(COMMAND "${exe}" ${ARGN} OUTPUT_FILE "${out}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${name}.txt" "${out}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: stdout differs from ${GOLDEN_DIR}/${name}.txt "
                        "(fresh output in ${out})")
  endif()
endfunction()

check_golden("${ABLATION}" ablation_timeout_policy)
check_golden("${MONITOR}" outage_monitor)
# The tournament reads its fault plans relative to --plans-dir, and ctest
# runs from the build tree.
check_golden("${TOURNAMENT}" policy_tournament "--plans-dir=${PLANS_DIR}")
