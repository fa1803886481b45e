# Runs the relation_id_order program with the synthetic world's relation
# names interned in ascending and in descending name order, and demands
# byte-identical outputs: relation ids follow interning order, and no mined,
# searched, packed or detected result may depend on them.
file(MAKE_DIRECTORY ${WORK_DIR})
foreach(order ascending descending)
  execute_process(
    COMMAND ${PROGRAM} ${order} ${WORK_DIR}/${order}.txt
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "relation_id_order ${order} failed: ${out}${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/ascending.txt ${WORK_DIR}/descending.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "outputs differ between relation id orders: "
                      "${WORK_DIR}/ascending.txt ${WORK_DIR}/descending.txt")
endif()
