# Golden digest of the WCAL ingest writes for the cli_smoke world (synth
# --seeds 80 --years 1): ingests it at --threads 1 and 4 and compares the
# SHA-256 of each log with the value below. A change that alters WCAL bytes
# on purpose updates kExpected and says why in CHANGES.md; any other
# mismatch is a regression in the dump reader, the wikitext parse/diff, the
# ingest merge or the log writer.
set(kExpected a374c1941b78bd333c0c9408acc187d611dfd332b8b28fc7cc7766a971da4c26)

file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${WICLEAN} synth --out-dir ${WORK_DIR} --seeds 80 --years 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "synth failed: ${out}${err}")
endif()
foreach(threads 1 4)
  set(wcal ${WORK_DIR}/actions_t${threads}.wcal)
  execute_process(
    COMMAND ${WICLEAN} ingest
      --dump ${WORK_DIR}/dump.xml
      --taxonomy ${WORK_DIR}/taxonomy.tsv
      --alignment ${WORK_DIR}/alignment.tsv
      --out ${wcal}
      --threads ${threads}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ingest --threads ${threads} failed: ${out}${err}")
  endif()
  file(SHA256 ${wcal} digest)
  if(NOT digest STREQUAL kExpected)
    message(FATAL_ERROR "ingest --threads ${threads} WCAL digest ${digest} "
                        "differs from the golden ${kExpected}")
  endif()
endforeach()
