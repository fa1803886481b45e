# Drives the wiclean CLI end to end: generate a corpus, mine it, detect
# errors, and check the outputs exist and look sane.
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${WICLEAN} synth --out-dir ${WORK_DIR} --seeds 80 --years 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "synth failed: ${out}${err}")
endif()
foreach(f dump.xml taxonomy.tsv alignment.tsv)
  if(NOT EXISTS ${WORK_DIR}/${f})
    message(FATAL_ERROR "missing ${f}")
  endif()
endforeach()

# A synth whose write fails leaves the earlier world's three files as they
# were and no temp file: all three are written to <name>.tmp and committed
# only once every one closed cleanly. A 32 KB file-size limit (SIGXFSZ
# ignored, so the write fails with EFBIG) fits a 200-seed world's taxonomy
# and alignment but cuts its dump short.
foreach(f dump.xml taxonomy.tsv alignment.tsv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E copy ${WORK_DIR}/${f} ${WORK_DIR}/${f}.before)
endforeach()
execute_process(
  COMMAND sh -c "trap '' XFSZ; ulimit -f 64; exec \"$0\" \"$@\""
    ${WICLEAN} synth --out-dir ${WORK_DIR} --seeds 200 --years 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "synth under a file-size limit should fail: ${out}")
endif()
foreach(f dump.xml taxonomy.tsv alignment.tsv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${WORK_DIR}/${f}.before ${WORK_DIR}/${f}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "failed synth changed the existing ${f}: ${err}")
  endif()
  if(EXISTS ${WORK_DIR}/${f}.tmp)
    message(FATAL_ERROR "failed synth left ${WORK_DIR}/${f}.tmp")
  endif()
  file(REMOVE ${WORK_DIR}/${f}.before)
endforeach()

execute_process(
  COMMAND ${WICLEAN} mine
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --json ${WORK_DIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine failed: ${out}${err}")
endif()
if(NOT out MATCHES "pattern\\(s\\) in")
  message(FATAL_ERROR "mine summary missing: ${out}")
endif()
file(READ ${WORK_DIR}/report.json json)
if(NOT json MATCHES "\"patterns\"")
  message(FATAL_ERROR "JSON report malformed")
endif()

# Mining threads never reach the output: the reports at --mine-threads 1 and
# 4 agree byte for byte once their wall times are stripped. This checks the
# candidate enumeration order end to end, through relative mining and the
# report writer.
foreach(threads 1 4)
  execute_process(
    COMMAND ${WICLEAN} mine
      --dump ${WORK_DIR}/dump.xml
      --taxonomy ${WORK_DIR}/taxonomy.tsv
      --alignment ${WORK_DIR}/alignment.tsv
      --seed-type soccer_player --threshold 0.8 --mine-threads ${threads}
      --json ${WORK_DIR}/report_t${threads}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mine --mine-threads ${threads} failed: ${out}${err}")
  endif()
  file(READ ${WORK_DIR}/report_t${threads}.json report_t${threads})
  string(REGEX REPLACE "\"seconds\": *[-+.0-9eE]+" "" report_t${threads}
         "${report_t${threads}}")
endforeach()
if(NOT report_t1 MATCHES "\"patterns\"")
  message(FATAL_ERROR "mine --mine-threads 1 JSON report malformed")
endif()
if(NOT report_t1 STREQUAL report_t4)
  message(FATAL_ERROR
    "mine --json differs between --mine-threads 1 and --mine-threads 4")
endif()

# A report whose write fails leaves an earlier report at --json untouched
# and no temp file: reports are written to <path>.tmp and committed over
# <path> only once complete. A file-size limit of a few KB (SIGXFSZ ignored,
# so the write fails with EFBIG) cuts the ~45 KB report short.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy
    ${WORK_DIR}/report.json ${WORK_DIR}/report_before.json)
execute_process(
  COMMAND sh -c "trap '' XFSZ; ulimit -f 8; exec \"$0\" \"$@\""
    ${WICLEAN} mine
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --json ${WORK_DIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mine --json under a file-size limit should fail: ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/report_before.json ${WORK_DIR}/report.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed mine --json changed the existing report: ${err}")
endif()
if(EXISTS ${WORK_DIR}/report.json.tmp)
  message(FATAL_ERROR "failed mine --json left ${WORK_DIR}/report.json.tmp")
endif()

# A threshold below 0.2 makes relative admissions (0.5 x base frequency)
# fall below the miner's default realization cache floor of 0.1; the search
# lowers the floor to match, so this corpus mines instead of failing with
# "realization join key column out of range".
execute_process(
  COMMAND ${WICLEAN} mine
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.15
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine --threshold 0.15 failed: ${out}${err}")
endif()
if(NOT out MATCHES "pattern\\(s\\) in")
  message(FATAL_ERROR "mine --threshold 0.15 summary missing: ${out}")
endif()

execute_process(
  COMMAND ${WICLEAN} detect
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --csv ${WORK_DIR}/signals.csv --max-print 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "detect failed: ${out}${err}")
endif()
if(NOT out MATCHES "pattern\\(s\\) scanned, ([0-9]+) potential error")
  message(FATAL_ERROR "detect summary missing: ${out}")
endif()
# --max-print 2 prints two signals, then counts every signal it left out.
math(EXPR unprinted "${CMAKE_MATCH_1} - 2")
if(NOT out MATCHES "\\.\\.\\. \\(${unprinted} more; use --csv to export all\\)")
  message(FATAL_ERROR "detect --max-print 2: expected ${unprinted} more: ${out}")
endif()
file(READ ${WORK_DIR}/signals.csv csv)
if(NOT csv MATCHES "pattern,window_begin_day")
  message(FATAL_ERROR "CSV header missing")
endif()

# Serving: pack the mined patterns into a snapshot, then replay the revision
# log through two staggered tenants of two shards each.
execute_process(
  COMMAND ${WICLEAN} pack
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --out ${WORK_DIR}/patterns.wcps
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pack failed: ${out}${err}")
endif()
if(NOT out MATCHES "packed [0-9]+ pattern\\(s\\)")
  message(FATAL_ERROR "pack summary missing: ${out}")
endif()
execute_process(
  COMMAND ${WICLEAN} serve
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --patterns ${WORK_DIR}/patterns.wcps
    --tenants 2 --feed-threads 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve failed: ${out}${err}")
endif()
if(NOT err MATCHES "served [0-9]+ event\\(s\\) on 2 shard thread\\(s\\)")
  message(FATAL_ERROR "serve summary missing: ${err}")
endif()

# Action log: ingest once to a WCAL artifact, then mine from the log in
# place of the dump. The two mine reports must agree exactly, modulo the
# wall-time lines.
execute_process(
  COMMAND ${WICLEAN} ingest
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --out ${WORK_DIR}/actions.wcal
    --stats-json ${WORK_DIR}/ingest.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest failed: ${out}${err}")
endif()
if(NOT out MATCHES "action\\(s\\) in .* block\\(s\\)")
  message(FATAL_ERROR "ingest summary missing: ${out}")
endif()
file(READ ${WORK_DIR}/ingest.json ingest_json)
if(NOT ingest_json MATCHES "\"action_log\"")
  message(FATAL_ERROR "ingest stats JSON malformed")
endif()

# The parallel ingest writes the same WCAL bytes: pages travel to the
# workers in batches whose page storage the reader recycles, and the merge
# restores source order, so nothing may depend on the worker count.
foreach(threads 1 4)
  execute_process(
    COMMAND ${WICLEAN} ingest
      --dump ${WORK_DIR}/dump.xml
      --taxonomy ${WORK_DIR}/taxonomy.tsv
      --alignment ${WORK_DIR}/alignment.tsv
      --out ${WORK_DIR}/actions_t${threads}.wcal
      --threads ${threads}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ingest --threads ${threads} failed: ${out}${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/actions_t1.wcal ${WORK_DIR}/actions_t4.wcal
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ingest --threads 4 WCAL differs from --threads 1")
endif()

# A failed ingest leaves an earlier log at --out untouched and no temp file:
# the log is written to <out>.tmp and committed over <out> only once
# finished. A 1-byte revision cap under the strict policy fails on the first
# revision.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy
    ${WORK_DIR}/actions.wcal ${WORK_DIR}/actions_before.wcal)
execute_process(
  COMMAND ${WICLEAN} ingest
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --out ${WORK_DIR}/actions.wcal
    --on-error strict --max-revision-bytes 1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "ingest --max-revision-bytes 1 should fail: ${out}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/actions_before.wcal ${WORK_DIR}/actions.wcal
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed ingest changed the existing WCAL at --out")
endif()
if(EXISTS ${WORK_DIR}/actions.wcal.tmp)
  message(FATAL_ERROR "failed ingest left ${WORK_DIR}/actions.wcal.tmp")
endif()

execute_process(
  COMMAND ${WICLEAN} mine
    --action-log ${WORK_DIR}/actions.wcal
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8
    --json ${WORK_DIR}/report_wcal.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mine --action-log failed: ${out}${err}")
endif()
# Strip the timing lines, then demand byte equality with the XML-path report.
foreach(name report report_wcal)
  file(STRINGS ${WORK_DIR}/${name}.json ${name}_lines)
  list(FILTER ${name}_lines EXCLUDE REGEX "seconds")
endforeach()
if(NOT report_lines STREQUAL report_wcal_lines)
  message(FATAL_ERROR "mine --action-log report differs from --dump report")
endif()

# Error paths: bad inputs must fail with a clear message.
execute_process(
  COMMAND ${WICLEAN} mine --dump /nonexistent --taxonomy /nonexistent
    --alignment /nonexistent --seed-type x
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "mine with bad inputs should fail")
endif()
execute_process(
  COMMAND ${WICLEAN} mine
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --seed-type soccer_player --threshold 0.8 --mine-threads -1
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "mine --mine-threads -1 should fail")
endif()
if(NOT err MATCHES "--mine-threads must be >= 1")
  message(FATAL_ERROR "mine --mine-threads -1: unexpected error: ${err}")
endif()
# Mining options outside their domain fail up front, naming the option and
# the value: a threshold of 0 used to expand every supported pattern (no
# result within minutes), a negative one failed with a misleading cache-floor
# message, and one above 1 was accepted; a negative --abstraction-lift mined
# nothing, --max-actions 0 still reported singletons and -1 wrapped to no cap.
foreach(bad
    "--threshold;0;WindowSearchOptions::initial_threshold must be in \\(0, 1\\], got 0"
    "--threshold;-0.3;WindowSearchOptions::initial_threshold must be in \\(0, 1\\], got -0.3"
    "--threshold;1.5;WindowSearchOptions::initial_threshold must be in \\(0, 1\\], got 1.5"
    "--abstraction-lift;-1;--abstraction-lift must be >= 0, got -1"
    "--max-actions;0;--max-actions must be >= 1, got 0"
    "--max-actions;-1;--max-actions must be >= 1, got -1")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  list(GET bad 2 expected)
  execute_process(
    COMMAND ${WICLEAN} mine
      --dump ${WORK_DIR}/dump.xml
      --taxonomy ${WORK_DIR}/taxonomy.tsv
      --alignment ${WORK_DIR}/alignment.tsv
      --seed-type soccer_player ${flag} ${value}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET
    TIMEOUT 60)
  if(rc EQUAL 0)
    message(FATAL_ERROR "mine ${flag} ${value} should fail")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "mine ${flag} ${value}: unexpected error: ${rc} ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${WICLEAN} serve
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --patterns ${WORK_DIR}/patterns.wcps --queue-capacity -1
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve --queue-capacity -1 should fail")
endif()
if(NOT err MATCHES "--queue-capacity must be >= 1")
  message(FATAL_ERROR "serve --queue-capacity -1: unexpected error: ${err}")
endif()
execute_process(
  COMMAND ${WICLEAN} serve
    --dump ${WORK_DIR}/dump.xml
    --taxonomy ${WORK_DIR}/taxonomy.tsv
    --alignment ${WORK_DIR}/alignment.tsv
    --patterns ${WORK_DIR}/patterns.wcps --allowed-skew -1
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "serve --allowed-skew -1 should fail")
endif()
if(NOT err MATCHES "--allowed-skew must be >= 0")
  message(FATAL_ERROR "serve --allowed-skew -1: unexpected error: ${err}")
endif()
# Numeric flags take the whole value or fail naming the flag: a negative
# --max-print used to wrap and print every signal, a non-numeric one read as
# 0, and a negative --max-revision-bytes silently lifted the cap.
foreach(bad
    "--max-print;-1;--max-print must be >= 0, got -1"
    "--max-print;abc;--max-print must be an integer, got 'abc'"
    "--max-print;5x;--max-print must be an integer, got '5x'"
    "--max-print;99999999999999999999;--max-print is out of range"
    "--max-revision-bytes;-5;--max-revision-bytes must be >= 0, got -5"
    "--threshold;0.5x;--threshold must be a number, got '0.5x'")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  list(GET bad 2 expected)
  execute_process(
    COMMAND ${WICLEAN} detect
      --dump ${WORK_DIR}/dump.xml
      --taxonomy ${WORK_DIR}/taxonomy.tsv
      --alignment ${WORK_DIR}/alignment.tsv
      --seed-type soccer_player --threshold 0.8 ${flag} ${value}
    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET
    TIMEOUT 60)
  if(rc EQUAL 0)
    message(FATAL_ERROR "detect ${flag} ${value} should fail")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "detect ${flag} ${value}: unexpected error: ${rc} ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${WICLEAN} bogus-subcommand
  RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown subcommand should fail")
endif()
