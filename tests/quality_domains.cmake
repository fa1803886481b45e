# Gates the §6.3 pattern-quality claim: runs bench/quality_domains and checks,
# for each domain, measured precision 1.00, the paper's recall, and a signal
# count within ±10% of the count measured when this gate was set (soccer 426,
# cinematography 356, us_politicians 228 on the bench's fixed world).
execute_process(
  COMMAND ${PROGRAM}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quality_domains failed: ${out}${err}")
endif()

# domain:recall:signals
foreach(spec "soccer:9/11:426" "cinematography:7/8:356" "us_politicians:4/5:228")
  string(REPLACE ":" ";" spec "${spec}")
  list(GET spec 0 domain)
  list(GET spec 1 recall)
  list(GET spec 2 signals)
  if(NOT out MATCHES "=== ${domain} [^\n]*\n[^\n]*\n  measured: precision ([0-9.]+), recall ([0-9]+/[0-9]+); ([0-9]+) signals")
    message(FATAL_ERROR "no measured line for ${domain}: ${out}")
  endif()
  set(got_precision ${CMAKE_MATCH_1})
  set(got_recall ${CMAKE_MATCH_2})
  set(got_signals ${CMAKE_MATCH_3})
  if(NOT got_precision STREQUAL "1.00")
    message(FATAL_ERROR "${domain}: precision ${got_precision}, expected 1.00")
  endif()
  if(NOT got_recall STREQUAL recall)
    message(FATAL_ERROR "${domain}: recall ${got_recall}, expected ${recall}")
  endif()
  math(EXPR low "${signals} * 9 / 10")
  math(EXPR high "${signals} * 11 / 10")
  if(got_signals LESS low OR got_signals GREATER high)
    message(FATAL_ERROR
      "${domain}: ${got_signals} signals, expected ${signals} +/- 10% "
      "(${low}..${high})")
  endif()
  message(STATUS "${domain}: precision ${got_precision}, recall ${got_recall}, "
                 "${got_signals} signals")
endforeach()
