# Coverage leg of `obs_net_sanity`: once every ctest entry has run in a tree
# built with --coverage, one gcov call merges the .gcda counts of every
# object in the tree (so a header's lines count every translation unit that
# ran them) and this script prints line coverage per file of src/ and
# tools/, most unrun lines first, then the total. The same table is written
# as markdown to OUT.
#
#   cmake -DTREE=build/coverage -DSOURCE_DIR=. -DOUT=coverage.md \
#         -P cmake/coverage_report.cmake
#
# With -DRESET=1 it only deletes the tree's .gcda files, so a rerun counts
# from zero instead of adding to the previous run.
cmake_minimum_required(VERSION 3.16)

if(NOT TREE)
  message(FATAL_ERROR "usage: cmake -DTREE=DIR [-DRESET=1 | -DSOURCE_DIR=DIR "
                      "-DOUT=FILE] -P coverage_report.cmake")
endif()
file(GLOB_RECURSE gcda_files "${TREE}/*.gcda")
if(RESET)
  if(gcda_files)
    file(REMOVE ${gcda_files})
  endif()
  return()
endif()
if(NOT SOURCE_DIR OR NOT OUT)
  message(FATAL_ERROR "coverage_report.cmake needs SOURCE_DIR and OUT")
endif()
if(NOT gcda_files)
  message(FATAL_ERROR "no .gcda files under ${TREE}: run ctest there first")
endif()
find_program(GCOV gcov)
if(NOT GCOV)
  message(FATAL_ERROR "gcov not found")
endif()

# -n: print the summaries only, write no .gcov files.
execute_process(COMMAND "${GCOV}" -n ${gcda_files}
                WORKING_DIRECTORY "${TREE}"
                OUTPUT_VARIABLE gcov_out ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcov failed (${rc})")
endif()

get_filename_component(root "${SOURCE_DIR}" ABSOLUTE)
string(REPLACE "\n" ";" lines "${gcov_out}")
set(current "")
set(rows "")
set(total_lines 0)
set(total_run 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^File '(.*)'$")
    set(current "${CMAKE_MATCH_1}")
  elseif(current AND line MATCHES "^Lines executed:([0-9.]+)% of ([0-9]+)$")
    set(pct "${CMAKE_MATCH_1}")
    set(n "${CMAKE_MATCH_2}")
    file(RELATIVE_PATH rel "${root}" "${current}")
    if(rel MATCHES "^(src|tools)/")
      # gcov prints the percentage to two decimals; recover the count.
      string(REPLACE "." "" pct_x100 "${pct}")
      math(EXPR run "(${pct_x100} * ${n} + 5000) / 10000")
      math(EXPR unrun "${n} - ${run}")
      math(EXPR total_lines "${total_lines} + ${n}")
      math(EXPR total_run "${total_run} + ${run}")
      # Zero-padded unrun count first, so a natural sort orders the rows.
      string(LENGTH "${unrun}" width)
      math(EXPR pad "6 - ${width}")
      string(REPEAT "0" ${pad} zeros)
      list(APPEND rows "${zeros}${unrun}|${rel}|${n}|${unrun}|${pct}")
    endif()
    set(current "")
  endif()
endforeach()
list(SORT rows COMPARE NATURAL ORDER DESCENDING)

math(EXPR total_unrun "${total_lines} - ${total_run}")
math(EXPR total_pct_x100 "(${total_run} * 10000) / ${total_lines}")
math(EXPR whole "${total_pct_x100} / 100")
math(EXPR frac "${total_pct_x100} % 100")
if(frac LESS 10)
  set(frac "0${frac}")
endif()

set(md "| file | lines | unrun | covered |\n|---|---|---|---|\n")
set(text "")
foreach(row IN LISTS rows)
  string(REPLACE "|" ";" f "${row}")
  list(GET f 1 rel)
  list(GET f 2 n)
  list(GET f 3 unrun)
  list(GET f 4 pct)
  string(APPEND md "| `${rel}` | ${n} | ${unrun} | ${pct}% |\n")
  string(APPEND text "  ${pct}%\t${unrun}/${n} unrun\t${rel}\n")
endforeach()
string(APPEND md
       "| total | ${total_lines} | ${total_unrun} | ${whole}.${frac}% |\n")
file(WRITE "${OUT}" "${md}")
message("line coverage, src/ and tools/ (most unrun lines first):\n${text}"
        "  total ${whole}.${frac}% of ${total_lines} lines "
        "(${total_unrun} unrun)\n  table -> ${OUT}")
