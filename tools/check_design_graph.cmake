# Fails when the module-layering graph in DESIGN.md §8 differs from what
# `bbv_lint --dot` observes in the tree.
#
# Usage: cmake -DBBV_LINT=<path to bbv_lint> -DREPO_ROOT=<repo> \
#              -P check_design_graph.cmake

execute_process(
  COMMAND "${BBV_LINT}" --dot "${REPO_ROOT}"
  OUTPUT_VARIABLE observed
  RESULT_VARIABLE lint_result)
# Exit code 1 only reports lint findings (bbv_lint_repo gates those); 2 means
# nothing was scanned, so there is no graph to compare.
if(NOT lint_result EQUAL 0 AND NOT lint_result EQUAL 1)
  message(FATAL_ERROR "bbv_lint --dot failed with exit code ${lint_result}")
endif()

file(READ "${REPO_ROOT}/DESIGN.md" design)
set(fence_open "```dot\n")
string(FIND "${design}" "${fence_open}" block_start)
if(block_start EQUAL -1)
  message(FATAL_ERROR "DESIGN.md has no ```dot block")
endif()
string(LENGTH "${fence_open}" fence_length)
math(EXPR block_start "${block_start} + ${fence_length}")
string(SUBSTRING "${design}" ${block_start} -1 design)
string(FIND "${design}" "```" block_end)
string(SUBSTRING "${design}" 0 ${block_end} committed)

string(STRIP "${observed}" observed)
string(STRIP "${committed}" committed)
if(NOT observed STREQUAL committed)
  message(FATAL_ERROR
    "DESIGN.md's layering graph is stale; replace its ```dot block with the "
    "output of `bbv_lint --dot .`:\n${observed}")
endif()
