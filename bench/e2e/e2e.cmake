# Defines the bench_e2e executable and its e2e_smoke test on top of the
# product libraries (hunter_core, hunter_workload). bench/e2e/CMakeLists.txt,
# the benchmark's standalone build, includes it; the product build can too,
# with include(${PROJECT_SOURCE_DIR}/bench/e2e/e2e.cmake) after the libraries.

get_filename_component(HUNTER_E2E_ROOT ${CMAKE_CURRENT_LIST_DIR}/../..
                       ABSOLUTE)
set(HUNTER_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

add_executable(bench_e2e
  ${HUNTER_E2E_DIR}/bench_e2e.cc
  ${HUNTER_E2E_DIR}/compare.cc
  ${HUNTER_E2E_DIR}/host_clock.cc
  ${HUNTER_E2E_DIR}/json.cc
  ${HUNTER_E2E_DIR}/report.cc
  ${HUNTER_E2E_DIR}/session.cc)
target_compile_features(bench_e2e PRIVATE cxx_std_20)
target_include_directories(bench_e2e PRIVATE
  ${HUNTER_E2E_ROOT} ${HUNTER_E2E_ROOT}/src)
target_link_libraries(bench_e2e PRIVATE hunter_core hunter_workload)
target_compile_definitions(bench_e2e PRIVATE
  HUNTER_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  HUNTER_E2E_BENCHMARK_JSON="${HUNTER_E2E_ROOT}/BENCHMARK.json")
set_target_properties(bench_e2e PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Every workload at one session and 1/20 of its budget, traced and untraced:
# every BENCHMARK.json metric is reported for every workload, and tracing
# leaves the journal digests unchanged.
add_test(NAME e2e_smoke COMMAND bench_e2e)
set_tests_properties(e2e_smoke PROPERTIES LABELS "perf;e2e" TIMEOUT 60)
