# Bench targets are defined via include() rather than add_subdirectory() so
# that build/bench/ contains only the benchmark executables (the harness is
# driven with `for b in build/bench/*; do $b; done`).

add_library(bench_common OBJECT ${PROJECT_SOURCE_DIR}/bench/bench_common.cc)
target_link_libraries(bench_common PUBLIC hunter_core hunter_workload)
target_include_directories(bench_common PUBLIC ${PROJECT_SOURCE_DIR})

function(hunter_add_bench name)
  add_executable(${name} ${PROJECT_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE bench_common hunter_core hunter_workload)
  target_include_directories(${name} PRIVATE ${PROJECT_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

hunter_add_bench(bench_fig01_motivation)
hunter_add_bench(bench_tab01_step_breakdown)
hunter_add_bench(bench_fig04_ga_motivation)
hunter_add_bench(bench_fig05_sample_quality)
hunter_add_bench(bench_fig06_ga_sample_count)
hunter_add_bench(bench_fig07_pca)
hunter_add_bench(bench_fig08_knob_sifting)
hunter_add_bench(bench_fig09_sota)
hunter_add_bench(bench_fig10_drift)
hunter_add_bench(bench_tab03_ablation_mysql_tpcc)
hunter_add_bench(bench_tab04_ablation_mysql_sbrw)
hunter_add_bench(bench_tab05_ablation_pg_tpcc)
hunter_add_bench(bench_tab06_warmup)
hunter_add_bench(bench_fig11_cost)
hunter_add_bench(bench_fig12_parallelization)
hunter_add_bench(bench_fig13_model_reuse)
hunter_add_bench(bench_fig14_instance_types)
hunter_add_bench(bench_fault_tolerance)

# The micro-benchmarks use google-benchmark (unlike the experiment
# harnesses, which print paper tables directly). perf_components_smoke runs
# each benchmark briefly on every `ctest -L perf` (and plain ctest)
# invocation, so every build still executes them once.
add_executable(bench_micro_components ${PROJECT_SOURCE_DIR}/bench/bench_micro_components.cc)
target_link_libraries(bench_micro_components PRIVATE
  benchmark::benchmark hunter_core hunter_workload)
set_target_properties(bench_micro_components PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
add_test(NAME perf_components_smoke
  COMMAND bench_micro_components --benchmark_min_time=0.001)
set_tests_properties(perf_components_smoke PROPERTIES LABELS "perf")

# The end-to-end benchmark (bench/e2e/README.md) and its e2e_smoke test
# (labels perf and e2e). Its standalone build, bench/e2e/CMakeLists.txt,
# adds this project as a subdirectory and includes e2e.cmake itself, so the
# product build includes it only as the top-level project.
if(CMAKE_SOURCE_DIR STREQUAL PROJECT_SOURCE_DIR)
  include(${PROJECT_SOURCE_DIR}/bench/e2e/e2e.cmake)
endif()
