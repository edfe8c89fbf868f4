# Benchmark executables, one per paper figure plus calibration, ablations
# and the perf-regression harness. Included from the top-level CMakeLists
# so that ${CMAKE_BINARY_DIR}/bench contains nothing but the binaries (the
# harness executes every file in that directory).
set(ADICT_BENCH_SOURCES
  bench/fig01_dictionary_size_distribution.cc
  bench/fig02_memory_distribution.cc
  bench/fig03_tradeoff_src.cc
  bench/fig04_best_compression.cc
  bench/fig05_fastest_extract.cc
  bench/fig06_prediction_error.cc
  bench/fig09_strategy_illustration.cc
  bench/fig10_tpch_tradeoff.cc
  bench/fig11_format_distribution.cc
  bench/ablation_feedback_loop.cc
  bench/ablation_hash_locate.cc
  bench/ablation_sequential_scan.cc
  bench/ablation_strategies.cc
  bench/calibrate_cost_model.cc
  bench/survey_locate_construct.cc
  bench/memory_pressure_curve.cc
  bench/perf_regression.cc
)

foreach(bench_source ${ADICT_BENCH_SOURCES})
  get_filename_component(bench_name ${bench_source} NAME_WE)
  add_executable(${bench_name} ${bench_source})
  target_include_directories(${bench_name} PRIVATE ${CMAKE_SOURCE_DIR})
  target_link_libraries(${bench_name}
    adict_server adict_tpch adict_engine adict_store adict_core adict_dict
    adict_datasets adict_text adict_obs adict_util)
  set_target_properties(${bench_name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()
