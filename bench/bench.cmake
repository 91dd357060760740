# Benchmark harnesses: one binary per paper table/figure, plus
# google-benchmark micro-benches of the simulator substrate. Included from
# the TOP-LEVEL CMakeLists (not add_subdirectory) so ${CMAKE_BINARY_DIR}/bench
# holds only runnable binaries: `for b in build/bench/*; do $b; done`.

set(PCS_BENCHES
  fig2_ber
  fig3_power_capacity
  fig3_leakage
  fig3_yield
  fig4_simulation
  table1_params
  table2_configs
  table_area
  ablation_nlevels
  ablation_policy
  ablation_vdd1floor
  ext_multicore
  ext_nlevels_dpcs
  ext_system_energy
  ext_ecc_supplement
  ext_leakage_schemes)

foreach(b IN LISTS PCS_BENCHES)
  add_executable(bench_${b} bench/${b}.cpp)
  target_link_libraries(bench_${b} PRIVATE pcs)
  target_compile_options(bench_${b} PRIVATE ${PCS_STRICT_WARNINGS})
  set_target_properties(bench_${b} PROPERTIES
    OUTPUT_NAME ${b}
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

add_executable(bench_micro_simulator bench/micro_simulator.cpp)
target_link_libraries(bench_micro_simulator PRIVATE pcs benchmark::benchmark)
target_compile_options(bench_micro_simulator PRIVATE ${PCS_STRICT_WARNINGS})
set_target_properties(bench_micro_simulator PROPERTIES
  OUTPUT_NAME micro_simulator
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# The figure benches have one executor each; the retired --sweep-lanes
# switch (and any other unknown argument) is a usage error.
pcs_add_usage_test(bench_fig4_simulation_rejects_sweep_lanes
                   bench_fig4_simulation "" --sweep-lanes)
pcs_add_usage_test(bench_fig3_yield_rejects_sweep_lanes bench_fig3_yield ""
                   --sweep-lanes)

# Numeric env knobs go through parse_u64_token: a malformed value names the
# variable and is a usage error, never a silent 0.
pcs_add_usage_test(bench_fig4_simulation_rejects_bad_refs
                   bench_fig4_simulation "PCS_REFS: malformed integer '12abc'")
set_tests_properties(bench_fig4_simulation_rejects_bad_refs PROPERTIES
                     ENVIRONMENT "PCS_REFS=12abc")
pcs_add_usage_test(bench_fig3_yield_rejects_bad_trials bench_fig3_yield
                   "PCS_TRIALS: malformed integer 'abc'")
set_tests_properties(bench_fig3_yield_rejects_bad_trials PROPERTIES
                     ENVIRONMENT "PCS_TRIALS=abc")

# The four grid benches read PCS_REFS, then PCS_THREADS, before they print
# anything; either knob malformed is a usage error with empty stdout.
foreach(b ablation_policy ablation_vdd1floor ext_nlevels_dpcs
          ext_system_energy)
  pcs_add_usage_test(bench_${b}_rejects_bad_refs bench_${b}
                     "PCS_REFS: malformed integer '12abc'")
  set_tests_properties(bench_${b}_rejects_bad_refs PROPERTIES
                       ENVIRONMENT "PCS_REFS=12abc")
  pcs_add_usage_test(bench_${b}_rejects_bad_threads bench_${b}
                     "PCS_THREADS: malformed integer '4x'")
  set_tests_properties(bench_${b}_rejects_bad_threads PROPERTIES
                       ENVIRONMENT "PCS_THREADS=4x")
endforeach()
