# radnet_cli and radnet_batch ctests (tier1), included from the root
# CMakeLists.txt.

# The CLI's default --delta 8 gives delta ln n / n > 1 at n = 16; it must
# saturate at p = 1 (as batch specs do) rather than fail validation.
add_test(NAME cli_small_n_delta_default
         COMMAND radnet_cli --protocol alg1 --topology ignp --n 16)
set_tests_properties(cli_small_n_delta_default PROPERTIES LABELS "tier1")
# n < 2 is rejected up front, naming --n, whatever the topology.
add_test(NAME cli_rejects_n_below_two
         COMMAND radnet_cli --protocol alg1 --topology path --n 1)
set_tests_properties(cli_rejects_n_below_two PROPERTIES LABELS "tier1"
                     PASS_REGULAR_EXPRESSION "--n must be >= 2")

# Byte-exact stdout of small runs covering every protocol and topology
# (tests/golden/cli/*.txt; tests/golden/cli_golden.cmake re-blesses).
add_test(NAME cli_golden
         COMMAND ${CMAKE_COMMAND} -DCLI=$<TARGET_FILE:radnet_cli>
                 -DGOLDEN_DIR=${CMAKE_CURRENT_SOURCE_DIR}/tests/golden/cli
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/tests/golden/cli_golden.cmake)
set_tests_properties(cli_golden PROPERTIES LABELS "tier1")

# Out-of-range flag values are rejected naming the flag, never wrapped to
# 32 bits, ignored, divided by, or left to fail inside a protocol
# constructor: one case per flag.
foreach(case
    "n_overflow|--n is out of range|--topology;ignp;--n;4294967298"
    "max_rounds_overflow|--max-rounds is out of range|--topology;ignp;--n;64;--max-rounds;4294967297"
    "trials_overflow|--trials is out of range|--topology;ignp;--n;64;--trials;4294967297"
    "source_out_of_range|--source must be < n|--topology;ignp;--n;64;--source;64"
    "q_out_of_range|--q must be in|--protocol;fixed;--topology;ignp;--n;64;--q;7"
    "p_amp_outside_idgnp|--p-amp applies only to the idgnp family|--topology;churn;--n;64;--p-amp;0.5"
    "cluster_size_zero|--cluster-size is out of range|--topology;cluster;--n;64;--cluster-size;0")
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 name)
  list(GET fields 1 expected)
  list(SUBLIST fields 2 -1 argv)
  add_test(NAME cli_rejects_${name} COMMAND radnet_cli ${argv})
  set_tests_properties(cli_rejects_${name} PROPERTIES LABELS "tier1"
                       PASS_REGULAR_EXPRESSION "${expected}")
endforeach()

# radnet_batch flags are checked before the spec file is read (the file
# named here does not exist): an --isolate-mem-mb value whose byte count
# would wrap, and each --isolate-* tuning flag given without --isolate,
# are rejected naming the flag instead of silently changing or dropping
# the cap.
foreach(case
    "isolate_mem_mb_overflow|--isolate-mem-mb is out of range|--isolate;--isolate-mem-mb;17592186044416"
    "isolate_mem_mb_without_isolate|--isolate-mem-mb requires --isolate|--isolate-mem-mb;2048"
    "isolate_attempts_without_isolate|--isolate-attempts requires --isolate|--isolate-attempts;1"
    "isolate_timeout_without_isolate|--isolate-timeout-ms requires --isolate|--isolate-timeout-ms;1000")
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 name)
  list(GET fields 1 expected)
  list(SUBLIST fields 2 -1 argv)
  add_test(NAME batch_rejects_${name}
           COMMAND radnet_batch --specs no-such-file.specs --no-cache ${argv})
  set_tests_properties(batch_rejects_${name} PROPERTIES LABELS "tier1"
                       PASS_REGULAR_EXPRESSION "${expected}")
endforeach()
