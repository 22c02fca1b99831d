# Strict numeric flags of the bench binaries and workload_fit: a malformed,
# negative or out-of-range value exits 2 with a message naming the flag,
# before any work starts.
#
#   cmake -DBENCH=<a bench_* binary> -DREALIO=<bench_realio>
#         -DFIT=<workload_fit> -P tool_args_e2e.cmake

foreach(run "${BENCH}|--scale=0.02x" "${BENCH}|--scale=abc"
            "${BENCH}|--scale=nan" "${BENCH}|--seed=-1"
            "${BENCH}|--threads=1.5" "${REALIO}|--requests=64k"
            "${FIT}|--scale=0.02x" "${FIT}|--seed=-1" "${FIT}|--disks=4.0")
  string(REPLACE "|" ";" run "${run}")
  list(GET run 0 binary)
  list(GET run 1 arg)
  execute_process(COMMAND ${binary} ${arg}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${binary} ${arg}: expected exit 2, got ${rc}\n"
                        "${out}${err}")
  endif()
  string(REGEX MATCH "^--[a-z]+" flag "${arg}")
  if(NOT err MATCHES "^${flag} needs ")
    message(FATAL_ERROR "${binary} ${arg}: no message naming ${flag}:\n"
                        "${err}")
  endif()
endforeach()
