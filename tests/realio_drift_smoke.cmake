# Sim-vs-real drift smoke: bench_realio exits 1 when replaying the same
# requests on a fresh simulator does not reproduce every service time. It
# must also delete its backing file: no .dat may be left in the directory.
#
#   cmake -DREALIO=<bench_realio> -DBACKEND_DIR=<dir> -P realio_drift_smoke.cmake

execute_process(COMMAND ${REALIO} --requests=8 --backend-dir=${BACKEND_DIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_realio exited ${rc}")
endif()
file(GLOB left "${BACKEND_DIR}/*.dat")
if(left)
  message(FATAL_ERROR "bench_realio left backing files behind: ${left}")
endif()
