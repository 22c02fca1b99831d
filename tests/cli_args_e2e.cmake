# Strict numeric flags of layout_advisor: a malformed or negative --seeds /
# --threads, or a malformed --migrate-throttle / --autopilot-duration /
# --drift-threshold, exits 2 with a message naming the flag (nothing is
# advised), and well-formed values advise normally.
#
#   cmake -DADVISOR=<layout_advisor> -DPROBLEM=<problem file>
#         -P cli_args_e2e.cmake

foreach(arg --seeds=abc --seeds=-4 --seeds= --seeds=3x --seeds=+2
            --threads=xyz --threads=-1 --threads=4.5
            --threads=99999999999)
  execute_process(COMMAND ${ADVISOR} ${PROBLEM} ${arg}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${arg}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  string(REGEX MATCH "^--[a-z]+" flag "${arg}")
  if(NOT err MATCHES "${flag} needs a decimal integer >= 0")
    message(FATAL_ERROR "${arg}: no message naming ${flag}:\n${err}")
  endif()
  if(out MATCHES "Recommended layout")
    message(FATAL_ERROR "${arg}: advised despite the bad flag:\n${out}")
  endif()
endforeach()

# The decimal flags take the spec grammar's numbers: NaN, trailing text,
# hex and out-of-range values exit 2 with a message naming the flag.
foreach(arg --migrate-throttle=nan --migrate-throttle=5MB
            --migrate-throttle=0 --autopilot-duration=30s
            --autopilot-duration=inf --autopilot-duration=0x1e
            --drift-threshold=nan --drift-threshold=0.5x
            --drift-threshold=+0.5)
  execute_process(COMMAND ${ADVISOR} ${PROBLEM} ${arg}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${arg}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  string(REGEX MATCH "^--[a-z-]+" flag "${arg}")
  if(NOT err MATCHES "^${flag}")
    message(FATAL_ERROR "${arg}: no message naming ${flag}:\n${err}")
  endif()
  if(out MATCHES "Recommended layout")
    message(FATAL_ERROR "${arg}: advised despite the bad flag:\n${out}")
  endif()
endforeach()

foreach(args "--seeds=0;--threads=1" "--seeds=2;--threads=0"
             "--seeds=1;--threads=2")
  execute_process(COMMAND ${ADVISOR} ${PROBLEM} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${args}: expected exit 0, got ${rc}\n${out}${err}")
  endif()
  string(REGEX MATCH "--seeds=([0-9]+)" unused "${args}")
  math(EXPR seeds "${CMAKE_MATCH_1} + 1")
  set(noun "seeds")
  if(seeds EQUAL 1)
    set(noun "seed")
  endif()
  if(NOT out MATCHES "Solver: ${seeds} ${noun}, ")
    message(FATAL_ERROR "${args}: expected ${seeds} solver ${noun}:\n${out}")
  endif()
endforeach()
