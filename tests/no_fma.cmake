# Fails if the disassembly of LIB holds a fused multiply-add or -subtract.
#
#   cmake -DOBJDUMP=objdump -DLIB=libmtat_rl.a -P tests/no_fma.cmake
#
# The Mlp kernels (src/rl/mlp.cc) keep every product rounded before its sum
# so their results are bit-identical at every vector level; AVX-512F hosts
# have FMA, and a compiler that contracts a*b + c would break that silently.
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIB}
                OUTPUT_VARIABLE asm RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIB} failed (${rc}): ${err}")
endif()
# The widest kernels must be there, or this checked nothing.
if(NOT asm MATCHES "zmm")
  message(FATAL_ERROR "no AVX-512 code in ${LIB}: the kernel instantiations are missing")
endif()
string(REGEX MATCHALL "vfn?m(add|sub)[a-z0-9]*" fused "${asm}")
if(fused)
  list(LENGTH fused n)
  list(REMOVE_DUPLICATES fused)
  message(FATAL_ERROR "${n} fused multiply-add instructions in ${LIB}: ${fused}")
endif()
