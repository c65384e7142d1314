#include "util/cpu.h"

namespace wsd {

#if defined(__x86_64__) || defined(__i386__)

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#else

bool CpuHasAvx2() { return false; }

#endif

}  // namespace wsd
