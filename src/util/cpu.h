#ifndef WSD_UTIL_CPU_H_
#define WSD_UTIL_CPU_H_

namespace wsd {

/// Runtime CPU feature detection for the SIMD scan-kernel dispatch
/// (util/simd.h). The probe reflects what the *machine we are running
/// on* supports, independent of the flags this binary was compiled
/// with — the scan kernels are built with per-function target
/// attributes precisely so one binary runs everywhere. On non-x86
/// targets the probe returns false and dispatch uses the scalar tier.
bool CpuHasAvx2();

}  // namespace wsd

#endif  // WSD_UTIL_CPU_H_
