#include "dlscale/util/simd.hpp"

#include <atomic>

#include "dlscale/util/env.hpp"

namespace dlscale::util {

namespace {

// -1 = not yet initialised. Relaxed ordering is enough: the value is
// write-once from env (or an explicit test override) and every reader
// only branches on it.
std::atomic<int> g_active{-1};
std::atomic<int> g_startup{-1};

SimdLevel clamp_to_detected(SimdLevel level) noexcept {
  const SimdLevel cap = detected_simd_level();
  return level <= cap ? level : cap;
}

SimdLevel init_from_env() {
  // DLSCALE_SIMD=0 pins the scalar twins (bitwise identical, so this is
  // a pure perf/debug knob); default lets CPUID pick.
  const bool enabled = env_bool("DLSCALE_SIMD", true);
  return enabled ? detected_simd_level() : SimdLevel::kScalar;
}

}  // namespace

SimdLevel detected_simd_level() noexcept {
#if DLSCALE_SIMD_X86
  static const SimdLevel level = __builtin_cpu_supports("avx512f") ? SimdLevel::kAvx512
                                 : __builtin_cpu_supports("avx2")  ? SimdLevel::kAvx2
                                                                   : SimdLevel::kScalar;
  return level;
#else
  return SimdLevel::kScalar;
#endif
}

bool detected_f16c() noexcept {
#if DLSCALE_SIMD_X86
  static const bool f16c =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
  return f16c;
#else
  return false;
#endif
}

SimdLevel simd_level() {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    const int level = static_cast<int>(init_from_env());
    int expected = -1;
    g_startup.compare_exchange_strong(expected, level, std::memory_order_relaxed);
    expected = -1;
    g_active.compare_exchange_strong(expected, level, std::memory_order_relaxed);
    v = g_active.load(std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(v);
}

SimdLevel simd_startup_level() {
  simd_level();  // force env read if it has not happened yet
  return static_cast<SimdLevel>(g_startup.load(std::memory_order_relaxed));
}

SimdLevel set_simd_level(SimdLevel level) {
  simd_level();  // pin the startup record before overriding
  const SimdLevel applied = clamp_to_detected(level);
  g_active.store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

bool simd_avx2() { return simd_level() >= SimdLevel::kAvx2; }

bool simd_f16c() { return simd_avx2() && detected_f16c(); }

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace dlscale::util
