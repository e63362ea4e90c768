// Runtime SIMD dispatch for the CPU kernel layer.
//
// The tensor micro-kernels (src/tensor/microkernel.cpp) and the fp16/bf16
// conversion sweeps (src/util/fp16.cpp, src/util/bf16.cpp) each ship a
// portable scalar twin and vector paths. There are three tiers:
//
//   kScalar  the reference kernels;
//   kAvx2    8-lane AVX2 (+F16C) kernels for every hot loop;
//   kAvx512  16-lane AVX-512F panels for the three fp32 GEMMs. Everything
//            else (fp16, bf16, int8, elementwise sweeps) keeps its AVX2
//            path at this tier: simd_avx2() stays true.
//
// Every tier computes the *bitwise identical* result: vector lanes are
// output columns, so each output element keeps its serial accumulation
// order, and no path uses FMA (the build passes -ffp-contract=off, which
// target("avx512f") code needs because that target permits FMA). Picking
// a tier is purely a performance decision (DESIGN.md §6, "SIMD
// dispatch").
//
// Selection happens once, lazily, at first use: CPUID detection clamped
// by the DLSCALE_SIMD env knob (0/false forces the scalar twins; default
// on), recorded through util::env so runs log the path they used. Tests
// and benches may re-select at runtime with set_simd_level(), which is
// clamped to what the hardware can execute.
#pragma once

// x86-64 with GNU-style per-function target attributes: the only
// configuration that compiles the vector kernels. DLSCALE_FORCE_SCALAR
// (CMake option of the same name) removes both vector tiers entirely, so
// even an AVX-512 host runs — and CI exercises — the scalar twins.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(DLSCALE_FORCE_SCALAR)
#define DLSCALE_SIMD_X86 1
#else
#define DLSCALE_SIMD_X86 0
#endif

namespace dlscale::util {

/// Kernel instruction-set tiers, ordered by capability.
/// Each level includes the ones below it.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Highest level this host (and build configuration) can execute.
/// Hardware CPUID, independent of DLSCALE_SIMD: kAvx512 needs AVX512F
/// (libgcc's probe also requires the OS to save ZMM state), kAvx2 needs
/// AVX2. kScalar when the build was configured with
/// -DDLSCALE_FORCE_SCALAR=ON or targets non-x86.
SimdLevel detected_simd_level() noexcept;

/// True when the host can execute F16C half<->float conversions (only
/// ever true when detected_simd_level() is at least kAvx2).
bool detected_f16c() noexcept;

/// The active dispatch level. First call reads DLSCALE_SIMD (recorded
/// via util::env) and clamps to detected_simd_level().
SimdLevel simd_level();

/// The level chosen at startup from env + CPUID — unaffected by later
/// set_simd_level() calls (asserted by the DLSCALE_SIMD=0 ctest rerun).
SimdLevel simd_startup_level();

/// Re-selects the dispatch level (tests and bench sweeps). Clamped to
/// detected_simd_level(); returns the level actually applied. Must not
/// be called while kernels are in flight on other threads.
SimdLevel set_simd_level(SimdLevel level);

/// True when the active level includes AVX2 (kAvx2 or kAvx512): the one
/// predicate the AVX2-only kernels (int8, bf16, elementwise sweeps)
/// dispatch on, so an AVX-512 host never falls back to their scalar twins.
bool simd_avx2();

/// True when the active path may use F16C conversions.
bool simd_f16c();

/// "scalar" / "avx2" / "avx512" — for logs, bench tables, and test names.
const char* simd_level_name(SimdLevel level) noexcept;

}  // namespace dlscale::util
