// Shared fixture support for running a test suite under every SIMD
// dispatch level the host can execute. The levels are bitwise identical
// by contract (DESIGN.md §6, "SIMD dispatch"), so parameterizing the
// determinism suites over them is what *enforces* that contract.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dlscale/util/simd.hpp"

namespace dlscale::testing {

/// Every level the host hardware (and build) can run: kScalar up to and
/// including detected_simd_level(). set_simd_level() clamps to the same
/// detection, so each returned level is actually exercisable.
inline std::vector<util::SimdLevel> simd_levels_under_test() {
  std::vector<util::SimdLevel> levels{util::SimdLevel::kScalar};
  for (util::SimdLevel level : {util::SimdLevel::kAvx2, util::SimdLevel::kAvx512}) {
    if (level <= util::detected_simd_level()) levels.push_back(level);
  }
  return levels;
}

/// Suffix generator for INSTANTIATE_TEST_SUITE_P: "scalar" / "avx2" /
/// "avx512".
inline std::string simd_param_name(
    const ::testing::TestParamInfo<util::SimdLevel>& info) {
  return util::simd_level_name(info.param);
}

/// RAII re-selection of the dispatch level; restores the previous level
/// so test ordering cannot leak a forced level into unrelated suites.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(util::SimdLevel level)
      : previous_(util::simd_level()) {
    util::set_simd_level(level);
  }
  ~ScopedSimdLevel() { util::set_simd_level(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  util::SimdLevel previous_;
};

/// Base fixture: the whole test body runs under the parameterized level.
class SimdLevelTest : public ::testing::TestWithParam<util::SimdLevel> {
 protected:
  void SetUp() override {
    previous_ = util::simd_level();
    util::set_simd_level(GetParam());
  }
  void TearDown() override { util::set_simd_level(previous_); }

 private:
  util::SimdLevel previous_{util::SimdLevel::kScalar};
};

}  // namespace dlscale::testing
