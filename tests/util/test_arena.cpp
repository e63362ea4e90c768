// util::Arena: bump allocation, frames, guard canaries, poison-on-reset,
// liveness tracing, and planned replay (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "dlscale/util/arena.hpp"

namespace du = dlscale::util;

namespace {

TEST(Arena, ReturnsAlignedPointers) {
  du::Arena arena;
  for (std::size_t bytes : {1u, 7u, 64u, 65u, 1000u}) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % du::Arena::kAlignment, 0u)
        << "request of " << bytes << " bytes";
  }
}

TEST(Arena, ResetRecyclesTheSameBytes) {
  du::Arena arena;
  void* first = arena.allocate(256);
  arena.reset();
  // After a reset the arena is a single block and the cursor rewinds, so
  // the same request gets the same storage — steady state is heap-free.
  EXPECT_EQ(arena.allocate(256), first);
  EXPECT_EQ(arena.used(), 256u);
}

TEST(Arena, WatermarkTracksHighWaterAcrossResets) {
  du::Arena arena;
  arena.allocate(1024);
  arena.allocate(1024);
  EXPECT_EQ(arena.watermark(), 2048u);
  arena.reset();
  arena.allocate(64);
  EXPECT_EQ(arena.watermark(), 2048u);  // high-water mark persists
  EXPECT_EQ(arena.used(), 64u);
}

TEST(Arena, ResetCoalescesGrowthChainIntoOneBlock) {
  du::Arena arena;
  // Force the chain to grow past its first block (first block is 64 KiB).
  for (int i = 0; i < 40; ++i) arena.allocate(1 << 14);
  const std::size_t watermark = arena.watermark();
  arena.reset();
  EXPECT_GE(arena.capacity(), watermark);
  // The whole former chain now fits a single block: allocations up to the
  // watermark must be contiguous (monotonically increasing addresses).
  auto* a = static_cast<std::byte*>(arena.allocate(1 << 14));
  auto* b = static_cast<std::byte*>(arena.allocate(1 << 14));
  EXPECT_EQ(b - a, 1 << 14);
}

TEST(Arena, FramesRewindLifo) {
  du::Arena arena;
  arena.allocate(128);
  const std::size_t outer = arena.used();
  void* scratch1 = nullptr;
  {
    du::Arena::Frame frame(arena);
    scratch1 = arena.allocate(512);
    {
      du::Arena::Frame inner(arena);
      arena.allocate(4096);
    }
    EXPECT_EQ(arena.used(), outer + 512);
  }
  EXPECT_EQ(arena.used(), outer);
  // Frame space is reused by the next frame at the same depth.
  du::Arena::Frame frame(arena);
  EXPECT_EQ(arena.allocate(512), scratch1);
}

TEST(Arena, GuardCanaryTripsOnOverrun) {
  du::Arena arena{du::Arena::Options{.guard = true}};
  // The canary band sits after the 64-byte-aligned payload, so use an
  // aligned request — the first out-of-plan byte IS the canary.
  auto* p = static_cast<unsigned char*>(arena.allocate(128));
  ASSERT_NO_THROW(arena.check_guards());
  p[128] = 0x42;  // one byte past the payload, into the canary band
  EXPECT_THROW(arena.check_guards(), std::logic_error);
  EXPECT_THROW(arena.reset(), std::logic_error);  // reset also verifies
}

TEST(Arena, InBoundsWritesDoNotTripTheCanary) {
  du::Arena arena{du::Arena::Options{.guard = true}};
  auto* p = static_cast<unsigned char*>(arena.allocate(128));
  std::memset(p, 0xFF, 128);
  EXPECT_NO_THROW(arena.check_guards());
  EXPECT_NO_THROW(arena.reset());
}

TEST(Arena, ResetPoisonsReleasedStorage) {
  du::Arena arena{du::Arena::Options{.guard = true}};
  auto* p = static_cast<unsigned char*>(arena.allocate(64));
  std::memset(p, 0, 64);
  arena.reset();
  // Same bytes come back from the next cycle — but every stale read in
  // between would have seen the poison pattern.
  auto* q = static_cast<unsigned char*>(arena.allocate(64));
  ASSERT_EQ(q, p);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(q[i], du::Arena::kPoisonByte) << "offset " << i;
  }
}

TEST(Arena, ReleaseFromAnEarlierTraceGenerationIsIgnored) {
  // A borrow made before begin_trace() can sit at the same address as an
  // allocation of the new trace; its release must not end that one.
  du::Arena arena;
  arena.begin_trace();
  void* stale = arena.allocate(256);
  const std::uint64_t stale_generation = arena.trace_generation();
  arena.begin_trace();
  EXPECT_NE(arena.trace_generation(), stale_generation);
  void* live = arena.allocate(256);
  ASSERT_EQ(live, stale);  // reset() hands the same bytes out again
  arena.note_release(stale, stale_generation);
  const std::vector<du::ArenaTraceEvent> trace = arena.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].release_tick, 0u) << "stale release ended a live allocation";
}

TEST(Arena, TraceRecordsAllocationAndReleaseTicks) {
  du::Arena arena;
  arena.begin_trace();
  ASSERT_TRUE(arena.tracing());
  void* a = arena.allocate(100);
  void* b = arena.allocate(200);
  arena.note_release(a, arena.trace_generation());
  void* c = arena.allocate(300);
  arena.note_release(c, arena.trace_generation());
  const std::vector<du::ArenaTraceEvent> trace = arena.take_trace();
  EXPECT_FALSE(arena.tracing());
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].bytes, 128u);  // aligned up to 64
  EXPECT_EQ(trace[1].bytes, 256u);
  EXPECT_EQ(trace[2].bytes, 320u);
  // Ticks: a=1, b=2, release(a)=3, c=4, release(c)=5; b never released.
  EXPECT_EQ(trace[0].alloc_tick, 1u);
  EXPECT_EQ(trace[0].release_tick, 3u);
  EXPECT_EQ(trace[1].release_tick, 0u);  // live to end
  EXPECT_EQ(trace[2].alloc_tick, 4u);
  EXPECT_EQ(trace[2].release_tick, 5u);
  (void)b;
}

TEST(Arena, PlannedReplayReturnsPreassignedOffsets) {
  du::MemoryPlan plan;
  plan.offsets = {0, 128, 0};  // third allocation reuses the first's bytes
  plan.sizes = {128, 64, 128};
  plan.peak_bytes = 192;
  plan.naive_bytes = 320;
  du::Arena arena;
  arena.set_plan(plan);
  ASSERT_TRUE(arena.planned());
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto* a = static_cast<std::byte*>(arena.allocate(100));  // aligns to 128
    auto* b = static_cast<std::byte*>(arena.allocate(64));
    auto* c = static_cast<std::byte*>(arena.allocate(70));   // aligns to 128
    EXPECT_EQ(b - a, 128);
    EXPECT_EQ(c, a);  // shared bytes, as planned
    arena.reset();
  }
}

TEST(Arena, PlannedReplayRejectsDivergence) {
  du::MemoryPlan plan;
  plan.offsets = {0};
  plan.sizes = {128};
  plan.peak_bytes = 128;
  du::Arena arena;
  arena.set_plan(plan);
  EXPECT_THROW(arena.allocate(999), std::logic_error);  // wrong size
  arena.reset();
  arena.allocate(128);
  EXPECT_THROW(arena.allocate(128), std::logic_error);  // beyond the plan
}

TEST(Arena, PlannedModeExcludesTracing) {
  du::Arena arena;
  du::MemoryPlan plan;
  plan.offsets = {0};
  plan.sizes = {64};
  plan.peak_bytes = 64;
  arena.set_plan(plan);
  EXPECT_THROW(arena.begin_trace(), std::logic_error);
  arena.clear_plan();
  arena.begin_trace();
  EXPECT_THROW(arena.set_plan(plan), std::logic_error);
  (void)arena.take_trace();
}

TEST(ArenaScope, InstallsAndRestoresTheThreadTarget) {
  EXPECT_EQ(du::current_arena(), nullptr);
  du::Arena outer_arena;
  {
    du::ArenaScope outer(outer_arena);
    EXPECT_EQ(du::current_arena(), &outer_arena);
    du::Arena inner_arena;
    {
      du::ArenaScope inner(inner_arena);
      EXPECT_EQ(du::current_arena(), &inner_arena);
    }
    EXPECT_EQ(du::current_arena(), &outer_arena);
  }
  EXPECT_EQ(du::current_arena(), nullptr);
}

}  // namespace
