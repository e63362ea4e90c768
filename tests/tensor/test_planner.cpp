// tensor::MemoryPlanner: greedy interval packing of traced Tensor
// liveness into a single arena (DESIGN.md §10).
#include <gtest/gtest.h>

#include <vector>

#include "dlscale/tensor/planner.hpp"
#include "dlscale/tensor/tensor.hpp"
#include "dlscale/util/arena.hpp"

namespace dt = dlscale::tensor;
namespace du = dlscale::util;

namespace {

// Overlap check against the plan's own bookkeeping: any two allocations
// whose live intervals intersect must occupy disjoint byte ranges.
void expect_no_conflicts(const du::MemoryPlan& plan,
                         const std::vector<du::ArenaTraceEvent>& trace) {
  std::uint64_t horizon = 0;
  for (const du::ArenaTraceEvent& e : trace) {
    horizon = std::max(horizon, std::max(e.alloc_tick, e.release_tick));
  }
  ++horizon;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (std::size_t j = i + 1; j < trace.size(); ++j) {
      const std::uint64_t end_i = trace[i].release_tick ? trace[i].release_tick : horizon;
      const std::uint64_t end_j = trace[j].release_tick ? trace[j].release_tick : horizon;
      const bool lifetimes_overlap =
          trace[i].alloc_tick < end_j && trace[j].alloc_tick < end_i;
      const bool bytes_overlap = plan.offsets[i] < plan.offsets[j] + plan.sizes[j] &&
                                 plan.offsets[j] < plan.offsets[i] + plan.sizes[i];
      if (lifetimes_overlap) {
        EXPECT_FALSE(bytes_overlap) << "allocations " << i << " and " << j
                                    << " are simultaneously live but share bytes";
      }
    }
  }
}

TEST(MemoryPlanner, EmptyTraceGivesEmptyPlan) {
  const du::MemoryPlan plan = dt::MemoryPlanner::pack({});
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.peak_bytes, 0u);
}

TEST(MemoryPlanner, DisjointLifetimesShareBytes) {
  // a: [1, 2), b: [3, 4) — never live together, must overlap in storage.
  const std::vector<du::ArenaTraceEvent> trace{{256, 1, 2}, {256, 3, 4}};
  const du::MemoryPlan plan = dt::MemoryPlanner::pack(trace);
  EXPECT_EQ(plan.naive_bytes, 512u);
  EXPECT_EQ(plan.peak_bytes, 256u);
  EXPECT_EQ(plan.offsets[0], plan.offsets[1]);
}

TEST(MemoryPlanner, OverlappingLifetimesGetDisjointBytes) {
  const std::vector<du::ArenaTraceEvent> trace{{256, 1, 3}, {256, 2, 4}};
  const du::MemoryPlan plan = dt::MemoryPlanner::pack(trace);
  EXPECT_EQ(plan.peak_bytes, 512u);
  expect_no_conflicts(plan, trace);
}

TEST(MemoryPlanner, LiveToEndConflictsWithEverything) {
  // b has release_tick 0 (a layer cache read during backward): it must
  // not share bytes with anything allocated after it.
  const std::vector<du::ArenaTraceEvent> trace{{128, 1, 2}, {128, 3, 0}, {128, 4, 5}};
  const du::MemoryPlan plan = dt::MemoryPlanner::pack(trace);
  expect_no_conflicts(plan, trace);
  // a ([1,2)) and c ([4,5)) are both disjoint from each other, and a dies
  // before b is born, so the packed peak stays below the naive sum.
  EXPECT_LT(plan.peak_bytes, plan.naive_bytes);
}

TEST(MemoryPlanner, PacksAPipelineOfTemporariesTightly) {
  // Chain of temporaries: each lives only across its successor's birth
  // (alloc i at tick 2i, release at 2i+3). Naive sum grows linearly,
  // packed peak stays at ~2 buffers.
  std::vector<du::ArenaTraceEvent> trace;
  for (std::uint64_t i = 0; i < 20; ++i) {
    trace.push_back({1024, 2 * i + 1, 2 * i + 4});
  }
  const du::MemoryPlan plan = dt::MemoryPlanner::pack(trace);
  EXPECT_EQ(plan.naive_bytes, 20u * 1024u);
  EXPECT_LE(plan.peak_bytes, 3u * 1024u);
  expect_no_conflicts(plan, trace);
}

TEST(MemoryPlanner, OffsetsStayAligned) {
  const std::vector<du::ArenaTraceEvent> trace{{64, 1, 0}, {192, 2, 0}, {64, 3, 0}};
  const du::MemoryPlan plan = dt::MemoryPlanner::pack(trace);
  for (std::size_t off : plan.offsets) {
    EXPECT_EQ(off % du::Arena::kAlignment, 0u);
  }
  EXPECT_EQ(plan.peak_bytes, 320u);  // all live: packed == naive
}

TEST(MemoryPlanner, PlanDrivesArenaReplay) {
  // End-to-end: trace real arena traffic, pack it, install the plan, and
  // replay — disjoint-lifetime buffers come back at the same address.
  du::Arena arena;
  arena.begin_trace();
  void* a = arena.allocate(512);
  arena.note_release(a, arena.trace_generation());
  arena.allocate(512);  // never released
  const du::MemoryPlan plan = dt::MemoryPlanner::pack(arena.take_trace());
  EXPECT_EQ(plan.peak_bytes, 512u);  // a is dead before b exists
  arena.set_plan(plan);
  auto* ra = static_cast<std::byte*>(arena.allocate(512));
  auto* rb = static_cast<std::byte*>(arena.allocate(512));
  EXPECT_EQ(ra, rb);
}

}  // namespace
