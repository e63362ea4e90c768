// 64-byte-aligned bump arena with liveness tracing and planned replay.
//
// Three modes, one allocator (DESIGN.md §10):
//
//  * **Bump** (default): pointer-bump allocation out of chained blocks;
//    `reset()` rewinds to empty and coalesces the chain into one block
//    sized at the high-water mark, so a steady-state user that resets
//    between iterations stops touching the heap after warmup.
//  * **Trace**: bump allocation that additionally records a
//    {size, first-use, last-use} event per allocation. `Tensor` reports
//    releases via `note_release`, giving the planner exact liveness
//    intervals for one forward+backward (or serve) step.
//  * **Planned**: replays a `MemoryPlan` produced by
//    `tensor::MemoryPlanner` from a trace — allocation k of the step is
//    served at `plan.offsets[k]` in a single block of `plan.peak_bytes`.
//    Liveness-disjoint buffers share storage, which is how the packed
//    peak lands well under the naive sum of all allocations.
//
// Frames give kernels LIFO scratch: `Arena::Frame f(a); a.alloc<float>(n);`
// rewinds on scope exit. The per-thread `thread_scratch_arena()` replaces
// the old ad-hoc `thread_local std::vector` scratch caches in
// tensor/ops.cpp and tensor/quantize.cpp.
//
// Guard canaries (runtime opt-in, test-only): each bump allocation gets a
// 64-byte 0xAB band after the payload, checked by `check_guards()` /
// `reset()`; freed regions are poisoned with 0xCD so stale reads are
// loud. These are plain in-arena bytes — ASan cannot see an overrun into
// arena slack, the canary check is what catches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dlscale::util {

/// Offsets for one iteration's allocation sequence, in allocation order.
/// Produced by tensor::MemoryPlanner, consumed by Arena::set_plan.
struct MemoryPlan {
  std::vector<std::size_t> offsets;  ///< byte offset per allocation index
  std::vector<std::size_t> sizes;    ///< aligned payload bytes, same order
  std::size_t peak_bytes = 0;        ///< packed arena capacity
  std::size_t naive_bytes = 0;       ///< sum of all aligned sizes
  [[nodiscard]] bool empty() const noexcept { return sizes.empty(); }
};

/// One allocation observed while tracing. Ticks are a shared event
/// counter over allocations and releases; release_tick == 0 means the
/// buffer was never released and is live to the end of the trace.
struct ArenaTraceEvent {
  std::size_t bytes = 0;  ///< aligned payload size
  std::uint64_t alloc_tick = 0;
  std::uint64_t release_tick = 0;
};

/// Bump allocator with reset/watermark, optional guard canaries,
/// liveness tracing, and planned replay.
class Arena {
 public:
  static constexpr std::size_t kAlignment = 64;
  static constexpr unsigned char kGuardByte = 0xAB;
  static constexpr unsigned char kPoisonByte = 0xCD;

  struct Options {
    bool guard = false;  ///< canary bands + poison-on-reset (tests)
  };

  Arena();
  explicit Arena(Options options);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of 64-byte-aligned storage (contents unspecified).
  /// Bump/trace mode: bumps, growing the block chain on miss (heap —
  /// warmup only). Planned mode: returns the preassigned offset for this
  /// allocation index; throws std::logic_error if the request count or
  /// size diverges from the plan.
  void* allocate(std::size_t bytes);

  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Rewinds to empty. Bump/trace: checks guards, poisons the used
  /// region (guard option), and coalesces a multi-block chain into one
  /// block at the high-water mark so the next cycle is heap-free.
  /// Planned: restarts the replay index (no heap work at all).
  void reset();

  /// High-water mark of reserved bytes (aligned payloads + guard bands).
  [[nodiscard]] std::size_t watermark() const noexcept { return watermark_; }
  /// Total block capacity currently held.
  [[nodiscard]] std::size_t capacity() const noexcept;
  /// Bytes reserved since the last reset (or frame base).
  [[nodiscard]] std::size_t used() const noexcept { return used_; }

  /// Verifies every live guard band; throws std::logic_error on a tripped
  /// canary. No-op unless constructed with Options::guard.
  void check_guards() const;

  /// LIFO scratch region: rewinds the arena to its construction point on
  /// scope exit. Kernels nest these freely (per-call, per-worker).
  class Frame {
   public:
    explicit Frame(Arena& arena) noexcept;
    ~Frame();
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena& arena_;
    std::size_t block_;
    std::size_t offset_;
    std::size_t used_;
    std::size_t guards_;
  };

  /// Tracing ------------------------------------------------------------
  /// Starts recording allocation/release events (resets first) and
  /// starts a new trace generation. Not compatible with frames: tracing
  /// captures whole-step Tensor liveness, frame scratch lives in separate
  /// per-thread arenas.
  void begin_trace();
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  /// Bumped by every begin_trace(). A borrower stamps its allocation with
  /// the generation current at allocate() time and passes it back to
  /// note_release, so a stale borrow from before the trace (a layer cache
  /// still pointing into the reset block) cannot end an allocation of the
  /// new trace that happens to sit at the same address.
  [[nodiscard]] std::uint64_t trace_generation() const noexcept { return generation_; }
  /// Records the release of a traced allocation (Tensor destructor);
  /// ignored unless `generation` is the current trace generation.
  void note_release(const void* p, std::uint64_t generation) noexcept;
  /// Stops tracing and returns the recorded events in allocation order.
  [[nodiscard]] std::vector<ArenaTraceEvent> take_trace();

  /// Planned replay ------------------------------------------------------
  /// Switches to planned mode backed by one block of plan.peak_bytes.
  /// Guard bands are not emitted in planned mode (offsets are packed).
  void set_plan(MemoryPlan plan);
  /// Back to bump mode; the planned block is kept as bump capacity.
  void clear_plan();
  [[nodiscard]] bool planned() const noexcept { return planned_; }
  [[nodiscard]] const MemoryPlan& plan() const noexcept { return plan_; }

 private:
  struct Block {
    std::byte* data = nullptr;
    std::size_t size = 0;
  };
  struct Guard {
    const std::byte* band = nullptr;  ///< first byte of the 64B canary
  };

  void* bump(std::size_t stride);
  void release_blocks() noexcept;
  void ensure_single_block(std::size_t bytes);

  std::vector<Block> blocks_;
  std::size_t block_ = 0;       ///< block currently bumped
  std::size_t offset_ = 0;      ///< bump offset within blocks_[block_]
  std::size_t used_ = 0;        ///< reserved bytes since reset
  std::size_t watermark_ = 0;   ///< max of used_ ever seen
  bool guard_ = false;
  std::vector<Guard> guards_;   ///< live canary bands (guard option)

  bool tracing_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<ArenaTraceEvent> trace_;
  std::vector<std::pair<const void*, std::size_t>> live_;  ///< ptr -> event

  bool planned_ = false;
  MemoryPlan plan_;
  std::size_t replay_ = 0;  ///< next allocation index in planned mode
};

/// Installs `arena` as the borrow target for Tensor storage on this
/// thread for the scope's lifetime (restores the previous target on
/// exit; scopes nest). Does NOT reset on exit — borrowed outputs stay
/// readable until the owner resets at the start of the next iteration.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) noexcept;
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

/// The arena Tensors on this thread borrow from (nullptr = owning mode).
[[nodiscard]] Arena* current_arena() noexcept;

/// Per-thread bump arena for kernel scratch (im2col panels, int8 panels,
/// softmax partials). Always bump mode; kernels carve LIFO Frames out of
/// it. Lives until thread exit, so steady-state reuse is heap-free.
[[nodiscard]] Arena& thread_scratch_arena();

}  // namespace dlscale::util
