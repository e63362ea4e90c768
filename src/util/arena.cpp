#include "dlscale/util/arena.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

namespace dlscale::util {

namespace {

constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + Arena::kAlignment - 1) & ~(Arena::kAlignment - 1);
}

std::byte* aligned_new(std::size_t bytes) {
  return static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t{Arena::kAlignment}));
}

void aligned_delete(std::byte* p) noexcept {
  ::operator delete(p, std::align_val_t{Arena::kAlignment});
}

}  // namespace

Arena::Arena() : Arena(Options{}) {}

Arena::Arena(Options options) : guard_(options.guard) {}

Arena::~Arena() { release_blocks(); }

void Arena::release_blocks() noexcept {
  for (Block& b : blocks_) aligned_delete(b.data);
  blocks_.clear();
  block_ = 0;
  offset_ = 0;
}

std::size_t Arena::capacity() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

void Arena::ensure_single_block(std::size_t bytes) {
  if (blocks_.size() == 1 && blocks_[0].size >= bytes) return;
  release_blocks();
  if (bytes > 0) blocks_.push_back({aligned_new(bytes), bytes});
}

void* Arena::bump(std::size_t stride) {
  while (block_ < blocks_.size() && blocks_[block_].size - offset_ < stride) {
    ++block_;
    offset_ = 0;
  }
  if (block_ == blocks_.size()) {
    // Grow the chain: double the last block (at least the request) so
    // warmup converges in O(log) heap allocations; reset() coalesces.
    const std::size_t last = blocks_.empty() ? 0 : blocks_.back().size;
    const std::size_t size = std::max(stride, std::max<std::size_t>(last * 2, 1 << 16));
    blocks_.push_back({aligned_new(size), size});
    offset_ = 0;
  }
  std::byte* p = blocks_[block_].data + offset_;
  offset_ += stride;
  used_ += stride;
  watermark_ = std::max(watermark_, used_);
  return p;
}

void* Arena::allocate(std::size_t bytes) {
  const std::size_t aligned = std::max(align_up(bytes), kAlignment);
  if (planned_) {
    if (replay_ >= plan_.sizes.size()) {
      throw std::logic_error("Arena: allocation beyond the installed plan");
    }
    if (plan_.sizes[replay_] != aligned) {
      throw std::logic_error("Arena: allocation size diverges from the plan");
    }
    std::byte* p = blocks_[0].data + plan_.offsets[replay_];
    ++replay_;
    used_ = std::max(used_, plan_.offsets[replay_ - 1] + aligned);
    watermark_ = std::max(watermark_, used_);
    return p;
  }
  const std::size_t stride = guard_ ? aligned + kAlignment : aligned;
  std::byte* p = static_cast<std::byte*>(bump(stride));
  if (guard_) {
    std::memset(p + aligned, kGuardByte, kAlignment);
    guards_.push_back({p + aligned});
  }
  if (tracing_) {
    trace_.push_back({aligned, ++tick_, 0});
    live_.emplace_back(p, trace_.size() - 1);
  }
  return p;
}

void Arena::check_guards() const {
  for (const Guard& g : guards_) {
    for (std::size_t i = 0; i < kAlignment; ++i) {
      if (static_cast<unsigned char>(g.band[i]) != kGuardByte) {
        throw std::logic_error("Arena: guard canary tripped (buffer overrun)");
      }
    }
  }
}

void Arena::reset() {
  if (planned_) {
    replay_ = 0;
    used_ = 0;
    return;
  }
  check_guards();
  if (guard_) {
    // Poison everything that was handed out so stale reads are loud.
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t filled = b < block_ ? blocks_[b].size : (b == block_ ? offset_ : 0);
      if (filled > 0) std::memset(blocks_[b].data, kPoisonByte, filled);
    }
  }
  guards_.clear();
  if (blocks_.size() > 1 || (blocks_.size() == 1 && blocks_[0].size < watermark_)) {
    ensure_single_block(watermark_);
  }
  block_ = 0;
  offset_ = 0;
  used_ = 0;
  tracing_ = false;
  trace_.clear();
  live_.clear();
}

Arena::Frame::Frame(Arena& arena) noexcept
    : arena_(arena),
      block_(arena.block_),
      offset_(arena.offset_),
      used_(arena.used_),
      guards_(arena.guards_.size()) {}

Arena::Frame::~Frame() {
  if (arena_.guard_) {
    // Poison only the popped tail of the frame's starting block; later
    // blocks are wholly dead and get poisoned at the next reset().
    if (block_ < arena_.blocks_.size() && arena_.block_ == block_ &&
        arena_.offset_ > offset_) {
      std::memset(arena_.blocks_[block_].data + offset_, kPoisonByte,
                  arena_.offset_ - offset_);
    }
    arena_.guards_.resize(guards_);
  }
  arena_.block_ = block_;
  arena_.offset_ = offset_;
  arena_.used_ = used_;
}

void Arena::begin_trace() {
  if (planned_) throw std::logic_error("Arena: cannot trace in planned mode");
  reset();
  tracing_ = true;
  ++generation_;
  tick_ = 0;
  trace_.clear();
  live_.clear();
}

void Arena::note_release(const void* p, std::uint64_t generation) noexcept {
  if (!tracing_ || p == nullptr || generation != generation_) return;
  // Scan from the back: releases overwhelmingly target recent allocations
  // (LIFO-ish Tensor lifetimes), and the trace is a few hundred entries.
  for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
    if (it->first == p) {
      trace_[it->second].release_tick = ++tick_;
      live_.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<ArenaTraceEvent> Arena::take_trace() {
  tracing_ = false;
  live_.clear();
  return std::move(trace_);
}

void Arena::set_plan(MemoryPlan plan) {
  if (tracing_) throw std::logic_error("Arena: set_plan while tracing");
  if (plan.offsets.size() != plan.sizes.size()) {
    throw std::invalid_argument("Arena: malformed plan");
  }
  ensure_single_block(plan.peak_bytes);
  plan_ = std::move(plan);
  planned_ = true;
  replay_ = 0;
  block_ = 0;
  offset_ = 0;
  used_ = 0;
  guards_.clear();
}

void Arena::clear_plan() {
  planned_ = false;
  plan_ = MemoryPlan{};
  replay_ = 0;
  block_ = 0;
  offset_ = 0;
  used_ = 0;
}

namespace {

thread_local Arena* t_current_arena = nullptr;

}  // namespace

ArenaScope::ArenaScope(Arena& arena) noexcept : prev_(t_current_arena) {
  t_current_arena = &arena;
}

ArenaScope::~ArenaScope() { t_current_arena = prev_; }

Arena* current_arena() noexcept { return t_current_arena; }

Arena& thread_scratch_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace dlscale::util
