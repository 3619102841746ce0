// Calendar-queue (timing-wheel) event scheduler.
//
// The event kernel's delays are small bounded integers (zero / unit /
// load-proportional ticks), so a binary-heap priority queue is overkill:
// a wheel of 2^k slots, each holding a FIFO bucket, gives O(1) push and
// amortized O(1) pop. Slot index is `time & mask`; because every pending
// time t satisfies now <= t <= now + horizon and the wheel is sized past
// the horizon (capacity >= max_delay + 2), distinct pending times can
// never collide in a slot, so no overflow list is needed.
//
// Ordering contract (what keeps ActivityStats bit-identical to the
// heap-based kernel): entries pop in strictly non-decreasing time, and
// same-time entries pop in push (FIFO) order — exactly the (time, seq)
// order the heap's global sequence-number tie-break produced, without
// storing either field. Pushing to the slot currently being drained
// (zero-delay evaluation chains) is explicitly supported: the bucket is
// consumed from its head, so an appended entry is seen in the same pass.
//
// A bucket is a chain of fixed 64-byte chunks, each holding
// kChunkEntries entries plus the link to the next chunk: a push writes
// the next free entry of the bucket's tail chunk, a pop reads the next
// entry of its head chunk, so consecutive events share cache lines and
// the per-entry overhead is a fraction of a link (a 4-byte scalar event
// costs ~4.6 bytes). Drained chunks go back to one shared freelist, so
// steady-state memory is the *pending high-water mark*, not a per-slot
// capacity — and a warmed-up queue performs no heap allocation at all
// (pinned by tests/sim_alloc_test.cpp). The chunk pool grows in fixed
// blocks of kBlockChunks chunks and never moves a chunk, so a queue
// holds its high-water mark rounded up to a block — not the ~3x a
// doubling vector briefly needs while old and new storage coexist.
// `reserve_hint` (in entries) pre-allocates blocks.
//
// rebase() moves an empty queue's clock back to tick 0. Pending times
// are only ever compared relative to time(), so rebasing between drains
// changes no event order; it makes wraps() a sum over drains that each
// start at tick 0, independent of how much simulated time came before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/logic.hpp"
#include "circuit/netlist.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

// Generic over the event payload so the scalar kernel (one Logic per
// event) and the bit-parallel kernel (a 64-lane LogicW per event) share
// one scheduler implementation — and therefore one ordering contract.
template <class EntryT>
class WheelQueue {
 public:
  using Entry = EntryT;

  // Entries per chunk: as many as fit 64 bytes beside the link, >= 2.
  static constexpr std::uint32_t kChunkEntries = static_cast<std::uint32_t>(
      std::max<std::size_t>(2, (64 - sizeof(void*)) / sizeof(Entry)));
  static constexpr std::size_t kBlockChunks = 256;

  // `max_delay` bounds push times relative to the current time: pushes
  // must satisfy time() <= t <= time() + max_delay + 1 (the +1 admits
  // the clock edge, scheduled one tick after quiescence).
  explicit WheelQueue(std::uint64_t max_delay,
                      std::size_t reserve_hint = 0) {
    std::uint64_t capacity = 2;
    while (capacity < max_delay + 2) capacity <<= 1;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    // One partly filled chunk per slot, plus full chunks for the rest.
    while (pool_capacity() < reserve_hint + capacity * kChunkEntries)
      add_block();
  }

  // A copy holds the same pending entries in the same order (and as
  // many pool blocks, so a warmed-up copy stays allocation-free).
  WheelQueue(const WheelQueue& other) : WheelQueue(other.capacity() - 2) {
    while (blocks_.size() < other.blocks_.size()) add_block();
    time_ = other.time_;
    for (std::uint64_t t = time_; t <= time_ + mask_; ++t)
      other.for_each_in_slot(t & mask_, [&](const Entry& e) { push(t, e); });
    wraps_ = other.wraps_;
  }
  WheelQueue& operator=(const WheelQueue& other) {
    if (this != &other) *this = WheelQueue{other};
    return *this;
  }
  WheelQueue(WheelQueue&&) noexcept = default;
  WheelQueue& operator=(WheelQueue&&) noexcept = default;
  ~WheelQueue() = default;

  bool empty() const { return pending_ == 0; }
  std::size_t size() const { return pending_; }

  // Time of the most recently popped entry (the simulator's "now").
  std::uint64_t time() const { return time_; }

  // Number of times the pop cursor wrapped past slot 0 (observability).
  std::uint64_t wraps() const { return wraps_; }

  std::size_t capacity() const { return slots_.size(); }

  // Entries the chunk pool can hold (allocated blocks, in entries).
  std::size_t pool_capacity() const {
    return blocks_.size() * kBlockChunks * kChunkEntries;
  }

  void push(std::uint64_t t, Entry e) {
    Slot& s = slots_[t & mask_];
    if (s.head == nullptr) {
      s.head = s.tail = take_chunk();
      s.head_pos = s.tail_pos = 0;
    } else if (s.tail_pos == kChunkEntries) {
      Chunk* c = take_chunk();
      s.tail->next = c;
      s.tail = c;
      s.tail_pos = 0;
    }
    s.tail->entries[s.tail_pos++] = e;
    ++pending_;
  }

  // Pops the earliest entry (FIFO among same-time entries) and advances
  // time() to its timestamp. Precondition: !empty().
  Entry pop() {
    while (slots_[time_ & mask_].head == nullptr) {
      ++time_;
      if ((time_ & mask_) == 0) ++wraps_;
    }
    Slot& s = slots_[time_ & mask_];
    const Entry e = s.head->entries[s.head_pos++];
    if (s.head == s.tail) {
      if (s.head_pos == s.tail_pos) {  // bucket drained
        give_chunk(s.head);
        s.head = s.tail = nullptr;
      }
    } else if (s.head_pos == kChunkEntries) {
      Chunk* next = s.head->next;
      give_chunk(s.head);
      s.head = next;
      s.head_pos = 0;
    }
    --pending_;
    return e;
  }

  // Restarts the clock of an empty queue at tick 0. Precondition: empty().
  void rebase() { time_ = 0; }

 private:
  struct Chunk {
    Entry entries[kChunkEntries];
    Chunk* next = nullptr;
  };
  // FIFO bucket: entries [head_pos, ...) of the head chunk through
  // [..., tail_pos) of the tail chunk. head == nullptr: empty.
  struct Slot {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint32_t head_pos = 0;
    std::uint32_t tail_pos = 0;
  };

  Chunk* take_chunk() {
    if (free_ == nullptr) add_block();
    Chunk* c = free_;
    free_ = c->next;
    c->next = nullptr;
    return c;
  }
  void give_chunk(Chunk* c) {
    c->next = free_;
    free_ = c;
  }
  void add_block() {
    blocks_.push_back(std::make_unique<Chunk[]>(kBlockChunks));
    Chunk* block = blocks_.back().get();
    for (std::size_t i = kBlockChunks; i-- > 0;) give_chunk(block + i);
  }

  template <class Fn>
  void for_each_in_slot(std::uint64_t slot, Fn&& fn) const {
    const Slot& s = slots_[slot];
    for (const Chunk* c = s.head; c != nullptr; c = c->next) {
      const std::uint32_t begin = c == s.head ? s.head_pos : 0;
      const std::uint32_t end = c == s.tail ? s.tail_pos : kChunkEntries;
      for (std::uint32_t i = begin; i < end; ++i) fn(c->entries[i]);
      if (c == s.tail) break;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Chunk[]>> blocks_;  // chunk storage, never moved
  Chunk* free_ = nullptr;  // freelist of drained chunks
  std::uint64_t mask_ = 0;
  std::uint64_t time_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t wraps_ = 0;
};

// One pending value change on one net, in one lane (scalar kernel) or
// across all 64 lanes (bit-parallel kernel). The scalar event packs a
// 30-bit net id and the 2-bit Logic code into one 4-byte word, 14 to a
// chunk; SimGraph rejects netlists too large for the id field.
struct ScalarEvent {
  static constexpr std::uint32_t kNetBits = 30;
  static constexpr std::uint32_t kNetMask = (1u << kNetBits) - 1;

  ScalarEvent() = default;
  ScalarEvent(circuit::NetId net, circuit::Logic value)
      : bits_{(net & kNetMask) |
              (static_cast<std::uint32_t>(value) << kNetBits)} {}

  circuit::NetId net() const { return bits_ & kNetMask; }
  circuit::Logic value() const {
    return static_cast<circuit::Logic>(bits_ >> kNetBits);
  }

 private:
  std::uint32_t bits_ = 0;
};
static_assert(sizeof(ScalarEvent) == 4);
struct WordEvent {
  circuit::NetId net;
  LogicW value;
};

using CalendarQueue = WheelQueue<ScalarEvent>;
using WordCalendarQueue = WheelQueue<WordEvent>;

}  // namespace lv::sim
