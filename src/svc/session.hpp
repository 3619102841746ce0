// Per-session cached parse/compile state, optionally backed by the
// cross-session artifact store.
//
// Power-exploration traffic is iterative: many requests against the same
// netlist/tech baseline, varying only operating points. A Session keys
// parsed netlists (plus their lazily compiled sim::SimGraph) and parsed
// processes by a 64-bit content hash, so the second request over the
// same bytes skips ingest and graph compilation entirely. Hash matches
// are verified against the stored text before reuse — a collision can
// cost a reparse, never a wrong answer.
//
// When constructed over an lv::store::ArtifactStore, the session also
// consults the on-disk cache on a miss (decode instead of parse+compile;
// store.hits) and publishes what it parses/compiles back (so the next
// process starts warm), including AnalysisContext memo tables per
// process. A miss whose *shape* matches a stored sibling revision
// compiles incrementally from that base (sim::recompile_incremental)
// instead of from scratch.
//
// The in-memory side is byte-budgeted: inserts evict the least recently
// used entries (svc.cache_evictions) so a long-lived server accumulating
// distinct uploads stays bounded.
//
// One Session per protocol connection (the server), one per process (the
// CLI). Thread-safe: a session's requests may run on several svc workers
// concurrently (a client may pipeline requests on one connection);
// racing misses may both parse, but the insert re-checks the bucket under
// the lock and keeps exactly one entry (the loser adopts the winner's
// value). Requests over one Design share its netlist read-only — the
// netlist builds its derived structure once under its own lock — and its
// graph, compiled once under the Design's lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/netlist.hpp"
#include "sim/sim_graph.hpp"
#include "store/artifact_store.hpp"
#include "tech/techfile.hpp"

namespace lv::svc {

// FNV-1a, the cache key for inline payloads.
std::uint64_t content_hash(std::string_view text);

class Session {
 public:
  // A parsed netlist plus its compiled simulation graph. The graph is
  // built on first use and shared by every simulator the session runs
  // over this design afterwards.
  class Design {
   public:
    explicit Design(circuit::Netlist nl, std::string text = {})
        : netlist_(std::move(nl)), text_(std::move(text)) {}
    const circuit::Netlist& netlist() const { return netlist_; }
    const std::string& text() const { return text_; }
    // Lazily compiles (once) and returns the shared SimGraph. The graph
    // references netlist(), which this Design keeps alive. With a store
    // attached, a fresh compile is published back as a design artifact,
    // and a shape-matching base design (set by the Session) is used for
    // an incremental recompile instead of a full one when possible.
    std::shared_ptr<const sim::SimGraph> graph() const;

   private:
    friend class Session;
    // The graph if already compiled/installed, else nullptr — never
    // triggers a compile (used to snapshot an incremental base without
    // cascading).
    std::shared_ptr<const sim::SimGraph> compiled() const;

    circuit::Netlist netlist_;
    std::string text_;
    store::ArtifactStore* store_ = nullptr;  // set when store-backed
    store::Key128 store_key_{};
    store::Key128 shape_{};
    mutable std::mutex mu_;
    mutable std::shared_ptr<const sim::SimGraph> graph_;
    // Same-shape sibling to recompile incrementally from; dropped after
    // the first compile so design chains cannot pin memory.
    mutable std::shared_ptr<const Design> base_;
  };

  struct Options {
    // Cross-session artifact store; nullptr = in-memory only.
    store::ArtifactStore* store = nullptr;
    // In-memory cache budget (accounted as text bytes + kEntryOverhead
    // per entry); 0 = unbounded.
    std::uint64_t max_cache_bytes = std::uint64_t{256} << 20;  // 256 MiB
  };

  // Flat per-entry overhead charged against max_cache_bytes on top of
  // the source text (parsed structures, compiled graph). A coarse model,
  // but a deterministic one — the eviction-order test depends on it.
  static constexpr std::uint64_t kEntryOverhead = 4096;

  // Two overloads instead of `Options options = {}`: GCC rejects a {}
  // default argument for a nested class with default member initializers
  // (PR 88165).
  explicit Session(std::uint64_t id) : Session(id, Options{}) {}
  Session(std::uint64_t id, Options options) : id_(id), options_(options) {}

  std::uint64_t id() const { return id_; }
  store::ArtifactStore* store() const { return options_.store; }

  // Parse-or-reuse. `origin` labels diagnostics (the user-visible file
  // name); parse errors throw InputError exactly like the direct
  // require_* boundary.
  std::shared_ptr<const Design> netlist(const std::string& text,
                                        const std::string& origin);
  std::shared_ptr<const tech::Process> tech(const std::string& text,
                                            const std::string& origin);

  // ---- AnalysisContext memo bank ------------------------------------
  // Serialized memo tables keyed by process identity (store::Key128),
  // shared across requests and (through the store) across sessions and
  // restarts. memo_blob returns the current blob ("" when none);
  // merge_memo_blob keeps the larger of current/offered and publishes
  // updates to the store.
  std::string memo_blob(const store::Key128& key);
  void merge_memo_blob(const store::Key128& key, std::string blob);

  // ---- introspection (cache stats op, tests) ------------------------
  std::size_t cached_designs() const;
  std::size_t cached_processes() const;
  std::uint64_t cached_bytes() const;
  std::uint64_t max_cache_bytes() const { return options_.max_cache_bytes; }

 private:
  template <typename T>
  struct Entry {
    std::string text;
    std::shared_ptr<const T> value;
    std::uint64_t bytes = 0;
    std::uint64_t last_use = 0;  // logical clock, for LRU eviction
  };

  // Insert-or-adopt under the lock (the racing-miss dedup), then evict
  // down to budget.
  std::shared_ptr<const Design> insert_design(
      std::uint64_t key, const std::string& text,
      std::shared_ptr<const Design> design);
  std::shared_ptr<const tech::Process> insert_process(
      std::uint64_t key, const std::string& text,
      std::shared_ptr<const tech::Process> process);
  void evict_locked();

  // Store-side miss handling: decode a stored design entry, or parse and
  // publish. Returns nullptr when the store has no usable entry.
  std::shared_ptr<Design> design_from_store(const std::string& text);
  // Most recent same-shape design to use as an incremental base (memory
  // first, then the store's group index), excluding `key`.
  std::shared_ptr<const Design> find_base(const store::Key128& key,
                                          const store::Key128& shape);

  std::uint64_t id_;
  Options options_;
  mutable std::mutex mu_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t cached_bytes_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry<Design>>> designs_;
  std::unordered_map<std::uint64_t, std::vector<Entry<tech::Process>>>
      processes_;
  // Shape hex -> most recent design with that shape (weak: eviction must
  // actually release memory).
  std::unordered_map<std::string, std::weak_ptr<const Design>> by_shape_;

  std::mutex memo_mu_;
  std::unordered_map<std::string, std::string> memo_blobs_;  // by key hex
};

}  // namespace lv::svc
