// Deterministic fault injection (failpoints).
//
// A failpoint is a named site compiled into an I/O or scheduling path
// where a hostile outcome — an I/O error, a torn (partial) transfer, a
// scheduling delay — can be injected on demand. Sites cost one relaxed
// atomic load when the framework is disarmed (the default and the state
// every production run and unit test starts in), so they can live on hot
// paths.
//
// Arming is explicit and fully deterministic:
//
//   LVSIM_FAILPOINTS="store.temp_write=error:0.05@42,svc.sock_read=torn"
//
// i.e. a comma-separated list of `site=action[:prob][@seed]` clauses,
// where action is one of `error` | `torn` | `delay`, prob defaults to 1
// (fire every evaluation) and seed defaults to 0. Each site draws its
// fire/no-fire decision from a counted splitmix64 stream over its own
// seed: the k-th evaluation of a site fires iff mix(seed, k) falls under
// the probability threshold, so a failure schedule is a pure function of
// (spec, per-site evaluation order) — rerunning a single-threaded test
// replays the exact same schedule, and under concurrency each site's
// *schedule* is still deterministic even though which request absorbs
// the k-th evaluation may vary.
//
// What an action means is up to the site (documented per site in
// docs/RESILIENCE.md): `error` simulates the operation failing (EIO,
// ENOSPC, a worker throwing), `torn` a partial transfer (short write,
// truncated read), `delay` a small deterministic sleep. Sites that
// cannot tear (e.g. svc.worker) treat `torn` as `error`.
//
// The registry of every site compiled into the binary is enumerable
// (`site_names()`, surfaced as `lvtool failpoints`) so external chaos
// tooling can validate its configuration against the binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lv::failpoint {

enum class Action : std::uint8_t { none = 0, error, torn, delay };

const char* to_string(Action a);

// One firing decision. `bits` is a deterministic draw from the site's
// stream, for the site to shape its misbehavior with (where to tear a
// write, how long to delay) without consulting any other RNG.
struct Fired {
  Action action = Action::none;
  std::uint64_t bits = 0;
  explicit operator bool() const { return action != Action::none; }
};

namespace detail {
// One flag for the whole process: sites pay only this load until some
// spec arms the framework.
extern std::atomic<bool> g_armed;
}  // namespace detail

// A named injection site. Declare at namespace scope in the .cpp that
// owns the guarded operation, so the site registers during static
// initialization and `site_names()` sees it even if the path never runs:
//
//   static lv::failpoint::Site fp_read{"store.read"};
//   ...
//   if (const auto f = fp_read.fire()) { /* misbehave per f.action */ }
class Site {
 public:
  explicit Site(const char* name);  // registers in the process registry
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const char* name() const { return name_; }

  // The per-site decision. Disarmed: one relaxed load, returns none.
  Fired fire() {
    if (!detail::g_armed.load(std::memory_order_relaxed)) return {};
    return fire_slow();
  }

  std::uint64_t hits() const {
    return hit_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t evals() const {
    return eval_count_.load(std::memory_order_relaxed);
  }
  Action configured_action() const {
    return static_cast<Action>(action_.load(std::memory_order_relaxed));
  }

 private:
  friend void configure(const std::string&);
  friend void reset();

  Fired fire_slow();

  const char* name_;
  std::atomic<std::uint8_t> action_{0};
  // Atomic so reconfiguring never races a concurrent fire() (a server
  // thread may still be inside one when a test resets); relaxed is
  // enough because action_'s release/acquire publishes them.
  std::atomic<std::uint64_t> threshold_{0};  // fire when mix(seed, k) < it
  std::atomic<std::uint64_t> seed_{0};
  std::atomic<std::uint64_t> eval_count_{0};
  std::atomic<std::uint64_t> hit_count_{0};
};

// Parses and applies a spec (`site=action[:prob][@seed]`, comma
// separated; empty string = disarm everything). Throws util::Error on a
// malformed clause or an unknown site name, leaving the previous
// configuration in place. A fire() concurrent with configure may see
// the old or the new settings: configure before spawning the threads
// that hit the sites when the schedule must replay exactly.
void configure(const std::string& spec);

// configure($LVSIM_FAILPOINTS) when the variable is set and non-empty;
// no-op otherwise. Call once at process startup (lvtool does).
void configure_from_env();

// Disarms every site and zeroes its counters.
void reset();

bool armed();

// All registered site names, sorted (the registry contract that
// `tools/chaos_soak.py --list-sites` validates).
std::vector<std::string> site_names();

// Lookup by name; nullptr when no such site is compiled in.
Site* find_site(const std::string& name);

// Deterministic sleep for `delay` actions: 1..5 ms shaped by `bits`.
void sleep_for_bits(std::uint64_t bits);

}  // namespace lv::failpoint
