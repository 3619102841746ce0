#include "util/failpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/error.hpp"

namespace lv::failpoint {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

// Registration happens during static initialization across many TUs;
// the registry is a Meyers singleton so order does not matter. The
// mutex is belt-and-braces (static init of distinct TUs is sequenced
// within one thread, but tests may construct Sites at runtime).
struct Registry {
  std::mutex mu;
  std::vector<Site*> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

// splitmix64: the canonical 64-bit finalizer. Statelessly mixing
// (seed, k) gives every site a lock-free deterministic stream — the
// k-th evaluation's verdict never depends on thread interleaving.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Action parse_action(const std::string& word, const std::string& clause) {
  if (word == "error") return Action::error;
  if (word == "torn") return Action::torn;
  if (word == "delay") return Action::delay;
  throw util::Error("failpoint: unknown action '" + word + "' in clause '" +
                    clause + "' (error|torn|delay)");
}

std::uint64_t threshold_for(double prob, const std::string& clause) {
  if (!(prob >= 0.0) || prob > 1.0)
    throw util::Error("failpoint: probability out of [0, 1] in clause '" +
                      clause + "'");
  if (prob >= 1.0) return ~std::uint64_t{0};
  // 2^64 * prob, computed without overflowing the double->u64 cast.
  return static_cast<std::uint64_t>(
      prob * 18446744073709549568.0);  // largest double below 2^64
}

struct Clause {
  Site* site;
  Action action;
  std::uint64_t threshold;
  std::uint64_t seed;
};

Clause parse_clause(const std::string& clause) {
  const auto eq = clause.find('=');
  if (eq == std::string::npos || eq == 0)
    throw util::Error("failpoint: clause '" + clause +
                      "' is not site=action[:prob][@seed]");
  const std::string name = clause.substr(0, eq);
  std::string rest = clause.substr(eq + 1);

  std::uint64_t seed = 0;
  if (const auto at = rest.find('@'); at != std::string::npos) {
    const std::string seed_text = rest.substr(at + 1);
    rest.resize(at);
    char* end = nullptr;
    seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (end == seed_text.c_str() || *end != '\0')
      throw util::Error("failpoint: bad seed '" + seed_text +
                        "' in clause '" + clause + "'");
  }

  double prob = 1.0;
  if (const auto colon = rest.find(':'); colon != std::string::npos) {
    const std::string prob_text = rest.substr(colon + 1);
    rest.resize(colon);
    char* end = nullptr;
    prob = std::strtod(prob_text.c_str(), &end);
    if (end == prob_text.c_str() || *end != '\0')
      throw util::Error("failpoint: bad probability '" + prob_text +
                        "' in clause '" + clause + "'");
  }

  Site* site = find_site(name);
  if (site == nullptr)
    throw util::Error("failpoint: unknown site '" + name +
                      "' (see `lvtool failpoints` for the registry)");
  return {site, parse_action(rest, clause), threshold_for(prob, clause),
          seed};
}

}  // namespace

const char* to_string(Action a) {
  switch (a) {
    case Action::error: return "error";
    case Action::torn: return "torn";
    case Action::delay: return "delay";
    default: return "none";
  }
}

Site::Site(const char* name) : name_{name} {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock{r.mu};
  r.sites.push_back(this);
}

Fired Site::fire_slow() {
  const auto action =
      static_cast<Action>(action_.load(std::memory_order_acquire));
  if (action == Action::none) return {};
  const std::uint64_t k =
      eval_count_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t draw = mix(seed_.load(std::memory_order_relaxed) ^
                                 (k * 0x2545f4914f6cdd1dULL));
  if (draw >= threshold_.load(std::memory_order_relaxed)) return {};
  hit_count_.fetch_add(1, std::memory_order_relaxed);
  return {action, mix(draw)};
}

void configure(const std::string& spec) {
  // Parse the whole spec before touching any site, so a malformed
  // clause cannot leave the process half-armed.
  std::vector<Clause> clauses;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;
    clauses.push_back(parse_clause(clause));
  }
  reset();
  for (const Clause& c : clauses) {
    c.site->threshold_.store(c.threshold, std::memory_order_relaxed);
    c.site->seed_.store(c.seed, std::memory_order_relaxed);
    c.site->action_.store(static_cast<std::uint8_t>(c.action),
                          std::memory_order_release);
  }
  detail::g_armed.store(!clauses.empty(), std::memory_order_release);
}

void configure_from_env() {
  if (const char* spec = std::getenv("LVSIM_FAILPOINTS"); spec && *spec)
    configure(spec);
}

void reset() {
  detail::g_armed.store(false, std::memory_order_release);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock{r.mu};
  for (Site* site : r.sites) {
    site->action_.store(0, std::memory_order_release);
    site->threshold_.store(0, std::memory_order_relaxed);
    site->seed_.store(0, std::memory_order_relaxed);
    site->eval_count_.store(0, std::memory_order_relaxed);
    site->hit_count_.store(0, std::memory_order_relaxed);
  }
}

bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

std::vector<std::string> site_names() {
  Registry& r = registry();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock{r.mu};
    names.reserve(r.sites.size());
    for (const Site* site : r.sites) names.emplace_back(site->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

Site* find_site(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock{r.mu};
  for (Site* site : r.sites)
    if (name == site->name()) return site;
  return nullptr;
}

void sleep_for_bits(std::uint64_t bits) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1 + bits % 5));
}

}  // namespace lv::failpoint
