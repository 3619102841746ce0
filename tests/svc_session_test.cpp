// Session cache semantics: byte-budgeted LRU eviction (deterministic via
// kEntryOverhead accounting), racing-miss dedup, and the artifact-store
// integration — warm restarts skip parse *and* compile, poisoned store
// entries cost a reparse but never a wrong design, and a same-shape
// sibling from the store's group index seeds an incremental recompile.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/ingest.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist_io.hpp"
#include "graph_blob_v1.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sim/graph_io.hpp"
#include "sim/sim_graph.hpp"
#include "store/artifact_store.hpp"
#include "store/design_codec.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "util/binio.hpp"

namespace fs = std::filesystem;
namespace st = lv::store;
namespace svc = lv::svc;

namespace {

// Counter-delta assertions need metrics collection on (off by default).
[[maybe_unused]] const bool kObsEnabled = [] {
  lv::obs::set_enabled(true);
  return true;
}();

std::uint64_t sched_counter(const std::string& name) {
  const auto report = lv::obs::Registry::global().report();
  const auto it = report.scheduling_counters.find(name);
  return it == report.scheduling_counters.end() ? 0 : it->second;
}

std::uint64_t timer_calls(const std::string& name) {
  const auto report = lv::obs::Registry::global().report();
  const auto it = report.timers.find(name);
  return it == report.timers.end() ? 0 : it->second.calls;
}

class StoreDir {
 public:
  StoreDir() {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("lvsim_session_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(dir_);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

const char* kNetA =
    "lvnet 1\n"
    "input a\n"
    "input b\n"
    "net t0\n"
    "net y\n"
    "gate g0 AND2 t0 a b\n"
    "gate g1 INV y t0\n"
    "output y\n";

// Same shape as kNetA (nets, names, outputs, arity all equal), different
// cell kind — the incremental-recompile envelope.
const char* kNetAKindSwap =
    "lvnet 1\n"
    "input a\n"
    "input b\n"
    "net t0\n"
    "net y\n"
    "gate g0 OR2 t0 a b\n"
    "gate g1 INV y t0\n"
    "output y\n";

const char* kNetB =
    "lvnet 1\n"
    "input p\n"
    "net q\n"
    "gate u0 BUF q p\n"
    "output q\n";

}  // namespace

TEST(SvcSession, EvictionOrderIsLeastRecentlyUsed) {
  const std::string t1 =
      "lvnet 1\ninput a\nnet y\ngate g0 INV y a\noutput y\n";
  const std::string t2 =
      "lvnet 1\ninput a\nnet y\ngate g0 BUF y a\noutput y\n";
  const std::string t3 =
      "lvnet 1\ninput b\nnet z\ngate g1 INV z b\noutput z\n";

  // Budget: all three entries minus one byte — inserting the third must
  // evict exactly one entry (the LRU), after which two fit again.
  const std::uint64_t e1 = t1.size() + svc::Session::kEntryOverhead;
  const std::uint64_t e2 = t2.size() + svc::Session::kEntryOverhead;
  const std::uint64_t e3 = t3.size() + svc::Session::kEntryOverhead;
  svc::Session session{1, svc::Session::Options{nullptr, e1 + e2 + e3 - 1}};

  session.netlist(t1, "");
  session.netlist(t2, "");
  session.netlist(t1, "");  // touch t1: t2 becomes the LRU entry
  EXPECT_EQ(session.cached_bytes(), e1 + e2);

  const std::uint64_t evictions0 = sched_counter("svc.cache_evictions");
  const std::uint64_t parses0 = sched_counter("svc.netlist_parses");
  session.netlist(t3, "");
  EXPECT_EQ(sched_counter("svc.cache_evictions"), evictions0 + 1);
  EXPECT_EQ(session.cached_designs(), 2u);
  EXPECT_EQ(session.cached_bytes(), e1 + e3);

  // t1 survived (recently used): served from memory, no parse.
  session.netlist(t1, "");
  EXPECT_EQ(sched_counter("svc.netlist_parses"), parses0 + 1);  // t3 only
  // t2 was the victim: requesting it again costs a parse.
  session.netlist(t2, "");
  EXPECT_EQ(sched_counter("svc.netlist_parses"), parses0 + 2);
}

TEST(SvcSession, ZeroBudgetMeansUnbounded) {
  svc::Session session{1, svc::Session::Options{nullptr, 0}};
  const std::uint64_t evictions0 = sched_counter("svc.cache_evictions");
  for (int i = 0; i < 8; ++i) {
    const std::string name = "n" + std::to_string(i);
    session.netlist("lvnet 1\ninput a\nnet " + name + "\ngate g0 INV " +
                        name + " a\noutput " + name + "\n",
                    "");
  }
  EXPECT_EQ(session.cached_designs(), 8u);
  EXPECT_EQ(sched_counter("svc.cache_evictions"), evictions0);
}

TEST(SvcSession, RacingMissesKeepExactlyOneEntry) {
  // Every thread races the same cold text; all must end up sharing one
  // Design (the insert re-checks the bucket under the lock). The dedup
  // counter itself is scheduling-dependent — whether any thread actually
  // loses the race is timing — so only the invariants are asserted.
  svc::Session session{1};
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const svc::Session::Design>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back(
        [&, i] { results[i] = session.netlist(kNetA, ""); });
  for (auto& t : threads) t.join();

  ASSERT_NE(results[0], nullptr);
  for (std::size_t i = 1; i < kThreads; ++i)
    EXPECT_EQ(results[i], results[0]) << "thread " << i;
  EXPECT_EQ(session.cached_designs(), 1u);
}

// Requests pipelined on one connection share its Session and, when they
// name the same text, one Design: their first structural queries on its
// netlist may come at the same time. Each round uploads text no request
// has seen, and every answer must equal the serial one.
TEST(SvcSession, ConcurrentRequestsOnOneFreshDesign) {
  std::string base;
  {
    lv::circuit::Netlist nl;
    lv::circuit::build_ripple_carry_adder(nl, 16);
    base = lv::circuit::to_netlist_text(nl);
  }
  auto run = [](svc::Session& session, const std::string& op,
                const std::string& text) {
    svc::ServiceContext ctx{session};
    svc::Request request;
    request.op = op;
    request.params.positional = {"rca16.lvnet"};
    if (op == "simulate")
      request.params.options = {{"--vectors", "200"}};
    else
      request.params.positional.push_back("soi_low_vt");
    request.inputs = {{"netlist", text}};
    return svc::run_request(ctx, request);
  };
  const std::vector<std::pair<std::string, std::string>> phases = {
      {"timing", "power"}, {"simulate", "paths"}};
  std::map<std::string, std::string> serial;
  {
    svc::Session session{1};
    for (const auto& [first, second] : phases)
      for (const auto& op : {first, second}) {
        const svc::Response r = run(session, op, base);
        ASSERT_EQ(r.exit_code, 0) << op << ": " << r.err;
        serial[op] = r.out;
      }
  }

  svc::Session session{2};
  for (int round = 0; round < 20; ++round) {
    const std::string text = base + "# round " + std::to_string(round) + "\n";
    for (const auto& [first, second] : phases) {
      svc::Response a, b;
      std::thread other{[&, op = second] { b = run(session, op, text); }};
      a = run(session, first, text);
      other.join();
      EXPECT_EQ(a.exit_code, 0) << first << ": " << a.err;
      EXPECT_EQ(b.exit_code, 0) << second << ": " << b.err;
      EXPECT_EQ(a.out, serial[first]) << "round " << round;
      EXPECT_EQ(b.out, serial[second]) << "round " << round;
    }
  }
}

TEST(SvcSession, WarmRestartSkipsParseAndCompile) {
  StoreDir dir;
  std::string cold_blob;
  {
    st::ArtifactStore store{{dir.path()}};
    svc::Session cold{1, svc::Session::Options{&store}};
    const auto design = cold.netlist(kNetA, "");
    cold_blob = lv::sim::encode_graph(*design->graph());
  }

  // Fresh store instance over the same directory + fresh session = a
  // process restart. The acceptance criterion: zero parses, zero graph
  // compilations, at least one store hit.
  st::ArtifactStore store{{dir.path()}};
  svc::Session warm{2, svc::Session::Options{&store}};
  const std::uint64_t parses0 = sched_counter("svc.netlist_parses");
  const std::uint64_t compiles0 = timer_calls("sim.graph_compile_ns");
  const std::uint64_t hits0 = sched_counter("store.hits");

  const auto design = warm.netlist(kNetA, "");
  const auto graph = design->graph();

  EXPECT_EQ(sched_counter("svc.netlist_parses"), parses0);
  EXPECT_EQ(timer_calls("sim.graph_compile_ns"), compiles0);
  EXPECT_GE(sched_counter("store.hits"), hits0 + 1);
  // And the decoded graph is bit-identical to the one the cold session
  // compiled.
  EXPECT_EQ(lv::sim::encode_graph(*graph), cold_blob);
}

TEST(SvcSession, VersionOneGraphBlobIsRecompiledAndRepublished) {
  // A design entry as an older build left it: the netlist is current,
  // its graph blob is lv-graph/1 (the graph blob is the entry's last
  // field).
  StoreDir dir;
  {
    st::ArtifactStore store{{dir.path()}};
    const lv::circuit::Netlist nl = lv::check::require_netlist(kNetA);
    std::string payload = st::encode_design(kNetA, nl, nullptr);
    payload.resize(payload.size() - 4);  // the empty blob's u32 length
    lv::util::ByteWriter blob;
    blob.str(lv::sim::testing::encode_graph_v1(lv::sim::SimGraph{nl}));
    payload += blob.take();
    const auto stale = st::decode_design(payload);
    ASSERT_TRUE(stale.has_value());
    ASSERT_EQ(stale->graph_blob.front(), '\x01');  // version 1, LE u32
    ASSERT_TRUE(store.put("design", st::design_key(kNetA), payload));
  }

  // The request is served: one compile, and the entry is republished
  // with the current graph blob.
  std::string fresh_blob;
  {
    st::ArtifactStore store{{dir.path()}};
    svc::Session session{1, svc::Session::Options{&store}};
    const std::uint64_t compiles0 = timer_calls("sim.graph_compile_ns");
    const auto design = session.netlist(kNetA, "");
    ASSERT_NE(design, nullptr);
    fresh_blob = lv::sim::encode_graph(*design->graph());
    EXPECT_EQ(timer_calls("sim.graph_compile_ns"), compiles0 + 1);
    const auto entry = store.get("design", st::design_key(kNetA));
    ASSERT_TRUE(entry.has_value());
    const auto republished = st::decode_design(*entry);
    ASSERT_TRUE(republished.has_value());
    EXPECT_EQ(republished->graph_blob, fresh_blob);
  }

  // A second session over the same store decodes it: zero compiles.
  st::ArtifactStore store{{dir.path()}};
  svc::Session session{2, svc::Session::Options{&store}};
  const std::uint64_t compiles0 = timer_calls("sim.graph_compile_ns");
  const auto design = session.netlist(kNetA, "");
  EXPECT_EQ(lv::sim::encode_graph(*design->graph()), fresh_blob);
  EXPECT_EQ(timer_calls("sim.graph_compile_ns"), compiles0);
}

TEST(SvcSession, PoisonedStoreEntryCostsAReparseNeverAWrongDesign) {
  // Plant kNetB's encoded design under kNetA's key — what a 128-bit
  // collision (or a tampered cache) would look like. The session must
  // notice the text mismatch, drop the entry, and parse.
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  {
    svc::Session writer{1, svc::Session::Options{&store}};
    writer.netlist(kNetB, "");  // a validated netlist to encode
  }
  const auto poison = store.get("design", st::design_key(kNetB));
  ASSERT_TRUE(poison.has_value());
  ASSERT_TRUE(store.put("design", st::design_key(kNetA), *poison));

  svc::Session session{2, svc::Session::Options{&store}};
  const std::uint64_t parses0 = sched_counter("svc.netlist_parses");
  const auto design = session.netlist(kNetA, "");
  EXPECT_EQ(sched_counter("svc.netlist_parses"), parses0 + 1);
  // The right design, not the imposter's.
  EXPECT_EQ(design->text(), kNetA);
  EXPECT_TRUE(design->netlist().find_net("t0") !=
              lv::circuit::kInvalidNet);

  // The poisoned entry was replaced by the honest reparse.
  const auto healed = store.get("design", st::design_key(kNetA));
  ASSERT_TRUE(healed.has_value());
  const auto decoded = st::decode_design(*healed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->text, kNetA);
}

TEST(SvcSession, StoreGroupIndexSeedsIncrementalRecompile) {
  StoreDir dir;
  {
    // First process: parse + compile kNetA, publishing it (with graph)
    // under its shape group.
    st::ArtifactStore store{{dir.path()}};
    svc::Session s1{1, svc::Session::Options{&store}};
    s1.netlist(kNetA, "")->graph();
  }

  // Second process asks for the kind-swapped revision: a store miss, but
  // the shape group points at kNetA's entry, so the compile is
  // incremental from that base — and still bit-identical to a
  // from-scratch compile.
  st::ArtifactStore store{{dir.path()}};
  svc::Session s2{2, svc::Session::Options{&store}};
  const std::uint64_t inc0 = sched_counter("sim.incremental_recompiles");
  const auto design = s2.netlist(kNetAKindSwap, "");
  const auto graph = design->graph();
  EXPECT_EQ(sched_counter("sim.incremental_recompiles"), inc0 + 1);

  const lv::sim::SimGraph full{design->netlist()};
  EXPECT_EQ(lv::sim::encode_graph(*graph), lv::sim::encode_graph(full));
}

TEST(SvcSession, MemoBlobMergeKeepsTheLargerAndSurvivesRestart) {
  StoreDir dir;
  const st::Key128 key = st::hash128("process identity");
  {
    st::ArtifactStore store{{dir.path()}};
    svc::Session session{1, svc::Session::Options{&store}};
    EXPECT_EQ(session.memo_blob(key), "");
    session.merge_memo_blob(key, "abc");
    EXPECT_EQ(session.memo_blob(key), "abc");
    session.merge_memo_blob(key, "abcdef");  // larger wins
    EXPECT_EQ(session.memo_blob(key), "abcdef");
    session.merge_memo_blob(key, "xy");  // smaller is ignored
    session.merge_memo_blob(key, "");    // empty is ignored
    EXPECT_EQ(session.memo_blob(key), "abcdef");
  }
  // A fresh session over the same directory starts from the published
  // blob.
  st::ArtifactStore store{{dir.path()}};
  svc::Session session{2, svc::Session::Options{&store}};
  EXPECT_EQ(session.memo_blob(key), "abcdef");
}

TEST(SvcSession, StorelessSessionStillWorks) {
  svc::Session session{1};
  EXPECT_EQ(session.store(), nullptr);
  const auto design = session.netlist(kNetA, "");
  ASSERT_NE(design, nullptr);
  EXPECT_NE(design->graph(), nullptr);
  EXPECT_EQ(session.memo_blob(st::hash128("p")), "");
  session.merge_memo_blob(st::hash128("p"), "blob");
  EXPECT_EQ(session.memo_blob(st::hash128("p")), "blob");
}
