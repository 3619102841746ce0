// lv::failpoint contract: spec parsing (all-or-nothing arming),
// deterministic per-site schedules, the compiled-in site registry, and
// the recovery matrix — for every store-side injection site, the next
// lookup is a clean miss, any damaged file is gone, and a recompute
// round-trips bit-identically. Plus the svc containment contract: a
// worker hit by svc.worker costs the caller one coded svc.internal
// response, and the client's retry budget gives up with a coded
// svc.retry_exhausted.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <optional>
#include <tuple>
#include <string>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist.hpp"
#include "sim/graph_io.hpp"
#include "sim/sim_graph.hpp"
#include "store/artifact_store.hpp"
#include "store/design_codec.hpp"
#include "store/hash.hpp"
#include "svc/client.hpp"
#include "svc/handlers.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "svc/socket.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace fp = lv::failpoint;
namespace fs = std::filesystem;
namespace st = lv::store;
namespace svc = lv::svc;
namespace chk = lv::check;

namespace {

// lv_* are static libraries: a TU's namespace-scope Sites only register
// if its object file is linked into this binary. Referencing one symbol
// per site-owning TU forces that, so RegistryListsEveryCompiledSite
// genuinely checks the full registry.
// Every other site-owning TU (socket, service, artifact_store,
// design_codec, graph_io) is called directly by a test below, which
// links its object; nothing here calls into server.cpp, so its
// svc.accept site needs an explicit reference the optimizer cannot
// drop — a volatile store is observable and survives.
[[maybe_unused]] int (*volatile kForceServerLink)(const svc::ServerOptions&) =
    &svc::serve;

// Every test leaves the process disarmed, whatever its body did.
class FailpointTest : public ::testing::Test {
 protected:
  ~FailpointTest() override { fp::reset(); }
};

class StoreDir {
 public:
  StoreDir() {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("lvsim_failpoint_test_" + std::to_string(::getpid()) + "_" +
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

std::size_t lvart_count(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{dir, ec}, end; !ec && it != end;
       it.increment(ec))
    if (it->path().extension() == ".lvart") ++n;
  return n;
}

std::size_t temp_residue_count(const fs::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{dir, ec}, end; !ec && it != end;
       it.increment(ec))
    if (it->path().filename().string().rfind(".tmp-", 0) == 0) ++n;
  return n;
}

}  // namespace

// ---- spec parsing and arming -----------------------------------------

TEST_F(FailpointTest, ConfigureArmsAndResetDisarms) {
  EXPECT_FALSE(fp::armed());
  fp::configure("store.read=error");
  EXPECT_TRUE(fp::armed());
  fp::Site* site = fp::find_site("store.read");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->configured_action(), fp::Action::error);
  fp::reset();
  EXPECT_FALSE(fp::armed());
  EXPECT_EQ(site->configured_action(), fp::Action::none);
  EXPECT_FALSE(site->fire());
}

TEST_F(FailpointTest, EmptySpecDisarms) {
  fp::configure("svc.worker=delay:0.5@3");
  EXPECT_TRUE(fp::armed());
  fp::configure("");
  EXPECT_FALSE(fp::armed());
}

TEST_F(FailpointTest, MultiClauseSpecArmsEachSite) {
  fp::configure(
      "store.read=torn:0.25@7,svc.sock_write=delay,store.rename=error:1");
  EXPECT_EQ(fp::find_site("store.read")->configured_action(),
            fp::Action::torn);
  EXPECT_EQ(fp::find_site("svc.sock_write")->configured_action(),
            fp::Action::delay);
  EXPECT_EQ(fp::find_site("store.rename")->configured_action(),
            fp::Action::error);
  // Unmentioned sites stay disarmed.
  EXPECT_EQ(fp::find_site("svc.worker")->configured_action(),
            fp::Action::none);
}

TEST_F(FailpointTest, MalformedSpecThrowsAndLeavesPreviousConfig) {
  fp::configure("store.read=error");
  // Each bad spec must throw without half-applying anything.
  EXPECT_THROW(fp::configure("store.read=bogus"), lv::util::Error);
  EXPECT_THROW(fp::configure("no.such.site=error"), lv::util::Error);
  EXPECT_THROW(fp::configure("store.read=error:1.5"), lv::util::Error);
  EXPECT_THROW(fp::configure("store.read=error:x"), lv::util::Error);
  EXPECT_THROW(fp::configure("store.read=error@notanumber"), lv::util::Error);
  EXPECT_THROW(fp::configure("=error"), lv::util::Error);
  EXPECT_THROW(fp::configure("store.read"), lv::util::Error);
  // The good clause from before survives every failed configure.
  EXPECT_TRUE(fp::armed());
  EXPECT_EQ(fp::find_site("store.read")->configured_action(),
            fp::Action::error);
}

TEST_F(FailpointTest, ProbabilityEndpointsAlwaysAndNever) {
  fp::configure("store.read=error:1");
  fp::Site* site = fp::find_site("store.read");
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(site->fire());
  EXPECT_EQ(site->hits(), 64u);

  fp::configure("store.read=error:0");
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(site->fire());
  EXPECT_EQ(site->hits(), 0u);
  EXPECT_EQ(site->evals(), 64u);
}

TEST_F(FailpointTest, ScheduleIsAPureFunctionOfSpecAndEvalOrder) {
  const auto record = [](const char* spec) {
    fp::configure(spec);
    fp::Site* site = fp::find_site("store.read");
    std::vector<bool> pattern;
    for (int i = 0; i < 256; ++i) pattern.push_back(bool(site->fire()));
    return pattern;
  };
  const std::vector<bool> a = record("store.read=error:0.3@42");
  const std::vector<bool> b = record("store.read=error:0.3@42");
  EXPECT_EQ(a, b) << "same spec must replay the same schedule";
  const std::size_t hits =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 256u) << "p=0.3 must not fire every evaluation";
  const std::vector<bool> c = record("store.read=error:0.3@43");
  EXPECT_NE(a, c) << "the seed must select a different schedule";
}

TEST_F(FailpointTest, RegistryListsEveryCompiledSite) {
  const std::vector<std::string> names = fp::site_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // The site registry is a contract shared with tools/chaos_soak.py
  // (EXPECTED_SITES) and docs/RESILIENCE.md — update all three together.
  const char* expected[] = {
      "sim.graph_decode", "store.design_decode", "store.group_write",
      "store.read",       "store.rename",        "store.sweep_unlink",
      "store.temp_write", "svc.accept",          "svc.sock_read",
      "svc.sock_write",   "svc.worker",
  };
  for (const char* name : expected)
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << "missing site: " << name;
  EXPECT_EQ(names.size(), std::size(expected));
}

// ---- store recovery matrix -------------------------------------------
//
// The contract for every store-side site: an injected failure may cost a
// miss and a recompute, never a wrong artifact — and after the failure
// the store is clean (damaged file deleted, no temp residue) so the
// recompute round-trips bit-identically.

TEST_F(FailpointTest, StoreReadErrorIsAMissAndLeavesTheEntryIntact) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");
  ASSERT_TRUE(store.put("design", key, "payload"));

  fp::configure("store.read=error");
  EXPECT_FALSE(store.get("design", key).has_value());
  EXPECT_EQ(lvart_count(dir.path()), 1u) << "an EIO read deletes nothing";

  fp::reset();
  const auto back = store.get("design", key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "payload");
}

TEST_F(FailpointTest, StoreReadTornIsAMissAndDeletesTheEntry) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");
  ASSERT_TRUE(store.put("design", key, std::string(512, 'p')));

  fp::configure("store.read=torn@9");
  EXPECT_FALSE(store.get("design", key).has_value())
      << "a truncated read must fail the checksum, never return a prefix";
  EXPECT_EQ(lvart_count(dir.path()), 0u) << "damaged entry must be deleted";

  fp::reset();
  EXPECT_FALSE(store.get("design", key).has_value()) << "clean miss";
  ASSERT_TRUE(store.put("design", key, std::string(512, 'p')));
  EXPECT_EQ(store.get("design", key), std::string(512, 'p'));
}

TEST_F(FailpointTest, StoreTempWriteErrorFailsThePutCleanly) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");

  fp::configure("store.temp_write=error");
  EXPECT_FALSE(store.put("design", key, "payload"));
  EXPECT_EQ(lvart_count(dir.path()), 0u);
  EXPECT_EQ(temp_residue_count(dir.path()), 0u);

  fp::reset();
  EXPECT_FALSE(store.get("design", key).has_value());
  ASSERT_TRUE(store.put("design", key, "payload"));
  EXPECT_EQ(store.get("design", key), "payload");
}

TEST_F(FailpointTest, StoreTempWriteTornIsCaughtByTheReadChecksum) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");

  // The short write "succeeds" (the lost-tail-without-fsync model), so
  // put reports true — the damage must be caught at read time.
  fp::configure("store.temp_write=torn@5");
  EXPECT_TRUE(store.put("design", key, std::string(512, 'p')));

  fp::reset();
  EXPECT_FALSE(store.get("design", key).has_value());
  EXPECT_EQ(lvart_count(dir.path()), 0u) << "damaged entry must be deleted";
  ASSERT_TRUE(store.put("design", key, std::string(512, 'p')));
  EXPECT_EQ(store.get("design", key), std::string(512, 'p'));
}

TEST_F(FailpointTest, StoreRenameErrorFailsThePutWithoutResidue) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");

  fp::configure("store.rename=error");
  EXPECT_FALSE(store.put("design", key, "payload"));
  EXPECT_EQ(lvart_count(dir.path()), 0u);
  EXPECT_EQ(temp_residue_count(dir.path()), 0u)
      << "a failed rename must reclaim its temp file";

  fp::reset();
  ASSERT_TRUE(store.put("design", key, "payload"));
  EXPECT_EQ(store.get("design", key), "payload");
}

TEST_F(FailpointTest, StoreRenameTornIsCaughtByTheReadChecksum) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");

  fp::configure("store.rename=torn@11");
  EXPECT_TRUE(store.put("design", key, std::string(512, 'p')));

  fp::reset();
  EXPECT_FALSE(store.get("design", key).has_value());
  EXPECT_EQ(lvart_count(dir.path()), 0u);
  ASSERT_TRUE(store.put("design", key, std::string(512, 'p')));
  EXPECT_EQ(store.get("design", key), std::string(512, 'p'));
}

TEST_F(FailpointTest, StoreGroupWriteErrorLosesOnlyTheAdvisoryIndex) {
  StoreDir dir;
  st::ArtifactStore store{{dir.path()}};
  const st::Key128 key = st::hash128("k");

  fp::configure("store.group_write=error");
  EXPECT_TRUE(store.put("design", key, "payload", "shapeA"))
      << "losing advisory index data must not fail the put";
  EXPECT_EQ(store.get("design", key), "payload");
  EXPECT_TRUE(store.group_keys("design", "shapeA").empty());

  fp::reset();
  ASSERT_TRUE(store.put("design", key, "payload", "shapeA"));
  ASSERT_EQ(store.group_keys("design", "shapeA").size(), 1u);
  EXPECT_TRUE(store.group_keys("design", "shapeA")[0] == key);
}

TEST_F(FailpointTest, StoreSweepUnlinkErrorOnlyDefersEviction) {
  StoreDir dir;
  st::ArtifactStore writer{{dir.path(), 0}};
  const st::Key128 k1 = st::hash128("one");
  const st::Key128 k2 = st::hash128("two");
  ASSERT_TRUE(writer.put("design", k1, std::string(600, 'x')));
  ASSERT_TRUE(writer.put("design", k2, std::string(600, 'x')));

  st::ArtifactStore budgeted{{dir.path(), 700}};
  fp::configure("store.sweep_unlink=error");
  budgeted.sweep();
  EXPECT_EQ(lvart_count(dir.path()), 2u)
      << "an injected unlink failure must leave every entry readable";
  EXPECT_TRUE(budgeted.get("design", k1).has_value());
  EXPECT_TRUE(budgeted.get("design", k2).has_value());

  fp::reset();
  budgeted.sweep();
  EXPECT_EQ(lvart_count(dir.path()), 1u) << "the next sweep evicts normally";
}

TEST_F(FailpointTest, DesignDecodeFailpointIsAMissNotAWrongDesign) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 4);
  const std::string payload = st::encode_design("rca4", nl, nullptr);
  ASSERT_TRUE(st::decode_design(payload).has_value()) << "payload is valid";

  fp::configure("store.design_decode=error");
  EXPECT_FALSE(st::decode_design(payload).has_value())
      << "an injected decode failure must read as a miss";

  fp::reset();
  const auto decoded = st::decode_design(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(st::encode_design(decoded->text, decoded->netlist, nullptr),
            payload)
      << "recovered decode must be bit-identical";
}

TEST_F(FailpointTest, GraphDecodeFailpointThrowsTheCorruptEntrySignal) {
  lv::circuit::Netlist nl;
  lv::circuit::build_ripple_carry_adder(nl, 4);
  const auto compiled = lv::sim::SimGraph::compile(nl);
  const std::string blob = lv::sim::encode_graph(*compiled);
  ASSERT_NE(lv::sim::decode_graph(nl, blob), nullptr) << "blob is valid";

  // util::Error is exactly what the store turns into miss+delete, so an
  // injected decode failure rides the existing recovery path.
  fp::configure("sim.graph_decode=error");
  EXPECT_THROW((void)lv::sim::decode_graph(nl, blob), lv::util::Error);

  fp::reset();
  const auto again = lv::sim::decode_graph(nl, blob);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(lv::sim::encode_graph(*again), blob) << "recompute bit-identical";
}

// ---- svc containment and client give-up ------------------------------

TEST_F(FailpointTest, WorkerExceptionIsContainedAsCodedSvcInternal) {
  svc::Session session{0};
  svc::ServiceContext ctx{session};
  svc::Request request;
  request.op = "version";

  fp::configure("svc.worker=error");
  const svc::Response r = svc::run_request(ctx, request);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("[svc.internal]"), std::string::npos) << r.err;
  EXPECT_NE(r.diag_json.find("svc.internal"), std::string::npos);

  fp::reset();
  const svc::Response ok = svc::run_request(ctx, request);
  EXPECT_EQ(ok.exit_code, 0) << "the worker survives to serve the next call";
  EXPECT_FALSE(ok.out.empty());
}

TEST_F(FailpointTest, ClientGivesUpWithCodedRetryExhausted) {
  // Nothing listens on this path: every attempt is ECONNREFUSED (svc.io).
  svc::ClientOptions options;
  options.endpoint.path = "/tmp/lvsim_failpoint_norefused_" +
                          std::to_string(::getpid()) + ".sock";
  options.backoff_ms = 1;  // keep the test fast
  const char* argv_const[] = {"version"};
  char** argv = const_cast<char**>(argv_const);

  // Default budget (0 retries): the original transport error, verbatim.
  try {
    svc::run_client(options, 1, argv, 0);
    FAIL() << "expected a transport error";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), chk::codes::svc_io);
  }

  options.retries = 2;
  try {
    svc::run_client(options, 1, argv, 0);
    FAIL() << "expected the retry budget to run out";
  } catch (const chk::InputError& e) {
    EXPECT_EQ(e.code(), chk::codes::svc_retry_exhausted);
    EXPECT_NE(std::string{e.what()}.find("3 attempts"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find(chk::codes::svc_io),
              std::string::npos)
        << "the give-up must name the last underlying error";
  }
}
