// run_request behavior: op dispatch, the exit-code contract, inline
// inputs vs paths, the session content-hash cache, and the shared
// RunReport emission path.
#include <gtest/gtest.h>

#include <string>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "svc/handlers.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"

namespace svc = lv::svc;
namespace chk = lv::check;

namespace {

// A tiny valid netlist: one AND gate, in the lvnet 1 grammar.
const char* kAndNetlist =
    "lvnet 1\n"
    "input a\n"
    "input b\n"
    "net y\n"
    "gate g0 AND2 y a b\n"
    "output y\n";

svc::Response run(svc::Session& session, const std::string& op,
                  std::vector<std::string> positional,
                  std::map<std::string, std::string> options = {},
                  std::map<std::string, std::string> inputs = {}) {
  svc::ServiceContext ctx{session};
  svc::Request request;
  request.op = op;
  request.params.positional = std::move(positional);
  request.params.options = std::move(options);
  request.inputs = std::move(inputs);
  return svc::run_request(ctx, request);
}

}  // namespace

TEST(SvcHandlers, RegistryCoversEveryCliSubcommand) {
  for (const char* name :
       {"check", "gen", "stats", "simulate", "power", "timing", "dualvt",
        "optimize-vt", "profile", "techfile", "glitch", "faults", "paths",
        "sizing", "optimize", "version"}) {
    EXPECT_NE(svc::find_op(name), nullptr) << name;
  }
  EXPECT_EQ(svc::find_op("no-such-op"), nullptr);
}

TEST(SvcHandlers, UnknownOpIsCodedInputError) {
  svc::Session session{1};
  const svc::Response r = run(session, "frobnicate", {});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find(chk::codes::svc_op), std::string::npos);
  EXPECT_NE(r.diag_json.find("lv-diag/1"), std::string::npos);
  EXPECT_TRUE(r.out.empty());
}

TEST(SvcHandlers, StatsOverInlineInput) {
  svc::Session session{1};
  const svc::Response r =
      run(session, "stats", {"tiny.lvnet"}, {}, {{"netlist", kAndNetlist}});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("gates: 1"), std::string::npos) << r.out << r.err;
  EXPECT_TRUE(r.err.empty());
}

TEST(SvcHandlers, MissingFileIsExitTwoWithDiag) {
  svc::Session session{1};
  const svc::Response r = run(session, "stats", {"/nonexistent/x.lvnet"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("lvtool stats:"), std::string::npos);
  EXPECT_FALSE(r.diag_json.empty());
}

TEST(SvcHandlers, MalformedNetlistIsExitTwo) {
  svc::Session session{1};
  const svc::Response r = run(session, "stats", {"bad.lvnet"}, {},
                              {{"netlist", "gate BOGUS g0 a -> y\n"}});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_FALSE(r.diag_json.empty());
}

TEST(SvcHandlers, GenReturnsFileArtifactNotDiskWrite) {
  svc::Session session{1};
  const svc::Response r =
      run(session, "gen", {"rca", "4"}, {{"--out", "rca4.lvnet"}});
  EXPECT_EQ(r.exit_code, 0);
  ASSERT_EQ(r.files.size(), 1u);
  EXPECT_EQ(r.files[0].path, "rca4.lvnet");
  EXPECT_NE(r.files[0].content.find("module"), std::string::npos);
  EXPECT_NE(r.out.find("wrote"), std::string::npos);
}

TEST(SvcHandlers, SessionCachesRepeatedNetlist) {
  lv::obs::set_enabled(true);
  lv::obs::Registry::global().reset();
  svc::Session session{1};
  const svc::Response first =
      run(session, "stats", {"tiny.lvnet"}, {}, {{"netlist", kAndNetlist}});
  const svc::Response second =
      run(session, "stats", {"tiny.lvnet"}, {}, {{"netlist", kAndNetlist}});
  EXPECT_EQ(first.out, second.out);
  const lv::obs::RunReport report = lv::obs::Registry::global().report();
  // Cache traffic is a scheduling detail, not part of the deterministic
  // counter contract.
  const auto& sched = report.scheduling_counters;
  ASSERT_TRUE(sched.count("svc.cache_misses"));
  EXPECT_EQ(sched.at("svc.cache_misses"), 1u);
  ASSERT_TRUE(sched.count("svc.cache_hits"));
  EXPECT_GE(sched.at("svc.cache_hits"), 1u);
  lv::obs::set_enabled(false);
}

TEST(SvcHandlers, DifferentContentMissesCache) {
  lv::obs::set_enabled(true);
  lv::obs::Registry::global().reset();
  svc::Session session{1};
  run(session, "stats", {"a.lvnet"}, {}, {{"netlist", kAndNetlist}});
  const std::string other = std::string(kAndNetlist) + "\n";
  run(session, "stats", {"a.lvnet"}, {}, {{"netlist", other}});
  const lv::obs::RunReport report = lv::obs::Registry::global().report();
  ASSERT_TRUE(report.scheduling_counters.count("svc.cache_misses"));
  EXPECT_EQ(report.scheduling_counters.at("svc.cache_misses"), 2u);
  lv::obs::set_enabled(false);
}

TEST(SvcHandlers, StatsFlagAttachesRunReport) {
  svc::Session session{1};
  const svc::Response r = run(session, "stats", {"tiny.lvnet"},
                              {{"--stats", "1"}}, {{"netlist", kAndNetlist}});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.report_json.find("lv-run-report/1"), std::string::npos);
  // --stats appends the text report after the command output.
  EXPECT_NE(r.out.find("run metrics"), std::string::npos) << r.out;
}

TEST(SvcHandlers, StatsJsonStagesFileArtifact) {
  svc::Session session{1};
  const svc::Response r =
      run(session, "stats", {"tiny.lvnet"}, {{"--stats-json", "m.json"}},
          {{"netlist", kAndNetlist}});
  EXPECT_EQ(r.exit_code, 0);
  bool staged = false;
  for (const auto& f : r.files)
    if (f.path == "m.json" &&
        f.content.find("lv-run-report/1") != std::string::npos)
      staged = true;
  EXPECT_TRUE(staged);
}

TEST(SvcHandlers, VersionReportsProtocolAndKernels) {
  svc::Session session{1};
  const svc::Response r = run(session, "version", {});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("lvrpc/1"), std::string::npos);
  EXPECT_NE(r.out.find("scalar"), std::string::npos);
  EXPECT_NE(r.out.find("word"), std::string::npos);
  EXPECT_EQ(r.out, svc::version_text());
}

TEST(SvcHandlers, CheckFailureCarriesDiagJson) {
  svc::Session session{1};
  const svc::Response r =
      run(session, "check", {"bad.lvtech"},
          {{"--kind", "tech"}}, {{"file", "vdd_nominal = -5\n"}});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.diag_json.find("lv-diag/1"), std::string::npos);
}

TEST(SvcHandlers, RunRequestNeverThrows) {
  svc::Session session{1};
  // Hostile shapes: missing positionals, bad numbers, bad kinds. All must
  // come back as coded responses, not exceptions.
  EXPECT_NO_THROW({
    run(session, "gen", {});
    run(session, "gen", {"rca", "not-a-number"});
    run(session, "power", {"x.lvnet"});
    run(session, "simulate", {"x.lvnet"}, {{"--seed", "quantum"}},
        {{"netlist", kAndNetlist}});
    run(session, "profile", {"no-such-workload"});
  });
}

TEST(SvcHandlers, VectorCountMustBeANonNegativeInteger) {
  // --vectors is a count: -3 or 2.5 is the caller's input error (exit 2,
  // cli.number), never a cast to size_t.
  svc::Session session{1};
  for (const char* bad : {"-3", "2.5", "many"}) {
    const svc::Response r =
        run(session, "simulate", {"tiny.lvnet"}, {{"--vectors", bad}},
            {{"netlist", kAndNetlist}});
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_NE(r.err.find(chk::codes::cli_number), std::string::npos)
        << bad << ": " << r.err;
  }
  const svc::Response ok =
      run(session, "simulate", {"tiny.lvnet"}, {{"--vectors", "3"}},
          {{"netlist", kAndNetlist}});
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("simulated 3 cycles"), std::string::npos) << ok.out;
}
