// run_request behavior: op dispatch, the exit-code contract, inline
// inputs vs paths, the session content-hash cache, and the shared
// RunReport emission path.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/codes.hpp"
#include "check/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "svc/handlers.hpp"
#include "svc/params.hpp"
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

TEST(SvcHandlers, NetlistsRandomStimulusCannotDriveAreCodedInputErrors) {
  // Flip-flops for the combinational-only fault grader, no primary
  // inputs, or more than 64 of them: exit 2 with sim.stimulus, not an
  // internal error.
  svc::Session session{1};
  const std::string dff =
      "lvnet 1\nclock clk\ninput d\nnet q\ngate f0 DFF q d clk\n"
      "output q\n";
  const std::string no_inputs = "lvnet 1\nnet y\ngate t0 TIE1 y\noutput y\n";
  const svc::Response rca33 = run(session, "gen", {"rca", "33"});
  ASSERT_EQ(rca33.exit_code, 0) << rca33.err;
  const std::pair<std::string, std::vector<std::string>> cases[] = {
      {dff, {"faults", "x.lvnet"}},
      {no_inputs, {"faults", "x.lvnet"}},
      {no_inputs, {"simulate", "x.lvnet"}},
      {no_inputs, {"glitch", "x.lvnet", "soi_low_vt"}},
      {rca33.out, {"faults", "x.lvnet"}},
      {rca33.out, {"simulate", "x.lvnet"}},
  };
  for (const auto& [netlist, args] : cases) {
    const std::vector<std::string> positional(args.begin() + 1, args.end());
    const svc::Response r =
        run(session, args[0], positional, {}, {{"netlist", netlist}});
    EXPECT_EQ(r.exit_code, 2) << args[0] << ": " << r.err;
    EXPECT_NE(r.err.find(chk::codes::sim_stimulus), std::string::npos)
        << args[0] << ": " << r.err;
    EXPECT_TRUE(r.out.empty()) << args[0];
  }
}

namespace {

// Positionals that pass every op's declared types: the first choice of a
// one-of, the low end of an integer range, any text for the rest.
std::vector<std::string> valid_positionals(const svc::Command& command) {
  std::vector<std::string> out;
  for (const svc::Arg& a : command.positionals) {
    if (a.type == svc::ArgType::one_of)
      out.push_back(std::string(a.choices).substr(
          0, std::string(a.choices).find('|')));
    else if (a.type == svc::ArgType::integer)
      out.push_back(std::to_string(a.lo));
    else
      out.push_back("x");
  }
  return out;
}

void expect_code(const svc::Response& r, const char* code,
                 const std::string& what) {
  EXPECT_EQ(r.exit_code, 2) << what << ": " << r.err;
  EXPECT_NE(r.err.find(code), std::string::npos) << what << ": " << r.err;
}

}  // namespace

TEST(SvcHandlers, EveryOpRejectsUndeclaredOptionsAndMissingPositionals) {
  svc::Session session{1};
  for (const svc::OpSpec& op : svc::registry()) {
    const std::string name = op.command.name;
    expect_code(run(session, name, valid_positionals(op.command),
                    {{"--bogus", "1"}}),
                chk::codes::cli_option, name + " --bogus");
    // A misspelled alias is as undeclared as a misspelled name, and a
    // process option is not a request option.
    expect_code(run(session, name, valid_positionals(op.command),
                    {{"--threads", "2"}}),
                chk::codes::cli_option, name + " --threads");
    auto extra = valid_positionals(op.command);
    extra.push_back("surplus");
    expect_code(run(session, name, extra), chk::codes::cli_option,
                name + " surplus positional");
    if (!op.command.positionals.empty())
      expect_code(run(session, name, {}), chk::codes::cli_option,
                  name + " without positionals");
  }
}

TEST(SvcHandlers, IntegerOptionsAreCheckedAgainstTheirRange) {
  svc::Session session{1};
  const std::map<std::string, std::string> net = {{"netlist", kAndNetlist}};
  // Fractions are not integers, and a negative count or seed is not cast.
  for (const char* bad : {"2.7", "-1"}) {
    expect_code(run(session, "simulate", {"t.lvnet"}, {{"--seed", bad}}, net),
                chk::codes::cli_number, std::string("--seed ") + bad);
    expect_code(run(session, "faults", {"t.lvnet"}, {{"--seed", bad}}, net),
                chk::codes::cli_number, std::string("faults --seed ") + bad);
    expect_code(run(session, "profile", {"crc32"}, {{"--gap", bad}}),
                chk::codes::cli_number, std::string("--gap ") + bad);
  }
  for (const char* bad : {"0", "-5", "32768"})
    expect_code(run(session, "profile", {"idea"}, {{"--blocks", bad}}),
                chk::codes::cli_number, std::string("--blocks ") + bad);
  for (const char* bad : {"0", "-1", "65"})
    expect_code(run(session, "paths", {"t.lvnet", "soias"}, {{"--k", bad}},
                    net),
                chk::codes::cli_number, std::string("--k ") + bad);
  expect_code(run(session, "gen", {"rca", "0"}), chk::codes::cli_number,
              "gen rca 0");
  expect_code(run(session, "gen", {"shifter", "3"}), chk::codes::cli_number,
              "gen shifter 3");

  // In range, the declared default and the same value spelled out agree.
  const auto seeded = [&](std::map<std::string, std::string> options) {
    options["--vectors"] = "16";
    const svc::Response r = run(session, "simulate", {"t.lvnet"}, options, net);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    return r.out;
  };
  EXPECT_EQ(seeded({}), seeded({{"--seed", "1"}}));
  EXPECT_NE(seeded({{"--seed", "0"}}), seeded({{"--seed", "2"}}));
  const svc::Response k1 =
      run(session, "paths", {"t.lvnet", "soias"}, {{"--k", "1"}}, net);
  EXPECT_EQ(k1.exit_code, 0) << k1.err;
  EXPECT_NE(k1.out.find("#1 "), std::string::npos) << k1.out;
}

TEST(SvcHandlers, VectorCountAboveTheCapIsRejected) {
  // 2^20 vectors is the per-request cap: one more is cli.number (exit 2)
  // before any stimulus is allocated, for every command that takes it,
  // and `lvtool help` states the bound.
  svc::Session session{1};
  const std::map<std::string, std::string> net = {{"netlist", kAndNetlist}};
  const std::pair<const char*, std::vector<std::string>> commands[] = {
      {"simulate", {"t.lvnet"}},
      {"faults", {"t.lvnet"}},
      {"glitch", {"t.lvnet", "soias"}}};
  for (const auto& [name, positionals] : commands)
    expect_code(run(session, name, positionals, {{"--vectors", "1048577"}},
                    net),
                chk::codes::cli_number, std::string(name) + " --vectors");
  EXPECT_NE(svc::help_text().find("integer in [0, 1048576]"),
            std::string::npos);
}

TEST(SvcHandlers, GeneratorWidthAboveTheCapIsRejected) {
  // 256 bits is the widest generator: 257 is cli.number (exit 2) before
  // any gate is built, and the bound itself still generates.
  svc::Session session{1};
  expect_code(run(session, "gen", {"mul", "257"}), chk::codes::cli_number,
              "gen mul 257");
  const svc::Response rca256 = run(session, "gen", {"rca", "256"});
  EXPECT_EQ(rca256.exit_code, 0) << rca256.err;
  EXPECT_NE(svc::help_text().find("integer in [1, 256]"), std::string::npos);
}

TEST(SvcHandlers, ThreadCountsAboveTheBoundAreRejected) {
  // Validation fails before any pool or worker starts; no test starts
  // one at the bound itself.
  const auto code_of = [](const svc::Command& command, svc::Params params) {
    try {
      (void)svc::validate(command, std::move(params));
    } catch (const chk::InputError& e) {
      return e.code();
    }
    return std::string{};
  };
  EXPECT_EQ(code_of(svc::process_options(), {{}, {{"--threads", "1025"}}}),
            chk::codes::cli_number);
  EXPECT_EQ(code_of(svc::serve_command(),
                    {{}, {{"--socket", "s"}, {"--workers", "1025"}}}),
            chk::codes::cli_number);
  EXPECT_EQ(code_of(svc::process_options(), {{}, {{"--threads", "1024"}}}),
            "");
}

TEST(SvcHandlers, PowerAlphaAndActivityAreExclusiveAndAlphaDefaults) {
  svc::Session session{1};
  const std::map<std::string, std::string> net = {{"netlist", kAndNetlist}};
  expect_code(run(session, "power", {"t.lvnet", "soias"},
                  {{"--alpha", "0.3"}, {"--activity", "t.lvact"}}, net),
              chk::codes::cli_option, "--alpha with --activity");
  const svc::Response implicit = run(session, "power", {"t.lvnet", "soias"},
                                     {}, net);
  const svc::Response spelled = run(session, "power", {"t.lvnet", "soias"},
                                    {{"--alpha", "0.25"}}, net);
  EXPECT_EQ(implicit.exit_code, 0) << implicit.err;
  EXPECT_EQ(implicit.out, spelled.out);
  // A misspelled --alpha used to fall back to the default silently.
  expect_code(run(session, "power", {"t.lvnet", "soias"},
                  {{"--alhpa", "0.9"}}, net),
              chk::codes::cli_option, "--alhpa");
}

TEST(SvcHandlers, TablesAgreeOnFlagsAndDeclareEveryInputFile) {
  std::vector<const svc::Command*> tables = {
      &svc::serve_command(), &svc::client_command(),
      &svc::request_options(), &svc::process_options()};
  for (const svc::OpSpec& op : svc::registry()) tables.push_back(&op.command);
  // parse_params tokenizes with the union of the tables, so a name must be
  // a flag everywhere or nowhere.
  std::map<std::string, bool> is_flag;
  for (const svc::Command* t : tables)
    for (const svc::Arg& a : t->options) {
      const bool flag = a.type == svc::ArgType::flag;
      const auto it = is_flag.emplace(a.name, flag).first;
      EXPECT_EQ(it->second, flag) << a.name;
      // Every default passes its own declaration.
      if (!a.fallback.empty()) {
        const svc::Command one{"t", "", {}, {a}};
        EXPECT_NO_THROW(svc::validate(one, svc::Params{{}, {{a.name,
                                                             a.fallback}}}))
            << a.name << " " << a.fallback;
      }
    }
  // The upload slots are derived from the file entries.
  const svc::OpSpec* power = svc::find_op("power");
  ASSERT_NE(power, nullptr);
  ASSERT_EQ(power->inputs.size(), 3u);
  EXPECT_STREQ(power->inputs[0].role, "netlist");
  EXPECT_EQ(power->inputs[1].positional, 1);
  EXPECT_STREQ(power->inputs[2].option, "--activity");
}

TEST(SvcHandlers, ParseParamsTakesFlagsAndAliasesFromTheTables) {
  std::vector<std::string> words = {"lvtool", "check",  "f.lvnet",
                                    "--strict", "--stats", "-o", "out.lvnet",
                                    "--vdd",    "0.9"};
  std::vector<char*> argv;
  for (auto& w : words) argv.push_back(w.data());
  const svc::Params p =
      svc::parse_params(static_cast<int>(argv.size()), argv.data(), 2);
  EXPECT_EQ(p.positional, std::vector<std::string>{"f.lvnet"});
  EXPECT_EQ(p.options.at("--strict"), "1");
  EXPECT_EQ(p.options.at("--stats"), "1");
  EXPECT_EQ(p.options.at("--out"), "out.lvnet");
  EXPECT_EQ(p.options.at("--vdd"), "0.9");
}

TEST(SvcHandlers, HelpIsGeneratedFromEveryTable) {
  const std::string help = svc::help_text();
  for (const svc::OpSpec& op : svc::registry()) {
    const std::string head = "\n  " + std::string(op.command.name);
    EXPECT_TRUE(help.find(head + " ") != std::string::npos ||
                help.find(head + "\n") != std::string::npos)
        << head;
  }
  // Entries the hand-kept help text used to miss.
  for (const char* line :
       {"cskip|wmul", "glitch <netlist> <tech> [--vectors N] [--seed N]",
        "faults <netlist> [--vectors N] [--seed N]",
        "sizing <netlist> <tech> [--vdd X]", "[--alpha X | --activity FILE]",
        "default 0.25", "serve (--socket S | --port N)", "--cache-max-bytes"})
    EXPECT_NE(help.find(line), std::string::npos) << line;
}
