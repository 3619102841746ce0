// perfbench_trace — the traced run of the repository benchmark.
//
//   perfbench_trace <plan> <metrics-out.json> <trace-out.json>
//
// Replays the scenarios of one benchmark run in-process, calling each
// layer's public functions in the order the lvtool handlers call them,
// with benchmark-side spans around the calls. The plan is written by
// run.py from the same seed as the untraced run; paths in it are relative
// to the working directory. Spans (name, start, end, parent, run id) are
// kept in memory and written at exit as Chrome trace-event JSON; the
// per-layer figures go to a flat JSON object of name -> number.
//
// Plan lines (whitespace separated):
//   design <kind> <width> <file>            generated netlist
//   activity <name> <file> <vectors> <seed> <vdd>...
//   fault <name> <file> <vectors> <seed>
//   reconnect <m>                           new session every m requests
//   request <op> <args...>                  one explore_serve request
//   incremental <base-file> <revision-file>
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis_context.hpp"
#include "check/diag.hpp"
#include "check/ingest.hpp"
#include "circuit/generators.hpp"
#include "circuit/netlist_io.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "opt/dual_vt.hpp"
#include "opt/voltage_opt.hpp"
#include "power/estimator.hpp"
#include "profile/profiler.hpp"
#include "sim/activity_io.hpp"
#include "sim/fault.hpp"
#include "sim/graph_delta.hpp"
#include "sim/graph_io.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "store/artifact_store.hpp"
#include "store/design_codec.hpp"
#include "store/hash.hpp"
#include "svc/handlers.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "tech/process.hpp"
#include "timing/delay_model.hpp"
#include "timing/path_enum.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"
#include "workloads/idea.hpp"
#include "workloads/kernels.hpp"

namespace {

namespace c = lv::circuit;
namespace chk = lv::check;
using Clock = std::chrono::steady_clock;

// ---- spans ------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::string run_id;
};

class Tracer {
 public:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  int open(const std::string& name, const std::string& run_id) {
    spans_.push_back({name, now(), 0, current_, run_id});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time: duration minus the part covered by direct children.
  std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    return self;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

Tracer g_tracer;
std::string g_run_id = "setup";

class Scope {
 public:
  explicit Scope(const std::string& name)
      : id_{g_tracer.open(name, g_run_id)} {}
  ~Scope() { g_tracer.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  double ms() const {
    return static_cast<double>(g_tracer.now() -
                               g_tracer.spans()[static_cast<std::size_t>(id_)]
                                   .start_ns) /
           1e6;
  }

 private:
  int id_;
};

template <typename F>
auto spanned(const std::string& name, F&& f) {
  Scope scope{name};
  return f();
}

// ---- helpers ----------------------------------------------------------

std::map<std::string, double> g_metrics;

std::string read_text(const std::string& path) { return chk::read_file(path); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void build_design(c::Netlist& nl, const std::string& kind, int width) {
  if (kind == "rca") c::build_ripple_carry_adder(nl, width);
  else if (kind == "cla") c::build_carry_lookahead_adder(nl, width);
  else if (kind == "csel") c::build_carry_select_adder(nl, width);
  else if (kind == "ks") c::build_kogge_stone_adder(nl, width);
  else if (kind == "mul") c::build_array_multiplier(nl, width);
  else if (kind == "wmul") c::build_wallace_multiplier(nl, width);
  else if (kind == "shifter") c::build_barrel_shifter(nl, width);
  else if (kind == "alu") c::build_alu(nl, width);
  else throw std::runtime_error("unknown generator " + kind);
}

lv::tech::Process builtin_process(const std::string& name) {
  if (name == "soias") return lv::tech::soias();
  if (name == "soi_low_vt") return lv::tech::soi_low_vt();
  if (name == "dual_vt_mtcmos") return lv::tech::dual_vt_mtcmos();
  if (name == "bulk_cmos_06um") return lv::tech::bulk_cmos_06um();
  if (name == "bulk_body_bias") return lv::tech::bulk_body_bias();
  throw std::runtime_error("unknown process " + name);
}

lv::workloads::Workload isa_workload(const std::string& name, int blocks) {
  namespace w = lv::workloads;
  if (name == "espresso") return w::espresso_workload();
  if (name == "li") return w::li_workload();
  if (name == "idea") return w::idea_workload(blocks);
  if (name == "fir") return w::fir_workload();
  if (name == "crc32") return w::crc32_workload();
  if (name == "sort") return w::sort_workload();
  if (name == "matmul") return w::matmul_workload();
  return w::strsearch_workload();
}

std::uint64_t counter(const char* name) {
  return lv::obs::Registry::global().counter(name).value();
}

// Random-stimulus scalar simulation, as op_simulate runs it.
void simulate(lv::sim::Simulator& sim, const c::Netlist& nl,
              std::size_t vectors, std::uint64_t seed) {
  const c::Bus inputs = nl.primary_inputs();
  sim.set_bus(inputs, 0);
  sim.settle();
  sim.clear_stats();
  for (const auto v : lv::sim::random_vectors(
           vectors, static_cast<int>(inputs.size()), seed)) {
    sim.set_bus(inputs, v);
    sim.settle();
  }
}

struct MeanAcc {
  double sum = 0;
  std::size_t n = 0;
  void add(double v) { sum += v; ++n; }
  double mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    v.push_back(seconds_since(t0) * 1e3);
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---- plan -------------------------------------------------------------

struct Plan {
  std::vector<std::vector<std::string>> designs, activity, fault, requests,
      incremental;
  std::size_t reconnect = 50;
};

Plan read_plan(const std::string& path) {
  Plan plan;
  std::istringstream in{read_text(path)};
  for (std::string line; std::getline(in, line);) {
    std::istringstream words{line};
    std::vector<std::string> t;
    for (std::string w; words >> w;) t.push_back(w);
    if (t.empty()) continue;
    const std::string kind = t.front();
    t.erase(t.begin());
    if (kind == "design") plan.designs.push_back(t);
    else if (kind == "activity") plan.activity.push_back(t);
    else if (kind == "fault") plan.fault.push_back(t);
    else if (kind == "request") plan.requests.push_back(t);
    else if (kind == "incremental") plan.incremental.push_back(t);
    else if (kind == "reconnect") plan.reconnect = std::stoul(t.at(0));
    else throw std::runtime_error("bad plan line: " + line);
  }
  return plan;
}

// ---- activity_extract ---------------------------------------------------

void run_activity(const Plan& plan) {
  for (const auto& a : plan.activity) {
    const std::string& name = a.at(0);
    const std::string text = read_text(a.at(1));
    const std::size_t vectors = std::stoul(a.at(2));
    const std::uint64_t seed = std::stoull(a.at(3));
    std::string activity_text;
    {
      g_run_id = "activity_extract/simulate/" + name;
      Scope op{"op.simulate"};
      const c::Netlist nl =
          spanned("check.ingest", [&] { return chk::require_netlist(text); });
      const auto graph = spanned("sim.compile", [&] {
        return std::make_shared<const lv::sim::SimGraph>(nl);
      });
      lv::obs::Registry::global().reset();
      lv::sim::Simulator sim{graph};
      double kernel_ms = 0;
      {
        Scope kernel{"sim.kernel"};
        simulate(sim, nl, vectors, seed);
        kernel_ms = kernel.ms();
      }
      const double events =
          static_cast<double>(counter("sim.events_processed"));
      const double cycles = static_cast<double>(counter("sim.cycles"));
      const double transitions =
          static_cast<double>(counter("sim.transitions"));
      g_metrics["sim.ns_per_vector." + name] =
          kernel_ms * 1e6 / static_cast<double>(vectors);
      g_metrics["sim.ns_per_event." + name] =
          events > 0 ? kernel_ms * 1e6 / events : 0.0;
      g_metrics["sim.events_per_vector." + name] =
          cycles > 0 ? events / cycles : 0.0;
      g_metrics["sim.glitch_share." + name] =
          transitions > 0
              ? static_cast<double>(counter("sim.glitches")) / transitions
              : 0.0;
      g_metrics["sim.queue_hwm." + name] =
          lv::obs::Registry::global().gauge("sim.queue_depth_hwm").value();
      activity_text = spanned("sim.activity_render", [&] {
        return lv::sim::to_activity_text(nl, sim.stats());
      });
    }
    const lv::tech::Process tech = lv::tech::soias();
    for (std::size_t i = 4; i < a.size(); ++i) {
      g_run_id = "activity_extract/power/" + name + "@" + a[i];
      Scope op{"op.power"};
      const c::Netlist nl =
          spanned("check.ingest", [&] { return chk::require_netlist(text); });
      const auto stats = spanned("check.activity_ingest", [&] {
        return chk::require_activity(nl, activity_text);
      });
      lv::power::OperatingPoint point;
      point.vdd = std::stod(a[i]);
      const lv::analysis::AnalysisContext actx = spanned(
          "analysis.context",
          [&] { return lv::analysis::AnalysisContext{nl, tech, point}; });
      spanned("power.estimate", [&] {
        return lv::power::PowerEstimator{actx}.estimate(stats).total();
      });
    }
  }
}

// ---- fault_grade ----------------------------------------------------------

double busy_ns() {
  double total = 0;
  for (std::size_t id = 0; id < 4; ++id)
    total += static_cast<double>(
        lv::obs::Registry::global()
            .timer("exec.worker." + std::to_string(id) + ".busy")
            .total_ns());
  return total;
}

void run_fault(const Plan& plan) {
  double busy = 0, wall4 = 0, chunks = 0;
  for (const auto& f : plan.fault) {
    const std::string& name = f.at(0);
    const std::string text = read_text(f.at(1));
    const std::size_t vectors = std::stoul(f.at(2));
    const std::uint64_t seed = std::stoull(f.at(3));
    c::Netlist nl;
    std::vector<std::uint64_t> vecs;
    {
      g_run_id = "fault_grade/faults/" + name;
      Scope op{"op.faults"};
      nl = spanned("check.ingest", [&] { return chk::require_netlist(text); });
      vecs = lv::sim::random_vectors(
          vectors, static_cast<int>(nl.primary_inputs().size()), seed);
      lv::exec::set_thread_count(4);
      lv::obs::Registry::global().reset();
      Scope grade{"sim.fault"};
      lv::sim::fault_coverage(nl, vecs);
      const double ms = grade.ms();
      g_metrics["sim.fault_ms." + name] = ms;
      g_metrics["sim.fault_word_events." + name] =
          static_cast<double>(counter("sim.word_events_processed"));
      busy += busy_ns();
      wall4 += ms * 1e6;
      chunks += static_cast<double>(counter("exec.pool.chunks_claimed"));
    }
    // Width 1, outside any workload operation: the scaling reference.
    g_run_id = "probe/fault_width1/" + name;
    lv::exec::set_thread_count(1);
    Scope serial{"sim.fault_width1"};
    lv::sim::fault_coverage(nl, vecs);
    g_metrics["exec.speedup_t4." + name] =
        serial.ms() / g_metrics["sim.fault_ms." + name];
  }
  lv::exec::set_thread_count(4);
  g_metrics["exec.busy_share"] = wall4 > 0 ? busy / (4.0 * wall4) : 0.0;
  g_metrics["exec.chunks_claimed"] = chunks;
}

// ---- explore_serve ----------------------------------------------------------

struct Design {
  c::Netlist netlist;
  std::string text;
  lv::store::Key128 key{};
  lv::store::Key128 shape{};
  std::shared_ptr<const lv::sim::SimGraph> graph;
  std::shared_ptr<const Design> base;  // incremental base, one shot
};

// svc::Session::netlist, find_base, memo_blob/merge_memo_blob and
// Design::graph, step for step, with spans around each layer call. The
// session's own store traffic is compared with this one's (store.hits,
// misses, writes; parses; incremental recompiles) over the same plan, so
// the two cannot drift apart unnoticed.
class SessionModel {
 public:
  // `parses` counts parser runs across the sessions of one replay.
  SessionModel(lv::store::ArtifactStore& store, std::uint64_t& parses)
      : store_{store}, parses_{parses} {}

  std::shared_ptr<Design> design(const std::string& text) {
    if (const auto it = designs_.find(text); it != designs_.end())
      return it->second;
    const auto key = lv::store::design_key(text);
    if (auto d = from_store(text, key)) return insert(std::move(d));
    auto d = std::make_shared<Design>();
    d->netlist =
        spanned("check.ingest", [&] { return chk::require_netlist(text); });
    ++parses_;
    d->text = text;
    d->key = key;
    d->shape = lv::store::shape_key(d->netlist);
    spanned("store.put", [&] {
      return store_.put("design", key,
                        lv::store::encode_design(text, d->netlist, nullptr),
                        lv::store::to_hex(d->shape));
    });
    d->base = find_base(key, d->shape);
    return insert(std::move(d));
  }

  std::shared_ptr<const lv::sim::SimGraph> graph(Design& d) {
    if (d.graph != nullptr) return d.graph;
    if (d.base != nullptr) {
      if (d.base->graph != nullptr) {
        Scope incr{"sim.incremental"};
        d.graph = lv::sim::recompile_incremental(
            *d.base->graph, d.netlist,
            lv::sim::diff_netlists(d.base->netlist, d.netlist));
      }
      d.base.reset();
    }
    if (d.graph == nullptr)
      d.graph = spanned("sim.compile", [&] {
        return std::make_shared<const lv::sim::SimGraph>(d.netlist);
      });
    spanned("store.put", [&] {
      return store_.put("design", d.key,
                        lv::store::encode_design(d.text, d.netlist,
                                                 d.graph.get()),
                        lv::store::to_hex(d.shape));
    });
    return d.graph;
  }

  // The device-model memo bank of one builtin process.
  std::string memo_blob(const std::string& process) {
    if (const auto it = memos_.find(process); it != memos_.end())
      return it->second;
    const auto payload = spanned("store.get", [&] {
      return store_.get("memos", memo_key(process));
    });
    if (!payload) return {};
    std::string& slot = memos_[process];
    if (slot.size() < payload->size()) slot = *payload;
    return slot;
  }

  void merge_memo_blob(const std::string& process, std::string blob) {
    if (blob.empty()) return;
    std::string& slot = memos_[process];
    if (blob.size() <= slot.size()) return;
    slot = std::move(blob);
    spanned("store.put",
            [&] { return store_.put("memos", memo_key(process), slot); });
  }

 private:
  std::shared_ptr<Design> from_store(const std::string& text,
                                     const lv::store::Key128& key) {
    const auto payload =
        spanned("store.get", [&] { return store_.get("design", key); });
    if (!payload) return nullptr;
    auto decoded = spanned(
        "store.decode", [&] { return lv::store::decode_design(*payload); });
    if (!decoded || decoded->text != text) {
      store_.remove("design", key);
      return nullptr;
    }
    auto d = std::make_shared<Design>();
    d->netlist = std::move(decoded->netlist);
    d->text = text;
    d->key = key;
    d->shape = lv::store::shape_key(d->netlist);
    if (!decoded->graph_blob.empty()) {
      Scope decode{"store.decode"};
      try {
        d->graph = lv::sim::decode_graph(d->netlist, decoded->graph_blob);
      } catch (const lv::util::Error&) {
      }
    }
    return d;
  }

  std::shared_ptr<const Design> find_base(const lv::store::Key128& key,
                                          const lv::store::Key128& shape) {
    const std::string shape_hex = lv::store::to_hex(shape);
    if (const auto it = by_shape_.find(shape_hex); it != by_shape_.end())
      if (auto base = it->second.lock()) return base;
    const auto siblings = spanned("store.group_keys", [&] {
      return store_.group_keys("design", shape_hex);
    });
    for (const lv::store::Key128& sibling : siblings) {
      if (sibling == key) continue;
      const auto payload = spanned(
          "store.get", [&] { return store_.get("design", sibling); });
      if (!payload) continue;
      Scope decode{"store.decode"};
      auto decoded = lv::store::decode_design(*payload);
      if (!decoded || decoded->graph_blob.empty()) continue;
      auto base = std::make_shared<Design>();
      base->netlist = std::move(decoded->netlist);
      base->text = std::move(decoded->text);
      try {
        base->graph = lv::sim::decode_graph(base->netlist, decoded->graph_blob);
      } catch (const lv::util::Error&) {
        continue;
      }
      return base;
    }
    return nullptr;
  }

  std::shared_ptr<Design> insert(std::shared_ptr<Design> d) {
    designs_[d->text] = d;
    by_shape_[lv::store::to_hex(d->shape)] = d;
    return d;
  }

  // svc's process_memo_key for a builtin process.
  static lv::store::Key128 memo_key(const std::string& process) {
    static const std::string version = [] {
      const std::string banner = lv::svc::version_text();
      const auto start = banner.find(' ') + 1;
      return banner.substr(start, banner.find('\n') - start);
    }();
    lv::store::FieldHasher h;
    h.field("lv-memos/1").field(version).field("builtin:" + process);
    return h.digest();
  }

  lv::store::ArtifactStore& store_;
  std::uint64_t& parses_;
  std::map<std::string, std::string> memos_;
  std::map<std::string, std::shared_ptr<Design>> designs_;
  std::map<std::string, std::weak_ptr<const Design>> by_shape_;
};

lv::svc::Params to_params(const std::vector<std::string>& request) {
  std::vector<std::string> argv_store(request.begin(), request.end());
  std::vector<char*> argv;
  for (auto& s : argv_store) argv.push_back(s.data());
  return lv::svc::parse_params(static_cast<int>(argv.size()), argv.data(), 1);
}

void serve_request(SessionModel& session, const std::vector<std::string>& rq,
                   std::map<std::string, std::string>& files) {
  const std::string& op = rq.at(0);
  const lv::svc::Params p = to_params(rq);
  auto text_of = [&](const std::string& path) -> const std::string& {
    auto it = files.find(path);
    if (it == files.end()) it = files.emplace(path, read_text(path)).first;
    return it->second;
  };
  Scope span{"op." + op};
  if (op == "optimize-vt") {
    const lv::tech::Process tech = builtin_process(p.positional.at(0));
    const lv::timing::RingOscillator ring{101};
    spanned("opt.optimize_vt", [&] {
      return lv::opt::optimize_vt(tech, ring, p.number("--fclk", 5e6),
                                  p.number("--activity", 1.0), 0.05, 0.55, 26);
    });
    return;
  }
  if (op == "profile") {
    const auto workload = isa_workload(p.positional.at(0),
                                       static_cast<int>(p.number("--blocks", 16)));
    spanned("profile.run", [&] {
      lv::profile::ActivityProfiler profiler{
          lv::profile::UnitMap::standard(),
          static_cast<std::uint64_t>(p.number("--gap", 0))};
      lv::workloads::run_workload(workload, {&profiler});
      return profiler.report().to_ascii();
    });
    return;
  }
  const std::string& text = text_of(p.positional.at(0));
  if (op == "check") {
    spanned("check.validate", [&] {
      chk::DiagSink sink;
      return chk::load_netlist_text(text, sink, p.positional[0]).has_value();
    });
    return;
  }
  const auto design = session.design(text);
  const c::Netlist& nl = design->netlist;
  if (op == "simulate") {
    lv::sim::Simulator sim{session.graph(*design)};
    spanned("sim.kernel", [&] {
      simulate(sim, nl, static_cast<std::size_t>(p.number("--vectors", 1000)),
               static_cast<std::uint64_t>(p.number("--seed", 1)));
      return 0;
    });
    return;
  }
  const lv::tech::Process tech = builtin_process(p.positional.at(1));
  const double vdd = p.number("--vdd", tech.vdd_nominal);
  if (op == "power") {
    lv::power::OperatingPoint point;
    point.vdd = vdd;
    point.f_clk = p.number("--fclk", 50e6);
    const lv::analysis::AnalysisContext actx =
        spanned("analysis.context", [&] {
          lv::analysis::AnalysisContext ctx{nl, tech, point};
          ctx.import_memos(session.memo_blob(p.positional[1]));
          return ctx;
        });
    spanned("power.estimate", [&] {
      return lv::power::PowerEstimator{actx}
          .estimate_uniform(p.number("--alpha", 0.25))
          .total();
    });
    session.merge_memo_blob(p.positional[1], actx.export_memos());
  } else if (op == "timing") {
    const lv::analysis::AnalysisContext actx =
        spanned("analysis.context", [&] {
          lv::analysis::AnalysisContext ctx{
              nl, tech, lv::analysis::OperatingPoint{.vdd = vdd}};
          ctx.import_memos(session.memo_blob(p.positional[1]));
          return ctx;
        });
    spanned("timing.sta",
            [&] { return lv::timing::Sta{actx}.run(1.0).critical_delay; });
    session.merge_memo_blob(p.positional[1], actx.export_memos());
  } else if (op == "paths") {
    const auto sta = spanned("timing.sta", [&] {
      return lv::timing::Sta{nl, tech, vdd}.run(1.0);
    });
    spanned("timing.paths", [&] {
      return lv::timing::enumerate_critical_paths(
                 nl, sta, static_cast<int>(p.number("--k", 5)))
          .size();
    });
  } else if (op == "dualvt") {
    spanned("opt.dual_vt", [&] {
      return lv::opt::assign_dual_vt(nl, tech, vdd,
                                     p.number("--margin", 0.05))
          .high_vt_count;
    });
  } else {
    throw std::runtime_error("no traced model for op " + op);
  }
}

// Store traffic of one replay, for the model-vs-session comparison.
void record_traffic(const std::string& prefix, std::uint64_t parses) {
  for (const char* name : {"store.hits", "store.misses", "store.writes",
                           "sim.incremental_recompiles"})
    g_metrics[prefix + name] = static_cast<double>(counter(name));
  g_metrics[prefix + "parses"] = static_cast<double>(parses);
}

void run_serve(const Plan& plan, const std::filesystem::path& store_dir) {
  std::filesystem::remove_all(store_dir);
  lv::store::ArtifactStore store{lv::store::StoreOptions{store_dir, 0}};
  std::map<std::string, std::string> files;
  std::unique_ptr<SessionModel> session;
  std::uint64_t parses = 0;
  lv::obs::Registry::global().reset();
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    if (i % plan.reconnect == 0)
      session = std::make_unique<SessionModel>(store, parses);
    g_run_id = "explore_serve/" + std::to_string(i);
    serve_request(*session, plan.requests[i], files);
  }
  record_traffic("aux.model.", parses);
}

// The same request stream through the real handler path, per op, over a
// fresh store of its own.
void run_handlers(const Plan& plan, const std::filesystem::path& store_dir) {
  std::filesystem::remove_all(store_dir);
  lv::store::ArtifactStore store{lv::store::StoreOptions{store_dir, 0}};
  std::map<std::string, MeanAcc> per_op;
  std::unique_ptr<lv::svc::Session> session;
  std::map<std::string, std::string> files;
  lv::obs::Registry::global().reset();
  for (std::size_t i = 0; i < plan.requests.size(); ++i) {
    if (i % plan.reconnect == 0)
      session = std::make_unique<lv::svc::Session>(
          0, lv::svc::Session::Options{&store});
    const auto& rq = plan.requests[i];
    lv::svc::Request request;
    request.op = rq.at(0);
    request.params = to_params(rq);
    if (const auto* spec = lv::svc::find_op(request.op))
      for (const auto& input : spec->inputs) {
        if (input.positional < 0 || std::string_view{input.role} == "tech")
          continue;
        const auto& path =
            request.params.positional.at(static_cast<std::size_t>(
                input.positional));
        auto it = files.find(path);
        if (it == files.end()) it = files.emplace(path, read_text(path)).first;
        request.inputs[input.role] = it->second;
      }
    lv::svc::ServiceContext ctx{*session};
    const auto t0 = Clock::now();
    const auto response = lv::svc::run_request(ctx, request);
    per_op[request.op].add(seconds_since(t0) * 1e3);
    if (response.exit_code != 0)
      throw std::runtime_error("handler failed: " + request.op + ": " +
                               response.err);
  }
  record_traffic("aux.session.", counter("svc.netlist_parses"));
  for (const auto& [op, acc] : per_op)
    g_metrics["svc.handler_ms." + op] = acc.mean();
  lv::svc::Session version_session{0};
  lv::svc::ServiceContext ctx{version_session};
  lv::svc::Request version;
  version.op = "version";
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    lv::svc::run_request(ctx, version);
    us.push_back(seconds_since(t0) * 1e6);
  }
  std::sort(us.begin(), us.end());
  g_metrics["aux.version_inproc_us"] = us[us.size() / 2];
}

// ---- single-layer probes ----------------------------------------------------

void run_probes(const Plan& plan) {
  g_run_id = "probe";
  MeanAcc gen, parse, retarget;
  for (const auto& d : plan.designs) {
    gen.add(median_ms(3, [&] {
      c::Netlist nl;
      build_design(nl, d.at(0), std::stoi(d.at(1)));
    }));
    const std::string text = read_text(d.at(2));
    parse.add(median_ms(3, [&] { c::parse_netlist_text(text); }));
    const c::Netlist nl = c::parse_netlist_text(text);
    const lv::tech::Process tech = lv::tech::soias();
    lv::analysis::AnalysisContext actx{nl, tech, {}};
    std::vector<double> us;
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      actx.set_operating_point({.vdd = 0.5 + 0.05 * i});
      us.push_back(seconds_since(t0) * 1e6);
    }
    std::sort(us.begin(), us.end());
    retarget.add(us[us.size() / 2]);
  }
  g_metrics["circuit.gen_ms"] = gen.mean();
  g_metrics["circuit.parse_ms"] = parse.mean();
  g_metrics["analysis.retarget_us"] = retarget.mean();

  MeanAcc incremental;
  double full_sum = 0, incr_sum = 0;
  for (const auto& pair : plan.incremental) {
    const c::Netlist base = c::parse_netlist_text(read_text(pair.at(0)));
    const c::Netlist edited = c::parse_netlist_text(read_text(pair.at(1)));
    const lv::sim::SimGraph base_graph{base};
    const double full = median_ms(5, [&] { lv::sim::SimGraph g{edited}; });
    const double incr = median_ms(5, [&] {
      if (!lv::sim::recompile_incremental(
              base_graph, edited, lv::sim::diff_netlists(base, edited)))
        throw std::runtime_error("revision not incrementally applicable: " +
                                 pair.at(1));
    });
    incremental.add(incr);
    full_sum += full;
    incr_sum += incr;
  }
  g_metrics["sim.incremental_ms"] = incremental.mean();
  g_metrics["sim.incremental_speedup"] = incr_sum > 0 ? full_sum / incr_sum : 0;
}

// ---- output -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void summarize_spans() {
  const auto& spans = g_tracer.spans();
  const auto self = g_tracer.self_times();
  std::map<std::string, MeanAcc> by_name;
  // Per workload (the run id up to its first '/'): the time of its op.*
  // spans, and the self time of the layer spans inside them.
  std::map<std::string, double> op_ns, layer_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_name[s.name].add(static_cast<double>(s.end_ns - s.start_ns));
    const std::string workload = s.run_id.substr(0, s.run_id.find('/'));
    if (s.name.rfind("op.", 0) == 0)
      op_ns[workload] += static_cast<double>(s.end_ns - s.start_ns);
    else if (s.parent >= 0)
      layer_ns[workload] += static_cast<double>(self[i]);
  }
  for (const auto& [workload, ns] : op_ns) {
    g_metrics["trace.attributed_share." + workload] =
        layer_ns[workload] / ns;
    g_metrics["aux.op_ms." + workload] = ns / 1e6;
  }
  const auto mean_ns = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.mean();
  };
  g_metrics["check.ingest_ms"] = mean_ns("check.ingest") / 1e6;
  g_metrics["store.get_ms"] = mean_ns("store.get") / 1e6;
  g_metrics["store.put_ms"] = mean_ns("store.put") / 1e6;
  g_metrics["store.decode_ms"] = mean_ns("store.decode") / 1e6;
  g_metrics["sim.compile_ms"] = mean_ns("sim.compile") / 1e6;
  g_metrics["analysis.context_ms"] = mean_ns("analysis.context") / 1e6;
  g_metrics["power.estimate_us"] = mean_ns("power.estimate") / 1e3;
  g_metrics["timing.sta_ms"] = mean_ns("timing.sta") / 1e6;
  g_metrics["opt.optimize_vt_ms"] = mean_ns("opt.optimize_vt") / 1e6;
  g_metrics["opt.dual_vt_ms"] = mean_ns("opt.dual_vt") / 1e6;
  g_metrics["profile.run_ms"] = mean_ns("profile.run") / 1e6;
}

void write_outputs(const std::string& metrics_path,
                   const std::string& trace_path) {
  std::ofstream metrics{metrics_path};
  metrics << "{";
  const char* sep = "\n";
  for (const auto& [name, value] : g_metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    metrics << sep << "  \"" << json_escape(name) << "\": " << buf;
    sep = ",\n";
  }
  metrics << "\n}\n";

  std::ofstream trace{trace_path};
  trace << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const auto& spans = g_tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    trace << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
          << json_escape(s.name) << "\", \"ph\": \"X\", " << buf
          << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span\": " << i
          << ", \"parent\": " << s.parent << ", \"run_id\": \""
          << json_escape(s.run_id) << "\"}}";
  }
  trace << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: perfbench_trace <plan> <metrics.json> <trace.json>\n");
    return 2;
  }
  try {
    lv::obs::set_enabled(true);
    const Plan plan = read_plan(argv[1]);
    run_probes(plan);
    run_activity(plan);
    run_fault(plan);
    const auto out_dir = std::filesystem::path{argv[2]}.parent_path();
    run_serve(plan, out_dir / "trace_store");
    run_handlers(plan, out_dir / "handler_store");
    summarize_spans();
    write_outputs(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
