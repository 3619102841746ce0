#include "check/ingest.hpp"

#include <utility>

#include "check/codes.hpp"
#include "circuit/netlist_io.hpp"
#include "sim/activity_io.hpp"
#include "tech/techfile.hpp"
#include "util/file.hpp"

namespace lv::check {

namespace {

// Runs a parse under the sink: coded throws land verbatim, legacy
// util::Error throws (construction invariants not yet coded) land under
// `fallback_code`.
template <typename Fn>
auto collect(DiagSink& sink, const char* fallback_code, Fn&& fn)
    -> std::optional<decltype(fn())> {
  try {
    return fn();
  } catch (const InputError& e) {
    sink.report(e.diag());
  } catch (const util::Error& e) {
    sink.error(fallback_code, e.what());
  }
  return std::nullopt;
}

[[noreturn]] void throw_first_error(const DiagSink& sink,
                                    const char* fallback_code,
                                    const std::string& filename) {
  for (const Diag& d : sink.diags())
    if (d.severity == Severity::error) throw InputError(d);
  // Unreachable in practice: load_* only fails by adding an error.
  throw InputError(fallback_code, "input rejected", {filename, 0});
}

}  // namespace

std::string read_file(const std::string& path) {
  util::ReadFailure failure{};
  if (auto text = util::read_file(path, &failure)) return *std::move(text);
  throw InputError(codes::io_open,
                   (failure == util::ReadFailure::open ? "cannot open '"
                                                       : "error reading '") +
                       path + "'",
                   {path, 0});
}

std::optional<tech::Process> load_techfile_text(std::string_view text,
                                                DiagSink& sink,
                                                const std::string& filename) {
  sink.set_context_file(filename);
  auto parsed = collect(sink, codes::tech_syntax, [&] {
    return tech::parse_techfile(text);
  });
  if (!parsed) return std::nullopt;
  const std::size_t before = sink.error_count();
  validate(*parsed, sink);
  if (sink.error_count() > before) return std::nullopt;
  return parsed;
}

std::optional<circuit::Netlist> load_netlist_text(std::string_view text,
                                                  DiagSink& sink,
                                                  const std::string& filename) {
  sink.set_context_file(filename);
  auto parsed = collect(sink, codes::net_syntax, [&] {
    return circuit::parse_netlist_text(text);
  });
  if (!parsed) return std::nullopt;
  const std::size_t before = sink.error_count();
  validate(*parsed, sink);
  if (sink.error_count() > before) return std::nullopt;
  return parsed;
}

std::optional<sim::ActivityStats> load_activity_text(
    const circuit::Netlist& netlist, std::string_view text, DiagSink& sink,
    const std::string& filename) {
  sink.set_context_file(filename);
  auto parsed = collect(sink, codes::act_syntax, [&] {
    return sim::parse_activity_text(netlist, text);
  });
  if (!parsed) return std::nullopt;
  const std::size_t before = sink.error_count();
  validate(netlist, *parsed, sink);
  if (sink.error_count() > before) return std::nullopt;
  return parsed;
}

tech::Process require_techfile(std::string_view text,
                               const std::string& filename) {
  DiagSink sink;
  if (auto value = load_techfile_text(text, sink, filename))
    return *std::move(value);
  throw_first_error(sink, codes::tech_syntax, filename);
}

circuit::Netlist require_netlist(std::string_view text,
                                 const std::string& filename) {
  DiagSink sink;
  if (auto value = load_netlist_text(text, sink, filename))
    return *std::move(value);
  throw_first_error(sink, codes::net_syntax, filename);
}

sim::ActivityStats require_activity(const circuit::Netlist& netlist,
                                    std::string_view text,
                                    const std::string& filename) {
  DiagSink sink;
  if (auto value = load_activity_text(netlist, text, sink, filename))
    return *std::move(value);
  throw_first_error(sink, codes::act_syntax, filename);
}

}  // namespace lv::check
