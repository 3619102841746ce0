#include "check/ingest.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "check/codes.hpp"
#include "circuit/netlist_io.hpp"
#include "sim/activity_io.hpp"
#include "tech/techfile.hpp"

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
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw InputError(codes::io_open, "cannot open '" + path + "'", {path, 0});
  // Sized from the file, plus one byte so the read that meets end of
  // file needs no growth: a regular file takes one read() and the EOF
  // read. A pipe or a file that grows takes the doubling below.
  struct stat st {};
  std::string text(
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size) + 1
          : std::size_t{4096},
      '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == text.size()) text.resize(2 * size);
    const ssize_t n = ::read(fd, text.data() + size, text.size() - size);
    if (n > 0) {
      size += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      throw InputError(codes::io_open, "error reading '" + path + "'",
                       {path, 0});
    }
  }
  ::close(fd);
  text.resize(size);
  return text;
}

std::optional<tech::Process> load_techfile_text(std::string_view text,
                                                DiagSink& sink,
                                                const std::string& filename) {
  sink.set_context_file(filename);
  auto parsed = collect(sink, codes::tech_syntax, [&] {
    return tech::parse_techfile(text, /*validate=*/false);
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
    return circuit::parse_netlist_text(text, /*validate=*/false);
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
