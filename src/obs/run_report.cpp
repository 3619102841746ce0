#include "obs/run_report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/json.hpp"

namespace lv::obs {

namespace {

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Tiny structured emitter: tracks indentation and comma placement so the
// writer code stays declarative.
class Json {
 public:
  explicit Json(bool pretty) : pretty_{pretty} {}

  void open_object(const std::string& key = {}) { open(key, '{'); }
  void open_array(const std::string& key = {}) { open(key, '['); }
  void close_object() { close('}'); }
  void close_array() { close(']'); }

  void field(const std::string& key, const std::string& raw_value) {
    comma();
    newline_indent();
    out_ << '"' << util::json_escape(key) << "\":" << (pretty_ ? " " : "")
         << raw_value;
    need_comma_ = true;
  }
  void element(const std::string& raw_value) {
    comma();
    newline_indent();
    out_ << raw_value;
    need_comma_ = true;
  }

  std::string str() const { return out_.str() + (pretty_ ? "\n" : ""); }

 private:
  void open(const std::string& key, char brace) {
    comma();
    newline_indent();
    if (!key.empty())
      out_ << '"' << util::json_escape(key) << "\":" << (pretty_ ? " " : "");
    out_ << brace;
    ++depth_;
    need_comma_ = false;
  }
  void close(char brace) {
    --depth_;
    need_comma_ = false;
    newline_indent();
    out_ << brace;
    need_comma_ = true;
  }
  void comma() {
    if (need_comma_) out_ << ',';
  }
  void newline_indent() {
    if (!pretty_ || first_) {
      first_ = false;
      return;
    }
    out_ << '\n';
    for (int i = 0; i < depth_ * 2; ++i) out_ << ' ';
  }

  std::ostringstream out_;
  bool pretty_;
  bool first_ = true;
  bool need_comma_ = false;
  int depth_ = 0;
};

void emit_counter_map(Json& j, const std::string& key,
                      const std::map<std::string, std::uint64_t>& map) {
  j.open_object(key);
  for (const auto& [name, value] : map) j.field(name, std::to_string(value));
  j.close_object();
}

}  // namespace

std::string RunReport::to_json(bool pretty) const {
  Json j{pretty};
  j.open_object();
  j.field("schema", "\"lv-run-report/1\"");
  emit_counter_map(j, "counters", counters);
  emit_counter_map(j, "scheduling_counters", scheduling_counters);
  j.open_object("gauges");
  for (const auto& [name, value] : gauges) j.field(name, json_double(value));
  j.close_object();
  j.open_object("timers");
  for (const auto& [name, t] : timers) {
    j.open_object(name);
    j.field("calls", std::to_string(t.calls));
    j.field("total_ns", std::to_string(t.total_ns));
    j.close_object();
  }
  j.close_object();
  j.open_object("histograms");
  for (const auto& [name, h] : histograms) {
    j.open_object(name);
    j.field("lo", json_double(h.lo));
    j.field("hi", json_double(h.hi));
    j.field("underflow", std::to_string(h.underflow));
    j.field("overflow", std::to_string(h.overflow));
    j.field("total", std::to_string(h.total));
    j.open_array("counts");
    for (const auto c : h.counts) j.element(std::to_string(c));
    j.close_array();
    j.close_object();
  }
  j.close_object();
  j.close_object();
  return j.str();
}

std::string RunReport::to_text() const {
  std::ostringstream out;
  out << "run metrics (lv::obs)\n";
  auto section = [&](const char* title,
                     const std::map<std::string, std::uint64_t>& map) {
    if (map.empty()) return;
    out << "-- " << title << " --\n";
    for (const auto& [name, value] : map)
      out << "  " << name << " = " << value << '\n';
  };
  section("counters (deterministic)", counters);
  section("scheduling counters", scheduling_counters);
  if (!gauges.empty()) {
    out << "-- gauges --\n";
    for (const auto& [name, value] : gauges)
      out << "  " << name << " = " << json_double(value) << '\n';
  }
  if (!timers.empty()) {
    out << "-- timers --\n";
    for (const auto& [name, t] : timers)
      out << "  " << name << " = " << t.calls << " calls, "
          << static_cast<double>(t.total_ns) * 1e-6 << " ms\n";
  }
  if (!histograms.empty()) {
    out << "-- histograms --\n";
    for (const auto& [name, h] : histograms) {
      out << "  " << name << " [" << json_double(h.lo) << ", "
          << json_double(h.hi) << "): total " << h.total << ", underflow "
          << h.underflow << ", overflow " << h.overflow << ", bins";
      for (const auto c : h.counts) out << ' ' << c;
      out << '\n';
    }
  }
  return out.str();
}

}  // namespace lv::obs
