#include <cmath>
#include <string>

#include "check/codes.hpp"
#include "check/validate.hpp"

namespace lv::check {

void validate(const tech::Process& process, DiagSink& sink) {
  process.visit_rules([&sink](const char* code, std::string message) {
    sink.error(code, std::move(message));
  });
  const double t = process.temp_k;
  if (std::isfinite(t) && t > 0.0 && (t < 150.0 || t > 500.0))
    sink.warning(codes::tech_range,
                 "temp_k = " + std::to_string(t) +
                     " K is outside the calibrated 150-500 K range");
}

}  // namespace lv::check
