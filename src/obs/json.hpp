// Minimal byte-stable JSON emission helpers shared by the obs sinks and the
// bench `--json` writers.
//
// Doubles use %.17g — enough digits to round-trip any IEEE double — so a
// deterministic (same-seed discrete_event) run serializes to a
// byte-identical file. NaN and ±Inf have no JSON spelling; they are written
// as null so the document stays valid JSON.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace teamnet::obs {

inline std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace teamnet::obs
