// Minimal leveled logger. Output goes to stderr so bench tables on stdout
// stay machine-parsable. Level is a process-wide atomic; default Warn keeps
// tests quiet, benches raise it to Info for progress reporting, and the
// TEAMNET_LOG_LEVEL environment variable (debug|info|warn|error|off)
// overrides the initial threshold without touching code.
#pragma once

#include <atomic>
#include <ostream>
#include <sstream>
#include <string>

namespace teamnet::log {

enum class Level : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Returns the mutable process-wide minimum level. First call seeds it
/// from TEAMNET_LOG_LEVEL when set to a recognized name, else Warn.
std::atomic<Level>& threshold();

/// Parses "debug"/"info"/"warn"/"error"/"off" (case-insensitive).
/// Returns false (leaving `out` untouched) on anything else.
bool parse_level(const std::string& name, Level* out);

/// Sets the process-wide minimum level.
void set_level(Level level);

/// True when messages at `level` are currently emitted.
bool enabled(Level level);

/// Structured key=value fields for machine-grepable log lines. Streams as
/// space-separated `key=value` pairs in insertion order:
///
///   LOG_WARN("trace buffer saturated "
///            << log::Fields().kv("track", id).kv("dropped", n));
///
/// String values containing whitespace or '=' are double-quoted so the
/// line stays unambiguous to split.
class Fields {
 public:
  Fields& kv(const char* key, const std::string& value);
  Fields& kv(const char* key, const char* value) {
    return kv(key, std::string(value));
  }
  Fields& kv(const char* key, long long value);
  Fields& kv(const char* key, unsigned long long value);
  Fields& kv(const char* key, int value) {
    return kv(key, static_cast<long long>(value));
  }
  Fields& kv(const char* key, long value) {
    return kv(key, static_cast<long long>(value));
  }
  Fields& kv(const char* key, unsigned long value) {
    return kv(key, static_cast<unsigned long long>(value));
  }
  Fields& kv(const char* key, double value);
  Fields& kv(const char* key, bool value);

  const std::string& str() const { return body_; }
  friend std::ostream& operator<<(std::ostream& os, const Fields& fields) {
    return os << fields.body_;
  }

 private:
  void append_key(const char* key);
  std::string body_;
};

namespace detail {
void emit(Level level, const std::string& message);
}  // namespace detail

}  // namespace teamnet::log

#define TEAMNET_LOG(level, stream_expr)                                   \
  do {                                                                    \
    if (::teamnet::log::enabled(level)) {                                 \
      std::ostringstream teamnet_log_os_;                                 \
      teamnet_log_os_ << stream_expr;                                     \
      ::teamnet::log::detail::emit(level, teamnet_log_os_.str());         \
    }                                                                     \
  } while (false)

#define LOG_DEBUG(stream_expr) TEAMNET_LOG(::teamnet::log::Level::Debug, stream_expr)
#define LOG_INFO(stream_expr) TEAMNET_LOG(::teamnet::log::Level::Info, stream_expr)
#define LOG_WARN(stream_expr) TEAMNET_LOG(::teamnet::log::Level::Warn, stream_expr)
#define LOG_ERROR(stream_expr) TEAMNET_LOG(::teamnet::log::Level::Error, stream_expr)
