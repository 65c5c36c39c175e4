#include "common/logging.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/annotations.hpp"

namespace teamnet::log {

bool parse_level(const std::string& name, Level* out) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (lower == "debug") {
    *out = Level::Debug;
  } else if (lower == "info") {
    *out = Level::Info;
  } else if (lower == "warn" || lower == "warning") {
    *out = Level::Warn;
  } else if (lower == "error") {
    *out = Level::Error;
  } else if (lower == "off" || lower == "none") {
    *out = Level::Off;
  } else {
    return false;
  }
  return true;
}

namespace {

Level initial_threshold() {
  Level level = Level::Warn;
  if (const char* env = std::getenv("TEAMNET_LOG_LEVEL")) {
    if (!parse_level(env, &level)) {
      // Can't log through the not-yet-initialized logger; a bad value
      // falling back to the default is visible enough via this line.
      std::fprintf(stderr,
                   "[   0.000s WARN ] ignoring unrecognized "
                   "TEAMNET_LOG_LEVEL=\"%s\" (want debug|info|warn|error|off)\n",
                   env);
      level = Level::Warn;
    }
  }
  return level;
}

}  // namespace

std::atomic<Level>& threshold() {
  static std::atomic<Level> level{initial_threshold()};
  return level;
}

void set_level(Level level) { threshold().store(level, std::memory_order_relaxed); }

bool enabled(Level level) {
  return static_cast<int>(level) >=
         static_cast<int>(threshold().load(std::memory_order_relaxed));
}

namespace {

const char* level_tag(Level level) {
  switch (level) {
    case Level::Debug: return "DEBUG";
    case Level::Info: return "INFO ";
    case Level::Warn: return "WARN ";
    case Level::Error: return "ERROR";
    case Level::Off: return "OFF  ";
  }
  return "?????";
}

/// The one log sink. Every level writes to stderr through emit() under
/// `mutex`, so concurrent lines never interleave. Leaf lock: nothing else
/// is acquired while it is held.
struct Sink {
  Mutex mutex;
};

Sink& sink() {
  static Sink s;
  return s;
}

}  // namespace

void Fields::append_key(const char* key) {
  if (!body_.empty()) body_ += ' ';
  body_ += key;
  body_ += '=';
}

Fields& Fields::kv(const char* key, const std::string& value) {
  append_key(key);
  const bool needs_quotes =
      value.empty() ||
      value.find_first_of(" \t\n=\"") != std::string::npos;
  if (needs_quotes) {
    body_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += c;
    }
    body_ += '"';
  } else {
    body_ += value;
  }
  return *this;
}

Fields& Fields::kv(const char* key, long long value) {
  append_key(key);
  body_ += std::to_string(value);
  return *this;
}

Fields& Fields::kv(const char* key, unsigned long long value) {
  append_key(key);
  body_ += std::to_string(value);
  return *this;
}

Fields& Fields::kv(const char* key, double value) {
  append_key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  body_ += buf;
  return *this;
}

Fields& Fields::kv(const char* key, bool value) {
  append_key(key);
  body_ += value ? "true" : "false";
  return *this;
}

namespace detail {

void emit(Level level, const std::string& message) {
  using clock = std::chrono::steady_clock;
  static const auto start = clock::now();
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  MutexLock lock(sink().mutex);
  std::fprintf(stderr, "[%8.3fs %s] %s\n", elapsed, level_tag(level),
               message.c_str());
}

}  // namespace detail
}  // namespace teamnet::log
