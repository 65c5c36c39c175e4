// Checked byte-level (de)serialization primitives.
//
// Every raw byte copy between typed values and byte streams in TeamNet goes
// through these helpers (tools/analyze.py rule `raw-cast` bans char-pointer
// reinterpret_casts elsewhere). They guarantee, at compile time, that only
// trivially copyable types ever cross a memcpy boundary, and at run time
// that reads never step past the end of a buffer or stream — a truncated or
// corrupt input surfaces as SerializationError, never as UB.
//
// Two flavors mirror the two buffer styles used in the tree:
//   * std::string + offset cursor   (wire messages)
//   * std::ostream / std::istream   (checkpoint files, tensor streams)
#pragma once

#include <cstddef>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/error.hpp"

namespace teamnet {

namespace detail {

template <typename T>
inline constexpr bool is_raw_serializable_v =
    std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

}  // namespace detail

/// Appends the object representation of `value` to `out`.
template <typename T>
void write_raw(std::string& out, const T& value) {
  static_assert(detail::is_raw_serializable_v<T>,
                "write_raw requires a trivially copyable non-pointer type");
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Appends `count` contiguous elements starting at `data` to `out`.
template <typename T>
void write_raw_array(std::string& out, const T* data, std::size_t count) {
  static_assert(detail::is_raw_serializable_v<T>,
                "write_raw_array requires a trivially copyable type");
  out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

/// Reads one T from `in` at `offset`, advancing the cursor. Overflow-safe:
/// throws SerializationError when fewer than sizeof(T) bytes remain.
template <typename T>
T read_raw(const std::string& in, std::size_t& offset) {
  static_assert(detail::is_raw_serializable_v<T>,
                "read_raw requires a trivially copyable non-pointer type");
  if (offset > in.size() || in.size() - offset < sizeof(T)) {
    throw SerializationError("truncated buffer: need " +
                             std::to_string(sizeof(T)) + " bytes at offset " +
                             std::to_string(offset) + ", have " +
                             std::to_string(in.size()));
  }
  T value{};
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

/// Reads `count` contiguous elements from `in` at `offset` into `data`.
template <typename T>
void read_raw_array(const std::string& in, std::size_t& offset, T* data,
                    std::size_t count) {
  static_assert(detail::is_raw_serializable_v<T>,
                "read_raw_array requires a trivially copyable type");
  const std::size_t bytes = count * sizeof(T);
  if (count > in.size() / sizeof(T) || offset > in.size() ||
      in.size() - offset < bytes) {
    throw SerializationError("truncated buffer: need " +
                             std::to_string(bytes) + " bytes at offset " +
                             std::to_string(offset) + ", have " +
                             std::to_string(in.size()));
  }
  std::memcpy(data, in.data() + offset, bytes);
  offset += bytes;
}

/// Writes the object representation of `value` to `os`.
template <typename T>
void write_raw(std::ostream& os, const T& value) {
  static_assert(detail::is_raw_serializable_v<T>,
                "write_raw requires a trivially copyable non-pointer type");
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Writes `count` contiguous elements starting at `data` to `os`.
template <typename T>
void write_raw_array(std::ostream& os, const T* data, std::size_t count) {
  static_assert(detail::is_raw_serializable_v<T>,
                "write_raw_array requires a trivially copyable type");
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(count * sizeof(T)));
}

/// Reads one T from `is`; throws SerializationError on short reads.
template <typename T>
T read_raw(std::istream& is) {
  static_assert(detail::is_raw_serializable_v<T>,
                "read_raw requires a trivially copyable non-pointer type");
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw SerializationError("truncated stream");
  return value;
}

/// Reads `count` contiguous elements from `is` into `data`.
template <typename T>
void read_raw_array(std::istream& is, T* data, std::size_t count) {
  static_assert(detail::is_raw_serializable_v<T>,
                "read_raw_array requires a trivially copyable type");
  is.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!is) throw SerializationError("truncated stream");
}

/// Converts between integer types, throwing SerializationError when the
/// value does not fit — the wire format stores counts as u32, and silent
/// narrowing of an oversized container is exactly the bug class the
/// cppcoreguidelines narrowing checks exist for.
template <typename To, typename From>
To checked_narrow(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_narrow converts between integer types");
  const To narrowed = static_cast<To>(value);
  if (static_cast<From>(narrowed) != value ||
      ((value < From{}) != (narrowed < To{}))) {
    throw SerializationError("value out of range for wire format: " +
                             std::to_string(value));
  }
  return narrowed;
}

}  // namespace teamnet
