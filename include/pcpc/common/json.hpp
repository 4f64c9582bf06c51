// The one JSON writer of every document the library, the examples and the
// gate benches write.  Integers in decimal, doubles in the shortest form
// that round-trips (std::to_chars), NaN and ±inf as null; strings escape
// '"', '\\', \n, \r, \t by name and other bytes below 0x20 as \u00XX.
// No precision argument, no pretty printing: a document is one line.
#pragma once

#include <charconv>
#include <concepts>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace pcpc {

/// Streams one JSON value to an ostream, placing every comma itself and
/// asserting that keys, values and nesting balance.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('{', '}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close('[', ']'); }
  JsonWriter& key(std::string_view name);  ///< names the next object member

  JsonWriter& value(std::string_view text);  ///< string literals too, never bool
  JsonWriter& value(double number);
  template <std::integral T>  ///< bool as true/false, other integers in decimal
  JsonWriter& value(T number) {
    if constexpr (std::same_as<T, bool>) {
      return raw(number ? "true" : "false");
    } else {
      char buf[24];
      return raw({buf, std::to_chars(buf, buf + sizeof buf, number).ptr});
    }
  }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char open, char bracket);
  JsonWriter& raw(std::string_view token);  ///< one value, after its separator
  void write_string(std::string_view text);

  std::ostream& out_;
  std::string open_;        ///< the open brackets, innermost last
  bool empty_ = true;       ///< the innermost container has no member yet
  bool after_key_ = false;  ///< a key waits for its value
};

/// The one open/flush/error path of written files: opens `path`
/// (`std::ios::app` appends), hands the stream to `fn` and ends the file in
/// exactly one newline; false with `*error` naming the path on failure.
bool write_file(const std::string& path, std::string* error,
                const std::function<void(std::ostream&)>& fn,
                std::ios::openmode mode = std::ios::trunc);

}  // namespace pcpc
