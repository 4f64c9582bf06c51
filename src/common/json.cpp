#include "pcpc/common/json.hpp"

#include <cmath>
#include <exception>
#include <fstream>
#include <utility>

#include "pcpc/common/assert.hpp"

namespace pcpc {

namespace {

/// Forwards every byte to a file's buffer and keeps the last one.
struct LastByteBuf final : std::streambuf {
  explicit LastByteBuf(std::streambuf* file) : sink(file) {}
  int_type overflow(int_type c) override {
    return sink->sputc(last = traits_type::to_char_type(c));
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (n > 0) last = s[n - 1];
    return sink->sputn(s, n);
  }
  std::streambuf* sink;
  char last = '\0';
};

}  // namespace

JsonWriter::~JsonWriter() {
  PCPC_ASSERT_MSG(open_.empty() || std::uncaught_exceptions() > 0,
                  "JsonWriter: an object or array was left open");
}

JsonWriter& JsonWriter::raw(std::string_view token) {
  if (!open_.empty() && open_.back() == '{') {
    PCPC_ASSERT_MSG(after_key_, "JsonWriter: an object member without a key");
    after_key_ = false;
  } else if (!std::exchange(empty_, false)) {
    out_.put(',');
  }
  out_ << token;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  raw({&bracket, 1}).open_ += bracket;
  empty_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char open, char bracket) {
  PCPC_ASSERT_MSG(!open_.empty() && open_.back() == open && !after_key_,
                  "JsonWriter: unbalanced end_object/end_array");
  out_.put(bracket);
  open_.pop_back();
  empty_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  PCPC_ASSERT_MSG(!open_.empty() && open_.back() == '{' && !after_key_,
                  "JsonWriter: a key outside an object or after another key");
  if (!std::exchange(empty_, false)) out_.put(',');
  write_string(name);
  out_.put(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  raw({}).write_string(text);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) return raw("null");
  char buf[32];
  return raw({buf, std::to_chars(buf, buf + sizeof buf, number).ptr});
}

void JsonWriter::write_string(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_.put('"');
  std::size_t run = 0;  // start of the bytes that need no escape
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_ << text.substr(run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ << "\\\""; break;
      case '\\': out_ << "\\\\"; break;
      case '\n': out_ << "\\n"; break;
      case '\r': out_ << "\\r"; break;
      case '\t': out_ << "\\t"; break;
      default: out_ << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
  }
  out_ << text.substr(run) << '"';
}

bool write_file(const std::string& path, std::string* error,
                const std::function<void(std::ostream&)>& fn, std::ios::openmode mode) {
  std::ofstream file(path, std::ios::out | mode);
  if (!file) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  LastByteBuf tail(file.rdbuf());
  std::ostream out(&tail);
  fn(out);
  if (tail.last != '\n') out.put('\n');
  file.close();
  if (!out || !file) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace pcpc
