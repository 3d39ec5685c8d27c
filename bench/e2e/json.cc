#include "bench/e2e/json.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace hunter::bench_e2e {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Document(JsonValue* out, std::string* error) {
    if (!Value(out)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      *error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    error_ = what;
    return false;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return Fail("bad literal");
    pos_ += w.size();
    return true;
  }

  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->string);
    }
    if (c == 't' || c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    out->kind = JsonValue::Kind::kNumber;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const std::from_chars_result r = std::from_chars(begin, end, out->number);
    if (r.ec != std::errc() || r.ptr == begin) return Fail("bad number");
    pos_ += static_cast<size_t>(r.ptr - begin);
    return true;
  }

  // The benchmark's files hold no control characters, so the only escapes
  // are \" and \\.
  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && ++pos_ == text_.size()) break;
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool Array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!Value(&out->array.back())) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (text_[pos_++] != ',') return Fail("expected ',' in array");
    }
  }

  bool Object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected key");
      }
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Fail("expected ':'");
      }
      if (!Value(&out->object[key])) return false;
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (text_[pos_++] != ',') return Fail("expected ',' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Parser(text).Document(out, error);
}

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

bool LoadBenchmark(const std::string& path, BenchmarkSpec* spec,
                   std::string* error) {
  std::string text;
  if (!ReadFile(path, &text)) {
    *error = "cannot open";
    return false;
  }
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  const auto metrics = [&root, error](const char* key,
                                      std::vector<BenchmarkMetric>* out) {
    const JsonValue* list = root.Find(key);
    if (list == nullptr || list->kind != JsonValue::Kind::kArray) {
      *error = std::string("no '") + key + "' list";
      return false;
    }
    for (const JsonValue& entry : list->array) {
      const JsonValue* name = entry.Find("name");
      const JsonValue* unit = entry.Find("unit");
      const JsonValue* better = entry.Find("better");
      const JsonValue* bound = entry.Find("bound");
      if (name == nullptr || unit == nullptr || better == nullptr) {
        *error = std::string("incomplete metric in '") + key + "'";
        return false;
      }
      out->push_back({name->string, unit->string, better->string == "higher",
                      bound != nullptr ? bound->number : 0.0});
    }
    return true;
  };
  const JsonValue* workloads = root.Find("workloads");
  const JsonValue* seconds = root.Find("run_seconds");
  if (workloads == nullptr || seconds == nullptr) {
    *error = "no 'workloads' or 'run_seconds'";
    return false;
  }
  *spec = BenchmarkSpec{};
  for (const JsonValue& w : workloads->array) {
    const JsonValue* name = w.Find("name");
    if (name != nullptr) spec->workloads.push_back(name->string);
  }
  spec->run_seconds = seconds->number;
  return metrics("end_to_end", &spec->end_to_end) &&
         metrics("per_layer", &spec->per_layer);
}

}  // namespace hunter::bench_e2e
