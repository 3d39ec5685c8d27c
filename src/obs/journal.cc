#include "obs/journal.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "common/text.h"

namespace hunter::obs {
namespace {

// Emits a double as a bare JSON number, or as a quoted token for the
// non-finite values JSON cannot represent ("NaN", "Infinity", "-Infinity").
void WriteNumber(std::ostream& out, double value) {
  if (std::isfinite(value)) {
    out << common::FormatDouble17(value);
  } else {
    out << '"' << common::FormatDouble17(value) << '"';
  }
}

void WriteString(std::ostream& out, const std::string& s) {
  out << '"' << common::JsonEscape(s) << '"';
}

void WriteAttrs(std::ostream& out, const std::vector<Attr>& attrs) {
  out << '{';
  bool first = true;
  for (const Attr& a : attrs) {
    if (!first) out << ',';
    first = false;
    WriteString(out, a.key);
    out << ':';
    WriteString(out, a.value);
  }
  out << '}';
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

void WriteMetric(std::ostream& out, const MetricSnapshot& m) {
  out << "{\"name\":";
  WriteString(out, m.name);
  out << ",\"kind\":\"" << KindName(m.kind) << '"';
  if (m.kind == MetricKind::kHistogram) {
    out << ",\"count\":" << m.count;
    out << ",\"mean\":";
    WriteNumber(out, m.mean);
    out << ",\"min\":";
    WriteNumber(out, m.min);
    out << ",\"max\":";
    WriteNumber(out, m.max);
    out << ",\"p50\":";
    WriteNumber(out, m.p50);
    out << ",\"p95\":";
    WriteNumber(out, m.p95);
  } else {
    out << ",\"value\":";
    WriteNumber(out, m.value);
  }
  out << '}';
}

void WriteMetaLine(std::ostream& out, const std::string& schema,
                   const std::vector<Attr>& meta) {
  out << "{\"type\":\"meta\",\"schema\":";
  WriteString(out, schema);
  out << ",\"attrs\":";
  WriteAttrs(out, meta);
  out << "}\n";
}

void WriteRecordLine(std::ostream& out, const Record& record, size_t seq) {
  switch (record.type) {
    case Record::Type::kSpan: {
      const SpanRecord& s = record.span;
      out << "{\"type\":\"span\",\"seq\":" << seq << ",\"stage\":";
      WriteString(out, s.stage);
      out << ",\"name\":";
      WriteString(out, s.name);
      out << ",\"t\":";
      WriteNumber(out, s.start_seconds);
      out << ",\"dur\":";
      WriteNumber(out, s.duration_seconds);
      out << ",\"charged\":" << (s.charged ? "true" : "false");
      out << ",\"attrs\":";
      WriteAttrs(out, s.attrs);
      break;
    }
    case Record::Type::kEvent: {
      const EventRecord& e = record.event;
      out << "{\"type\":\"event\",\"seq\":" << seq << ",\"name\":";
      WriteString(out, e.name);
      out << ",\"t\":";
      WriteNumber(out, e.at_seconds);
      out << ",\"attrs\":";
      WriteAttrs(out, e.attrs);
      break;
    }
    case Record::Type::kMetrics: {
      out << "{\"type\":\"metrics\",\"seq\":" << seq << ",\"label\":";
      WriteString(out, record.metrics_label);
      out << ",\"t\":";
      WriteNumber(out, record.metrics_at_seconds);
      out << ",\"metrics\":[";
      bool first = true;
      for (const MetricSnapshot& m : record.metrics) {
        if (!first) out << ',';
        first = false;
        WriteMetric(out, m);
      }
      out << ']';
      break;
    }
  }
  out << "}\n";
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the journal schema. Keys keep their
// textual order so re-emission can be byte-stable; numbers go through
// std::from_chars, which is locale-independent by construction.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  JsonReader(const char* begin, const char* end) : p_(begin), end_(end) {}

  bool Parse(JsonValue* out, std::string* error) {
    if (!ParseValue(out, error)) return false;
    SkipSpace();
    if (p_ != end_) {
      *error = "trailing characters after JSON value";
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (p_ != end_ &&
           std::isspace(static_cast<unsigned char>(*p_)) != 0) {
      ++p_;
    }
  }

  bool Literal(const char* text) {
    const char* q = p_;
    for (const char* t = text; *t != '\0'; ++t, ++q) {
      if (q == end_ || *q != *t) return false;
    }
    p_ = q;
    return true;
  }

  bool ParseValue(JsonValue* out, std::string* error) {
    SkipSpace();
    if (p_ == end_) {
      *error = "unexpected end of input";
      return false;
    }
    switch (*p_) {
      case '{':
        return ParseObject(out, error);
      case '[':
        return ParseArray(out, error);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str, error);
      case 't':
        if (!Literal("true")) break;
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!Literal("false")) break;
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!Literal("null")) break;
        out->kind = JsonValue::Kind::kNull;
        return true;
      default:
        return ParseNumber(out, error);
    }
    *error = "unrecognized JSON token";
    return false;
  }

  bool ParseNumber(JsonValue* out, std::string* error) {
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(p_, end_, value);
    if (ec != std::errc()) {
      *error = "malformed number";
      return false;
    }
    p_ = ptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  bool ParseString(std::string* out, std::string* error) {
    ++p_;  // consume opening quote
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) break;
      char esc = *p_++;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (end_ - p_ < 4) {
            *error = "truncated \\u escape";
            return false;
          }
          unsigned code = 0;
          auto [ptr, ec] = std::from_chars(p_, p_ + 4, code, 16);
          if (ec != std::errc() || ptr != p_ + 4 || code > 0x7f) {
            // The journal writer only emits \u00xx for ASCII control
            // characters; anything else is not ours.
            *error = "unsupported \\u escape";
            return false;
          }
          p_ += 4;
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          *error = "unknown escape character";
          return false;
      }
    }
    if (p_ == end_) {
      *error = "unterminated string";
      return false;
    }
    ++p_;  // closing quote
    return true;
  }

  bool ParseArray(JsonValue* out, std::string* error) {
    ++p_;  // consume '['
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!ParseValue(&element, error)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (p_ == end_) {
        *error = "unterminated array";
        return false;
      }
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      *error = "expected ',' or ']' in array";
      return false;
    }
  }

  bool ParseObject(JsonValue* out, std::string* error) {
    ++p_;  // consume '{'
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (p_ == end_ || *p_ != '"') {
        *error = "expected object key";
        return false;
      }
      std::string key;
      if (!ParseString(&key, error)) return false;
      SkipSpace();
      if (p_ == end_ || *p_ != ':') {
        *error = "expected ':' after object key";
        return false;
      }
      ++p_;
      JsonValue value;
      if (!ParseValue(&value, error)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (p_ == end_) {
        *error = "unterminated object";
        return false;
      }
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      *error = "expected ',' or '}' in object";
      return false;
    }
  }

  const char* p_;
  const char* end_;
};

// ---------------------------------------------------------------------------
// Schema extraction helpers.

bool GetString(const JsonValue& obj, const std::string& key, std::string* out,
               std::string* error) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    *error = "missing or non-string field \"" + key + "\"";
    return false;
  }
  *out = v->str;
  return true;
}

// Doubles may arrive as bare numbers or as the quoted non-finite tokens the
// writer emits.
bool GetDouble(const JsonValue& obj, const std::string& key, double* out,
               std::string* error) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr) {
    *error = "missing field \"" + key + "\"";
    return false;
  }
  if (v->kind == JsonValue::Kind::kNumber) {
    *out = v->number;
    return true;
  }
  if (v->kind == JsonValue::Kind::kString) {
    if (v->str == "NaN") {
      *out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    if (v->str == "Infinity") {
      *out = std::numeric_limits<double>::infinity();
      return true;
    }
    if (v->str == "-Infinity") {
      *out = -std::numeric_limits<double>::infinity();
      return true;
    }
  }
  *error = "field \"" + key + "\" is not a number";
  return false;
}

bool GetAttrs(const JsonValue& obj, const std::string& key,
              std::vector<Attr>* out, std::string* error) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kObject) {
    *error = "missing or non-object field \"" + key + "\"";
    return false;
  }
  out->clear();
  for (const auto& [k, value] : v->object) {
    if (value.kind != JsonValue::Kind::kString) {
      *error = "attr \"" + k + "\" is not a string";
      return false;
    }
    out->push_back({k, value.str});
  }
  return true;
}

bool ParseMetric(const JsonValue& obj, MetricSnapshot* out,
                 std::string* error) {
  if (!GetString(obj, "name", &out->name, error)) return false;
  std::string kind;
  if (!GetString(obj, "kind", &kind, error)) return false;
  if (kind == "counter") {
    out->kind = MetricKind::kCounter;
  } else if (kind == "gauge") {
    out->kind = MetricKind::kGauge;
  } else if (kind == "histogram") {
    out->kind = MetricKind::kHistogram;
  } else {
    *error = "unknown metric kind \"" + kind + "\"";
    return false;
  }
  if (out->kind == MetricKind::kHistogram) {
    double count = 0.0;
    if (!GetDouble(obj, "count", &count, error) ||
        !GetDouble(obj, "mean", &out->mean, error) ||
        !GetDouble(obj, "min", &out->min, error) ||
        !GetDouble(obj, "max", &out->max, error) ||
        !GetDouble(obj, "p50", &out->p50, error) ||
        !GetDouble(obj, "p95", &out->p95, error)) {
      return false;
    }
    // The writer prints a whole count. Anything else (negative, fractional,
    // non-finite, or past 2^53, where doubles stop holding every integer)
    // would be re-emitted as different bytes, and casting an out-of-range
    // double to size_t is undefined.
    if (!(count >= 0.0 && count <= 0x1p53) || count != std::floor(count)) {
      *error = "field \"count\" is not a whole number in [0, 2^53]";
      return false;
    }
    out->count = static_cast<size_t>(count);
    return true;
  }
  return GetDouble(obj, "value", &out->value, error);
}

bool ParseRecord(const JsonValue& obj, const std::string& type, Record* out,
                 std::string* error) {
  if (type == "span") {
    out->type = Record::Type::kSpan;
    SpanRecord& s = out->span;
    const JsonValue* charged = obj.Get("charged");
    if (charged == nullptr || charged->kind != JsonValue::Kind::kBool) {
      *error = "missing or non-bool field \"charged\"";
      return false;
    }
    s.charged = charged->boolean;
    return GetString(obj, "stage", &s.stage, error) &&
           GetString(obj, "name", &s.name, error) &&
           GetDouble(obj, "t", &s.start_seconds, error) &&
           GetDouble(obj, "dur", &s.duration_seconds, error) &&
           GetAttrs(obj, "attrs", &s.attrs, error);
  }
  if (type == "event") {
    out->type = Record::Type::kEvent;
    EventRecord& e = out->event;
    return GetString(obj, "name", &e.name, error) &&
           GetDouble(obj, "t", &e.at_seconds, error) &&
           GetAttrs(obj, "attrs", &e.attrs, error);
  }
  if (type == "metrics") {
    out->type = Record::Type::kMetrics;
    if (!GetString(obj, "label", &out->metrics_label, error) ||
        !GetDouble(obj, "t", &out->metrics_at_seconds, error)) {
      return false;
    }
    const JsonValue* metrics = obj.Get("metrics");
    if (metrics == nullptr || metrics->kind != JsonValue::Kind::kArray) {
      *error = "missing or non-array field \"metrics\"";
      return false;
    }
    for (const JsonValue& m : metrics->array) {
      if (m.kind != JsonValue::Kind::kObject) {
        *error = "metric entry is not an object";
        return false;
      }
      MetricSnapshot snapshot;
      if (!ParseMetric(m, &snapshot, error)) return false;
      out->metrics.push_back(std::move(snapshot));
    }
    return true;
  }
  *error = "unknown record type \"" + type + "\"";
  return false;
}

}  // namespace

Journal::Journal(common::SimClock* clock, MetricsRegistry* registry,
                 std::vector<Attr> meta)
    : clock_(clock),
      registry_(registry),
      meta_(std::move(meta)),
      tracer_(clock, this) {}

void Journal::SnapshotMetrics(const std::string& label) {
  Record record;
  record.type = Record::Type::kMetrics;
  record.metrics_label = label;
  record.metrics_at_seconds = clock_->seconds();
  if (registry_ != nullptr) record.metrics = registry_->Snapshot();
  records_.push_back(std::move(record));
}

void Journal::AppendSpan(SpanRecord span) {
  Record record;
  record.type = Record::Type::kSpan;
  record.span = std::move(span);
  records_.push_back(std::move(record));
}

void Journal::AppendEvent(EventRecord event) {
  Record record;
  record.type = Record::Type::kEvent;
  record.event = std::move(event);
  records_.push_back(std::move(record));
}

void Journal::Write(std::ostream& out) const {
  common::ScopedClassicLocale pin(out);
  WriteMetaLine(out, kJournalSchema, meta_);
  for (size_t i = 0; i < records_.size(); ++i) {
    WriteRecordLine(out, records_[i], i);
  }
}

bool ParseJournal(std::istream& in, ParsedJournal* out, std::string* error) {
  out->schema.clear();
  out->meta.clear();
  out->records.clear();
  std::string line;
  size_t line_no = 0;
  bool saw_meta = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    std::string detail;
    JsonReader reader(line.data(), line.data() + line.size());
    if (!reader.Parse(&value, &detail) ||
        value.kind != JsonValue::Kind::kObject) {
      if (detail.empty()) detail = "expected a JSON object";
      *error = "line " + std::to_string(line_no) + ": " + detail;
      return false;
    }
    std::string type;
    if (!GetString(value, "type", &type, &detail)) {
      *error = "line " + std::to_string(line_no) + ": " + detail;
      return false;
    }
    if (type == "meta") {
      if (saw_meta) {
        *error = "line " + std::to_string(line_no) + ": duplicate meta record";
        return false;
      }
      saw_meta = true;
      if (!GetString(value, "schema", &out->schema, &detail) ||
          !GetAttrs(value, "attrs", &out->meta, &detail)) {
        *error = "line " + std::to_string(line_no) + ": " + detail;
        return false;
      }
      continue;
    }
    Record record;
    if (!ParseRecord(value, type, &record, &detail)) {
      *error = "line " + std::to_string(line_no) + ": " + detail;
      return false;
    }
    out->records.push_back(std::move(record));
  }
  if (!saw_meta) {
    *error = "journal has no meta record";
    return false;
  }
  return true;
}

void WriteParsed(const ParsedJournal& journal, std::ostream& out) {
  common::ScopedClassicLocale pin(out);
  WriteMetaLine(out, journal.schema, journal.meta);
  for (size_t i = 0; i < journal.records.size(); ++i) {
    WriteRecordLine(out, journal.records[i], i);
  }
}

}  // namespace hunter::obs
