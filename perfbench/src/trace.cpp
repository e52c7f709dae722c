#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::begin(std::string name, std::int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::counter(std::int64_t id, std::string key, double value) {
  if (id < 0) return;
  spans_.at(static_cast<std::size_t>(id))
      .counters.emplace_back(std::move(key), value);
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& out) const {
  char num[40];
  const auto number = [&](double v) {
    std::snprintf(num, sizeof num, "%.17g", v);
    return num;
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": ";
    write_json_string(out, s.name);
    out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << number(s.start_us);
    out << ", \"dur\": " << number(s.end_us - s.start_us);
    out << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request;
    for (const auto& [key, value] : s.counters) {
      out << ", ";
      write_json_string(out, key);
      out << ": " << number(value);
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
