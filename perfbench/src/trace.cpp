#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t Tracer::begin(std::string name, const char* category) {
  const std::size_t parent = open_.empty() ? 0 : open_.back() + 1;
  spans_.push_back({std::move(name), category, parent, now_us(), 0.0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  spans_[id].duration_us = now_us() - spans_[id].start_us;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", s.start_us, s.duration_us);
    out << (i ? ",\n" : "") << "{\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
        << s.category << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << buf
        << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
