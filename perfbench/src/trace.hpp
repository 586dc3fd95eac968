#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced run.  Spans are kept in memory
/// and written once, at the end, as Chrome trace-event JSON (complete "X"
/// events on one thread), which opens in Perfetto or chrome://tracing.
/// A disabled tracer records nothing.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id.
  std::size_t begin(std::string name, const char* category);
  void end(std::size_t id);

  /// Writes {"traceEvents": [...]}; false when the file cannot be written.
  bool write(const std::string& path) const;

  /// Opens a span for the lifetime of the object.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, const char* category)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.begin(std::move(name), category) : 0) {}
    ~Scope() {
      if (tracer_.enabled()) tracer_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

 private:
  struct Span {
    std::string name;
    const char* category;
    std::size_t parent;  ///< id + 1 of the enclosing span; 0 at the root
    double start_us;
    double duration_us;
  };
  [[nodiscard]] double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
