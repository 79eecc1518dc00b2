// In-memory span tracer of the benchmark's traced runs.
//
// A span is one timed call into a punt layer (name, start, end, parent).
// Spans are only opened by the benchmark's own code, around the public
// calls it makes, on one thread; children therefore nest strictly inside
// their parent and never overlap each other, which makes a span's self time
// its duration minus the sum of its direct children's durations.
//
// A null Tracer* means tracing is off: Scope then reads no clock at all, so
// the untraced runs that report the end-to-end metrics carry no tracing
// cost.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace puntbench {

struct Span {
  std::string name;
  double start_ms = 0;  // since the tracer was created
  double end_ms = 0;
  long parent = -1;  // index into Tracer::spans(); -1 = root

  double duration_ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time summed per span name, over the spans whose root ancestor is
  /// the span `root` (or every span when root < 0).
  std::map<std::string, double> self_ms(long root = -1) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child_ms[static_cast<std::size_t>(span.parent)] += span.duration_ms();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (root >= 0 && root_of(i) != static_cast<std::size_t>(root)) continue;
      out[spans_[i].name] += spans_[i].duration_ms() - child_ms[i];
    }
    return out;
  }

  /// Writes every span as one JSON document; returns false when the file
  /// cannot be written.
  bool write_json(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file, "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                         "\"end_ms\": %.6f, \"parent\": %ld}%s\n",
                   i, span.name.c_str(), span.start_ms, span.end_ms, span.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  }

  std::size_t open(const char* name) {
    spans_.push_back(Span{name, now_ms(), 0, open_});
    open_ = static_cast<long>(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_ms = now_ms();
    open_ = spans_[index].parent;
  }

  std::size_t root_of(std::size_t i) const {
    while (spans_[i].parent >= 0) i = static_cast<std::size_t>(spans_[i].parent);
    return i;
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  long open_ = -1;  // innermost open span
};

}  // namespace puntbench
