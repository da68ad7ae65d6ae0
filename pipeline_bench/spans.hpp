// In-memory span log of the pipeline benchmark's traced run.
//
// One span per public call the benchmark makes into a library layer:
// name, start, end, parent span and job id. The benchmark is a single
// thread, so the parent is the innermost open span. Spans stay in memory
// until the run ends; a layer's self time is its span's duration minus
// the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace pipeline_bench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int job = -1;
  };

  int open(const char* name, int job) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), job});
    open_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Self seconds per span name over the spans of one job.
  std::map<std::string, double> self_seconds(int job) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].job == job)
        self[spans_[i].name] +=
            1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]);
    return self;
  }

  /// Writes the spans as Chrome trace-event JSON (one complete event per
  /// span, microseconds since the first span), viewable in Perfetto.
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << 1e-3 * static_cast<double>(s.start_ns - t0)
          << ", \"dur\": " << 1e-3 * static_cast<double>(s.end_ns - s.start_ns)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"job\": " << s.job << "}}";
    }
    out << "\n]}\n";
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// (the untraced runs) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int job)
      : log_(log), id_(log ? log->open(name, job) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace pipeline_bench
