#pragma once
// Span recorder of the traced run. Spans are taken by the benchmark's own
// code around each call into a library layer: name, start, end, parent span
// (the enclosing span on the same thread) and request id. They stay in
// memory until the run ends, then are written out and reduced to self time
// per layer (the span name's prefix before the first '.').
//
// When tracing is off a Span costs one relaxed atomic load.

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// Seconds on a CPU-time clock. On a VM the guest kernel leaves steal time
/// out of both CPU-time clocks.
inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread, in seconds.
inline double thread_cpu_seconds() {
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

/// CPU time of the whole process, every thread summed, in seconds.
inline double process_cpu_seconds() {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

struct SpanRecord {
  const char* name = "";      // string literal, "<layer>.<call>"
  std::int64_t parent = -1;   // index into the same thread's buffer
  std::uint64_t request = 0;  // request / op id shared across threads
  Clock::time_point begin;
  Clock::time_point end;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::int64_t open = -1;  // innermost open span on this thread
  };

  ThreadBuffer& buffer() {
    thread_local ThreadBuffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      mine = buffers_.back().get();
      mine->spans.reserve(1 << 14);
    }
    return *mine;
  }

  /// Per-layer self time in seconds, over every recorded span.
  std::map<std::string, double> self_seconds_by_layer() const {
    std::map<std::string, double> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      const auto& s = buf->spans;
      std::vector<std::vector<std::pair<double, double>>> kids(s.size());
      const Clock::time_point t0 = s.empty() ? Clock::time_point{} : s[0].begin;
      for (const SpanRecord& r : s) {
        if (r.parent >= 0) {
          kids[static_cast<std::size_t>(r.parent)].emplace_back(
              seconds_since(t0, r.begin), seconds_since(t0, r.end));
        }
      }
      for (std::size_t i = 0; i < s.size(); ++i) {
        const std::string name = s[i].name;
        out[name.substr(0, name.find('.'))] +=
            self_time(seconds_since(t0, s[i].begin),
                      seconds_since(t0, s[i].end), kids[i]);
      }
    }
    return out;
  }

  /// (request, seconds) of every span named `name`.
  std::vector<std::pair<std::uint64_t, double>> durations_of(
      const std::string& name) const {
    std::vector<std::pair<std::uint64_t, double>> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      for (const SpanRecord& r : buf->spans) {
        if (name == r.name) {
          out.emplace_back(r.request, seconds_since(r.begin, r.end));
        }
      }
    }
    return out;
  }

  std::size_t span_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& buf : buffers_) n += buf->spans.size();
    return n;
  }

  /// Writes every span as one JSON object per line (times in ns from
  /// `t0`, parent as a thread-local index). Returns false on I/O failure.
  bool write_jsonl(const std::string& path, Clock::time_point t0) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
      const auto& s = buffers_[t]->spans;
      for (std::size_t i = 0; i < s.size(); ++i) {
        out << "{\"thread\":" << t << ",\"id\":" << i
            << ",\"parent\":" << s[i].parent << ",\"name\":\"" << s[i].name
            << "\",\"request\":" << s[i].request << ",\"begin_ns\":"
            << std::chrono::nanoseconds(s[i].begin - t0).count()
            << ",\"end_ns\":"
            << std::chrono::nanoseconds(s[i].end - t0).count() << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one call. A no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    Tracer& t = Tracer::get();
    if (!t.enabled()) return;
    buf_ = &t.buffer();
    index_ = static_cast<std::int64_t>(buf_->spans.size());
    SpanRecord r;
    r.name = name;
    r.parent = buf_->open;
    r.request = request;
    buf_->spans.push_back(r);
    buf_->open = index_;
    buf_->spans.back().begin = Clock::now();
  }
  ~Span() {
    if (buf_ == nullptr) return;
    SpanRecord& r = buf_->spans[static_cast<std::size_t>(index_)];
    r.end = Clock::now();
    buf_->open = r.parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuffer* buf_ = nullptr;
  std::int64_t index_ = -1;
};

}  // namespace perfbench
