// In-memory span recorder for the traced replay, exported as Chrome
// trace-event JSON (opens in Perfetto and chrome://tracing).
//
// A span is one timed call into a layer: name ("dl.forward", "smb.write"),
// start and end on the steady clock, the span open on the same lane when it
// began (its parent; 0 at top level), and the iteration id every span of one
// worker iteration shares (0 outside the loop).  Each lane is a thread of
// the replay; a lane is written only by its own thread, so recording takes
// no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t iteration = 0;
};

class Tracer {
 public:
  /// `lanes` thread lanes, named for the trace viewer.
  explicit Tracer(std::vector<std::string> lane_names);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span on one lane: opens at construction, closes at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::size_t lane, const char* name, std::uint64_t iteration);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    std::size_t lane_;
    std::size_t index_;
  };

  [[nodiscard]] Scope span(std::size_t lane, const char* name, std::uint64_t iteration = 0) {
    return Scope(*this, lane, name, iteration);
  }

  /// Iteration id shared by every span of `worker`'s iteration `iteration`.
  [[nodiscard]] static std::uint64_t iteration_id(int worker, std::int64_t iteration) {
    return (static_cast<std::uint64_t>(worker) + 1) * 1'000'000ULL +
           static_cast<std::uint64_t>(iteration);
  }

  /// Durations in milliseconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes the spans as a Chrome trace-event JSON object; `metadata` is a
  /// JSON object stored under "otherData".  Returns false if the file
  /// cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       const std::string& metadata) const;

  [[nodiscard]] std::size_t span_count() const;

 private:
  struct Lane {
    std::string name;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  ///< ids of the spans open on this lane
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Lane> lanes_;
};

}  // namespace perfbench
