#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

Tracer::Tracer(std::vector<std::string> lane_names) {
  lanes_.resize(lane_names.size());
  for (std::size_t i = 0; i < lane_names.size(); ++i) {
    lanes_[i].name = std::move(lane_names[i]);
    lanes_[i].spans.reserve(4096);
  }
}

Tracer::Scope::Scope(Tracer& tracer, std::size_t lane, const char* name,
                     std::uint64_t iteration)
    : tracer_(&tracer), lane_(lane) {
  Lane& l = tracer.lanes_.at(lane);
  index_ = l.spans.size();
  Span span;
  span.name = name;
  span.id = (static_cast<std::uint64_t>(lane) + 1) << 40 | (index_ + 1);
  span.parent = l.open.empty() ? 0 : l.open.back();
  span.iteration = iteration;
  l.open.push_back(span.id);
  span.start_ns = tracer.now_ns();
  l.spans.push_back(span);
}

Tracer::Scope::~Scope() {
  const std::int64_t end = tracer_->now_ns();
  Lane& l = tracer_->lanes_[lane_];
  l.spans[index_].end_ns = end;
  l.open.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans) {
      if (name == span.name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t count = 0;
  for (const Lane& lane : lanes_) count += lane.spans.size();
  return count;
}

bool Tracer::write_chrome_json(const std::string& path, const std::string& metadata) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "w"),
                                                       &std::fclose);
  if (!file) return false;
  std::FILE* out = file.get();
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": %s,\n\"traceEvents\": [\n",
               metadata.c_str());
  std::fprintf(out,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
               "\"args\": {\"name\": \"perfbench replay\"}}");
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    std::fprintf(out,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %zu, "
                 "\"args\": {\"name\": \"%s\"}}",
                 t, lanes_[t].name.c_str());
  }
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    for (const Span& span : lanes_[t].spans) {
      const std::string name = span.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(out,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, "
                   "\"parent\": %llu, \"iteration\": %llu, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}}",
                   span.name, layer.c_str(), t, static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.iteration),
                   static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::ferror(out) == 0;
}

}  // namespace perfbench
