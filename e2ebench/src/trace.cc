#include "trace.h"

#include <cstdio>
#include <fstream>

namespace wcbench {

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name,
                     uint64_t request)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.id = tracer_->spans_.size() + 1;
  span.parent =
      tracer_->open_.empty() ? 0 : tracer_->spans_[tracer_->open_.back()].id;
  span.request = request;
  span.layer = layer;
  span.name = name;
  span.start_ns = tracer_->NowNs();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

void Tracer::Scope::End() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
  tracer_ = nullptr;
}

void Tracer::Scope::SetRequest(uint64_t request) {
  if (tracer_ != nullptr) tracer_->spans_[index_].request = request;
}

void Tracer::Attribute(const char* layer, const char* name, double seconds) {
  if (!enabled_ || open_.empty() || seconds <= 0) return;
  const Span& parent = spans_[open_.back()];
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent.id;
  span.request = parent.request;
  span.layer = layer;
  span.name = name;
  span.start_ns = parent.start_ns;
  span.end_ns = parent.start_ns + static_cast<int64_t>(seconds * 1e9);
  span.attributed = true;
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const int64_t own = (s.end_ns - s.start_ns) - child_ns[s.id];
    self[s.layer] += 1e-9 * static_cast<double>(own > 0 ? own : 0);
  }
  return self;
}

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                  1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    out << "{\"name\":\"" << Escape(s.name) << "\",\"cat\":\""
        << Escape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << (s.attributed ? 2 : 1) << ",\"ts\":" << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"attributed\":" << (s.attributed ? "true" : "false") << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace wcbench
