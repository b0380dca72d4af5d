#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

constexpr size_t kMaxChromeSpans = 30000;

// The layer part of a span name ("net.call" -> "net").
std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

int64_t Tracer::Open(const char* name, int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request_;
  span.begin = Clock::now();
  span.end = span.begin;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Clock::now();
}

int64_t Tracer::Add(const char* name, int64_t parent, Clock::time_point begin,
                    Clock::time_point end, uint32_t tid, double weight) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request_;
  span.begin = begin;
  span.end = std::max(begin, end);
  span.tid = tid;
  span.weight = weight;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::SetTimes(int64_t id, Clock::time_point begin,
                      Clock::time_point end) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].begin = begin;
  spans_[static_cast<size_t>(id)].end = std::max(begin, end);
}

void Tracer::SetCritical(int64_t id, bool critical) {
  if (id >= 0) spans_[static_cast<size_t>(id)].critical = critical;
}

bool Tracer::OnCriticalPath(int64_t id) const {
  for (; id >= 0; id = spans_[static_cast<size_t>(id)].parent) {
    if (!spans_[static_cast<size_t>(id)].critical) return false;
  }
  return true;
}

Tracer::Attribution Tracer::Attribute() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && s.critical) {
      child_ms[static_cast<size_t>(s.parent)] += DurationMs(s);
    }
  }
  Attribution out;
  uint64_t last_request = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!OnCriticalPath(static_cast<int64_t>(i))) continue;
    if (s.parent < 0) {
      out.request_ms += DurationMs(s);
      if (s.request != last_request) ++out.requests;
      last_request = s.request;
    }
    out.span_self_ms[s.name] += DurationMs(s) - child_ms[i];
    out.span_total_ms[s.name] += DurationMs(s);
    ++out.span_count[s.name];
  }
  // The ring's clock ticks in whole microseconds, so a short child can
  // read a microsecond longer than its parent; summed over the run that
  // rounding cancels, and the clamp only catches what is left.
  double attributed = 0;
  for (auto& [name, ms] : out.span_self_ms) {
    ms = std::max(0.0, ms);
    out.layer_self_ms[LayerOf(name)] += ms;
    attributed += ms;
  }
  out.gap_frac = Ratio(attributed, out.request_ms) - 1.0;
  return out;
}

std::string Tracer::ChromeJson() const {
  if (spans_.empty()) return "[]\n";
  // The spans of the first requests, whole, up to kMaxChromeSpans: about
  // 170 bytes an event keeps the file near 10 MB however long the replay.
  size_t kept = spans_.size();
  if (kept > kMaxChromeSpans) {
    kept = kMaxChromeSpans;
    while (kept > 1 && spans_[kept - 1].request == spans_[kept].request) --kept;
  }
  // Events in time order; spans recorded after their parent (`Add`) still
  // land inside the parent's interval.
  struct Event {
    Clock::time_point t;
    size_t span;
    bool end;
  };
  std::vector<Event> events;
  for (size_t i = 0; i < kept; ++i) {
    events.push_back({spans_[i].begin, i, false});
    events.push_back({spans_[i].end, i, true});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  const Clock::time_point origin = events.front().t;
  std::string out = "[";
  char buf[384];
  for (const Event& e : events) {
    const Span& s = spans_[e.span];
    const double t =
        std::chrono::duration<double, std::micro>(e.t - origin).count();
    std::snprintf(buf, sizeof(buf),
                  "%s{\"trace\":%llu,\"name\":\"%s\",\"cat\":\"%s\","
                  "\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"t_us\":%.3f,"
                  "\"ts\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
                  "\"critical\":%s}}",
                  out.size() > 1 ? ",\n" : "",
                  static_cast<unsigned long long>(s.request), s.name,
                  LayerOf(s.name).c_str(), e.end ? "E" : "B", s.tid, t, t,
                  e.span,
                  static_cast<long long>(s.parent),
                  s.critical ? "true" : "false");
    out += buf;
  }
  return out + "]\n";
}

std::string Tracer::SelfTimeTable() const {
  const Attribution a = Attribute();
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-22s %12s %12s %8s\n", "span",
                "self_ms/req", "layer_ms/req", "share");
  out += buf;
  const double n = static_cast<double>(std::max<uint64_t>(a.requests, 1));
  for (const auto& [name, ms] : a.span_self_ms) {
    const double layer_ms = a.layer_self_ms.at(LayerOf(name));
    std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %7.1f%%\n",
                  name.c_str(), ms / n, layer_ms / n,
                  100.0 * Ratio(ms, a.request_ms));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "%-22s %12.4f  (%llu requests, attribution gap %+.2f%%)\n",
                "request", a.request_ms / n,
                static_cast<unsigned long long>(a.requests),
                100.0 * a.gap_frac);
  return out + buf;
}

}  // namespace perfbench
