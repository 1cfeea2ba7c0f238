// Shared pieces of perfbench_tool: the plan file run.py hands over, a
// span recorder that writes Chrome trace-event JSON, and flat JSON output.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One line of a plan file: a whitespace-separated record whose first
/// field is its kind ("sample", "tenant", "probe", ...).
struct PlanLine {
  std::string kind;
  std::vector<std::string> fields;
};

inline std::vector<PlanLine> read_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  std::vector<PlanLine> lines;
  std::string text;
  while (std::getline(in, text)) {
    std::istringstream words(text);
    PlanLine line;
    if (!(words >> line.kind)) continue;
    for (std::string field; words >> field;) line.fields.push_back(field);
    lines.push_back(std::move(line));
  }
  return lines;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Spans recorded in memory and written once at the end. `track` groups
/// the spans of one sample (Chrome's tid); `parent` names the enclosing
/// span so self time can be derived offline.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, std::string name, int track, std::string parent)
        : tracer_(tracer),
          name_(std::move(name)),
          parent_(std::move(parent)),
          track_(track),
          start_(Clock::now()) {}
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Closes the span and returns its duration in seconds; later calls
    /// return the same duration.
    double end() {
      if (!done_) {
        seconds_ = seconds_since(start_);
        tracer_.record(name_, parent_, track_, start_, seconds_);
        done_ = true;
      }
      return seconds_;
    }

   private:
    Tracer& tracer_;
    std::string name_;
    std::string parent_;
    int track_;
    Clock::time_point start_;
    double seconds_ = 0.0;
    bool done_ = false;
  };

  Tracer() : origin_(Clock::now()) {}

  void record(const std::string& name, const std::string& parent, int track,
              Clock::time_point start, double seconds) {
    Event event;
    event.name = name;
    event.parent = parent;
    event.track = track;
    event.ts_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    event.dur_us = seconds * 1e6;
    events_.push_back(std::move(event));
  }

  /// Labels a track (Chrome's thread_name metadata).
  void name_track(int track, const std::string& name) {
    track_names_[track] = name;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (const auto& [track, name] : track_names_) {
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << track << ",\"args\":{\"name\":\"" << json_escape(name)
          << "\"}},\n";
    }
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", e.ts_us,
                    e.dur_us);
      out << "{\"name\":\"" << json_escape(e.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.track << ',' << buf
          << ",\"args\":{\"parent\":\"" << json_escape(e.parent) << "\"}}"
          << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Event {
    std::string name;
    std::string parent;
    int track = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
  };
  Clock::time_point origin_;
  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
};

/// Writes a flat {"name": number} object.
inline void write_metrics(const std::string& path,
                          const std::map<std::string, double>& metrics) {
  std::ofstream out(path);
  out << "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out << (first ? "" : ",") << "\n  \"" << name << "\": " << buf;
    first = false;
  }
  out << "\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Median of a non-empty list (mean of the middle two for even sizes).
double median(std::vector<double> values);

int cmd_gen(const std::map<std::string, std::string>& args);
int cmd_replay(const std::map<std::string, std::string>& args);
int cmd_load(const std::map<std::string, std::string>& args);

}  // namespace perfbench
