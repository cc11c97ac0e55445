#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void tracer::merge(const tracer& other) {
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (auto s : other.spans_) {
    if (s.parent != kNoParent) {
      s.parent += base;
    }
    spans_.push_back(s);
  }
}

std::map<std::string, tracer::summary> tracer::summarize() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent != kNoParent) {
      child_time[s.parent] += s.end - s.start;
    }
  }
  std::map<std::string, summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    auto& sum = out[s.name];
    ++sum.count;
    sum.total_s += s.end - s.start;
    sum.self_s += s.end - s.start - child_time[i];
  }
  return out;
}

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void tracer::write_json(const std::string& path,
                        const std::string& provenance,
                        const std::vector<metric>& metrics) const {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error{"cannot write trace file " + path};
  }
  out << "{\"provenance\":" << provenance << ",\n\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n \"" << metrics[i].name
        << "\":{\"value\":" << num(metrics[i].value) << ",\"unit\":\""
        << metrics[i].unit << "\"}";
  }
  out << "},\n\"summary\":{";
  bool first = true;
  for (const auto& [name, s] : summarize()) {
    out << (first ? "" : ",") << "\n \"" << name << "\":{\"count\":"
        << s.count << ",\"total_s\":" << num(s.total_s)
        << ",\"self_s\":" << num(s.self_s) << "}";
    first = false;
  }
  out << "},\n\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n [\"" << s.name << "\","
        << num(s.start) << "," << num(s.end) << ","
        << (s.parent == kNoParent ? std::string{"null"}
                                  : std::to_string(s.parent))
        << "," << s.op << "]";
  }
  out << "]}\n";
  if (!out) {
    throw std::runtime_error{"cannot write trace file " + path};
  }
}

}  // namespace perfbench
