#include "support/metrics.hpp"

#include <cstring>

#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::support {

const char* MetricsWriter::family(const char* name, const char* kind,
                                  const char* help) {
  out_ += strf("# HELP %s %s\n", name, help);
  out_ += strf("# TYPE %s %s\n", name, kind);
  last_family_ = name;
  last_kind_ = kind;
  return name;
}

void MetricsWriter::check_kind(const char* name, const char* expected) const {
  // Series must follow their own family declaration — histogram series
  // additionally carry the _bucket/_sum/_count suffix on the family name.
  const bool name_matches =
      last_family_ == name ||
      (std::strncmp(name, last_family_.c_str(), last_family_.size()) == 0 &&
       name[last_family_.size()] == '_');
  LAMB_CHECK(name_matches && last_kind_ == expected,
             strf("metrics: %s emitted as %s but family '%s' is '%s'", name,
                  expected, last_family_.c_str(), last_kind_.c_str()));
}

void MetricsWriter::counter(const char* name, std::string_view labels,
                            std::uint64_t value) {
  check_kind(name, "counter");
  out_ += strf("%s%.*s %llu\n", name, static_cast<int>(labels.size()),
               labels.data(), static_cast<unsigned long long>(value));
}

void MetricsWriter::gauge(const char* name, std::string_view labels,
                          double value) {
  check_kind(name, "gauge");
  // %.9g keeps integral gauges exact (cache sizes, loop counts) and
  // fractional ones (hit ratios) compact.
  out_ += strf("%s%.*s %.9g\n", name, static_cast<int>(labels.size()),
               labels.data(), value);
}

void MetricsWriter::histogram(const char* name, std::string_view label,
                              const LatencyHistogram::Snapshot& snap) {
  check_kind(name, "histogram");
  const std::string l(label);
  const std::string comma = l.empty() ? "" : l + ",";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBounds.size(); ++b) {
    cumulative += snap.counts[b];
    out_ += strf("%s_bucket{%sle=\"%g\"} %llu\n", name, comma.c_str(),
                 LatencyHistogram::kBounds[b],
                 static_cast<unsigned long long>(cumulative));
  }
  out_ += strf("%s_bucket{%sle=\"+Inf\"} %llu\n", name, comma.c_str(),
               static_cast<unsigned long long>(snap.count));
  const std::string wrap = l.empty() ? "" : "{" + l + "}";
  out_ += strf("%s_sum%s %.9f\n", name, wrap.c_str(), snap.sum_seconds);
  out_ += strf("%s_count%s %llu\n", name, wrap.c_str(),
               static_cast<unsigned long long>(snap.count));
}

}  // namespace lamb::support
