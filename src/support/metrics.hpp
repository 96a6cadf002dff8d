// Counter sets and their Prometheus text exposition.
//
// A counter set is a plain struct of integer (and, for gauges, double)
// fields — ServiceStats, HttpStatsSnapshot, DriftStats, ... — that serves
// as its own read view. Each set has ONE static table of MetricRow: the
// member, the series name, its labels, its kind and its help text. Every
// reader is a loop over that table: the live instance is bumped with
// relaxed std::atomic_ref adds (count()), snapshotted field by field
// (load_relaxed()), summed across instances (add_rows()) and exported by
// MetricsWriter::rows(). Adding a series is adding a row.
//
// MetricsWriter pins the exposition format (scripts/metrics_lint.sh): every
// family announces # HELP and # TYPE before its first series, counters are
// integral, gauges may be fractional, histograms emit the cumulative
// _bucket/_sum/_count triple, and the kind a family declares is enforced on
// each of its series.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "support/histogram.hpp"

namespace lamb::support {

/// One exported series of the counter set V. Rows that follow a row with
/// the same family carry an empty name (and no help): they add a series
/// with other labels. A row with a null name has no series of its own — it
/// is still read and summed (a labelled family elsewhere exports it).
template <class V>
struct MetricRow {
  std::variant<std::uint64_t V::*, long long V::*, double V::*> member;
  const char* name;    ///< family name; "" = the family above; null = none
  const char* labels;  ///< "{key=\"value\"}" or ""
  const char* kind;    ///< "counter" or "gauge"
  const char* help;    ///< on the family's first row only
};

static_assert(std::atomic_ref<std::uint64_t>::required_alignment ==
                  alignof(std::uint64_t),
              "counter-set fields are bumped in place through atomic_ref");

/// A live counter bump: one relaxed atomic add. A gauge field goes down
/// with n = -1 (unsigned fields wrap back exactly).
template <class T>
inline void count(T& field, std::type_identity_t<T> n = 1) {
  std::atomic_ref<T>(field).fetch_add(n, std::memory_order_relaxed);
}

template <class T>
inline T load_relaxed(T& field) {
  return std::atomic_ref<T>(field).load(std::memory_order_relaxed);
}

/// True when no earlier row of the table reads row i's field.
template <class V>
constexpr bool first_read(std::span<const MetricRow<V>> table,
                          std::size_t i) {
  for (std::size_t j = 0; j < i; ++j) {
    if (table[j].member == table[i].member) {
      return false;
    }
  }
  return true;
}

/// The distinct fields a table reads. A counter set of 8-byte fields
/// asserts that its table covers every field, since a field without a row
/// would read as 0:
///   static_assert(8 * field_count<S>(kSMetrics) == sizeof(S));
template <class V>
constexpr std::size_t field_count(
    std::span<const MetricRow<std::type_identity_t<V>>> table) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    n += first_read(table, i) ? 1 : 0;
  }
  return n;
}

/// The read view of a live counter set: every field a row names, loaded
/// with one relaxed atomic load each.
template <class V>
V load_relaxed(std::span<const MetricRow<std::type_identity_t<V>>> table,
               V& live) {
  V out{};
  for (const MetricRow<V>& row : table) {
    std::visit([&](auto member) { out.*member = load_relaxed(live.*member); },
               row.member);
  }
  return out;
}

/// Sums `from` into `into`, each field once (a field exported by several
/// rows is added by its first row only).
template <class V>
void add_rows(std::span<const MetricRow<std::type_identity_t<V>>> table,
              V& into, const V& from) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (first_read(table, i)) {
      std::visit([&](auto member) { into.*member += from.*member; },
                 table[i].member);
    }
  }
}

class MetricsWriter {
 public:
  explicit MetricsWriter(std::size_t reserve = 4096) { out_.reserve(reserve); }

  /// Declare a family: kind is "counter", "gauge" or "histogram". Must
  /// precede the family's first series (the lint rejects orphan series).
  /// Returns `name`, so a one-series family reads
  /// `w.gauge(w.family(name, "gauge", help), value)`.
  const char* family(const char* name, const char* kind, const char* help);

  /// One counter series; labels like "{source=\"cache\"}" or "" for none.
  /// The family must have been declared "counter" (LAMB_CHECK enforced —
  /// scrape-path cost, never hot-path).
  void counter(const char* name, std::uint64_t value) {
    counter(name, "", value);
  }
  void counter(const char* name, std::string_view labels,
               std::uint64_t value);

  /// One gauge series (fractional allowed; integral values print exact).
  void gauge(const char* name, double value) { gauge(name, "", value); }
  void gauge(const char* name, std::string_view labels, double value);

  /// The full histogram triple from a snapshot; label ("stage=\"kernel\"",
  /// no braces) is prefixed onto each bucket's `le`.
  void histogram(const char* name, std::string_view label,
                 const LatencyHistogram::Snapshot& snap);

  // GCC 12 analyses every alternative of a row's member variant, including
  // ones a table never holds, and then warns that `view.*member` may read
  // uninitialised bytes; the reads are of live, initialised fields.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  /// Every named row of a counter-set table, read from `view`.
  template <class V>
  void rows(std::span<const MetricRow<std::type_identity_t<V>>> table,
            const V& view) {
    const char* family_name = nullptr;
    for (const MetricRow<V>& row : table) {
      if (row.name == nullptr) {
        continue;
      }
      if (*row.name != '\0') {
        family(row.name, row.kind, row.help);
        family_name = row.name;
      }
      std::visit([&](auto member) {
        series(family_name, row.kind, row.labels, view.*member);
      }, row.member);
    }
  }

  /// The same table with one series per view, labelled key="label(i)" —
  /// e.g. one per event loop or per pipeline stage. Every row here names
  /// its own family.
  template <class Views, class LabelFn>
  void rows(std::span<const MetricRow<typename Views::value_type>> table,
            const Views& views, const char* key, const LabelFn& label) {
    for (const auto& row : table) {
      std::visit([&](auto member) {
        labelled(row.name, row.kind, row.help, key, views.size(), label,
                 [&](std::size_t i) { return views[i].*member; });
      }, row.member);
    }
  }

#pragma GCC diagnostic pop

  /// One family with a series per i < n, labelled key="label(i)": value(i)
  /// is a count, a gauge reading or (kind "histogram") a snapshot.
  template <class LabelFn, class ValueFn>
  void labelled(const char* name, const char* kind, const char* help,
                const char* key, std::size_t n, const LabelFn& label,
                const ValueFn& value) {
    family(name, kind, help);
    std::string labels;
    for (std::size_t i = 0; i < n; ++i) {
      labels.assign(key).append("=\"").append(label(i)).append("\"");
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value(i))>,
                                   LatencyHistogram::Snapshot>) {
        histogram(name, labels, value(i));
      } else {
        series(name, kind, "{" + labels + "}", value(i));
      }
    }
  }

  std::string take() { return std::move(out_); }

 private:
  template <class T>
  void series(const char* name, const char* kind, std::string_view labels,
              T value) {
    if constexpr (std::is_integral_v<T>) {
      if (std::strcmp(kind, "counter") == 0) {
        if constexpr (std::is_signed_v<T>) {
          value = value < 0 ? 0 : value;
        }
        counter(name, labels, static_cast<std::uint64_t>(value));
        return;
      }
    }
    gauge(name, labels, static_cast<double>(value));
  }

  void check_kind(const char* name, const char* expected) const;

  std::string out_;
  /// The last declared family, for kind enforcement. One family's series
  /// are contiguous in this format, so remembering only the latest
  /// declaration suffices.
  std::string last_family_;
  std::string last_kind_;
};

}  // namespace lamb::support
