// Region atlas: the paper's future-work proposal for the LAMP with symbolic
// sizes (Sec. 5 — "knowledge of the location of abrupt changes in the
// performance profiles of the kernels will help to localise regions of
// severe anomalies").
//
// Given an expression family, a machine, a base instance and ONE symbolic
// dimension, the atlas scans the dimension's whole range once (at a coarse
// stride, refining around classification changes) and records the anomalous
// intervals together with the FLOP-minimal and fastest algorithm in each
// interval. At run time — when the symbolic size becomes known — a query is
// a short interval scan: it answers "can I trust the FLOP count here, and if
// not, which algorithm should I run instead?" without any further
// measurement.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "anomaly/classifier.hpp"

namespace lamb::anomaly {

struct AtlasInterval {
  int lo = 0;                 ///< inclusive
  int hi = 0;                 ///< inclusive
  bool anomalous = false;
  std::size_t recommended;    ///< fastest algorithm throughout the interval
  std::size_t flop_minimal;   ///< what the FLOP discriminant would pick
  double worst_time_score = 0.0;
};

struct AtlasConfig {
  int lo = 20;
  int hi = 1200;
  int coarse_step = 20;          ///< initial scan stride
  double time_score_threshold = 0.05;
};

class RegionAtlas {
 public:
  /// Scan dimension `dim` of `base` over [config.lo, config.hi].
  RegionAtlas(const expr::ExpressionFamily& family,
              model::MachineModel& machine, const expr::Instance& base,
              int dim, const AtlasConfig& config = {});

  /// Assemble an atlas from already-known parts — the deserialization path
  /// (store/atlas_io). Validates that `intervals` is a non-empty, contiguous
  /// partition of [config.lo, config.hi]; throws support::CheckError
  /// otherwise, so corrupt files cannot produce an atlas that violates the
  /// lookup() invariants.
  RegionAtlas(expr::Instance base, int dim, AtlasConfig config,
              std::vector<AtlasInterval> intervals, long long samples_used);

  const std::vector<AtlasInterval>& intervals() const { return intervals_; }
  int symbolic_dimension() const { return dim_; }
  const expr::Instance& base_instance() const { return base_; }
  const AtlasConfig& config() const { return config_; }

  /// Interval iteration (`for (const AtlasInterval& iv : atlas)`).
  std::vector<AtlasInterval>::const_iterator begin() const {
    return intervals_.begin();
  }
  std::vector<AtlasInterval>::const_iterator end() const {
    return intervals_.end();
  }

  /// The interval covering `size`. Sizes outside the scanned range clamp:
  /// anything below `config.lo` answers from the first interval, anything
  /// above `config.hi` from the last. A single-interval atlas therefore
  /// answers every query from that one interval. A linear scan suffices:
  /// the partition is contiguous and ascending, and an atlas holds only a
  /// handful of intervals (64 simulated slices at the default config had a
  /// mean of 1.9 and a max of 6), so the scan is a few compares and stays
  /// inline on the batch-answering path. The last interval ends at
  /// `config.hi`, which bounds the scan.
  const AtlasInterval& lookup(int size) const {
    const int c = size < config_.lo ? config_.lo
                  : size > config_.hi ? config_.hi
                                      : size;
    const AtlasInterval* interval = intervals_.data();
    while (interval->hi < c) {
      ++interval;
    }
    return *interval;
  }

  /// True when the FLOP-minimal algorithm is safe for this size.
  bool flops_reliable_at(int size) const;

  /// Index of the algorithm to run for this size (fastest per the atlas).
  std::size_t recommend(int size) const;

  /// Fraction of the scanned range covered by anomalous intervals.
  double anomalous_fraction() const;

  /// Number of classification samples spent building the atlas.
  long long samples_used() const { return samples_used_; }

  std::string to_string(
      const std::vector<std::string>& algorithm_names = {}) const;

  /// CSV rendering (header + one row per interval), the shape the store and
  /// the bench dumps share.
  std::string to_csv() const;

 private:
  expr::Instance base_;
  int dim_;
  AtlasConfig config_;
  std::vector<AtlasInterval> intervals_;
  long long samples_used_ = 0;
};

}  // namespace lamb::anomaly
