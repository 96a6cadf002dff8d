#include "anomaly/atlas.hpp"

#include <algorithm>
#include <map>

#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::anomaly {

namespace {

struct ScanPoint {
  int coord = 0;
  bool anomalous = false;
  std::size_t fastest = 0;
  std::size_t cheapest = 0;
  double time_score = 0.0;
};

}  // namespace

RegionAtlas::RegionAtlas(const expr::ExpressionFamily& family,
                         model::MachineModel& machine,
                         const expr::Instance& base, int dim,
                         const AtlasConfig& config)
    : base_(base), dim_(dim), config_(config) {
  LAMB_CHECK(dim >= 0 && dim < family.dimension_count(),
             "atlas: dimension out of range");
  LAMB_CHECK(config.lo >= 1 && config.hi >= config.lo, "atlas: bad range");
  LAMB_CHECK(config.coarse_step >= 1, "atlas: bad stride");

  const auto classify_at = [&](int coord) {
    expr::Instance dims = base_;
    dims[static_cast<std::size_t>(dim_)] = coord;
    const InstanceResult r = classify_instance(family, machine, dims,
                                               config_.time_score_threshold);
    ++samples_used_;
    return ScanPoint{coord, r.anomaly, r.fastest.front(), r.cheapest.front(),
                     r.time_score};
  };

  // Coarse scan (always including both endpoints).
  std::vector<ScanPoint> points;
  for (int c = config_.lo; c <= config_.hi; c += config_.coarse_step) {
    points.push_back(classify_at(c));
  }
  if (points.back().coord != config_.hi) {
    points.push_back(classify_at(config_.hi));
  }

  // Refine every anomalous-status flip down to unit resolution by bisection.
  std::vector<ScanPoint> refined;
  refined.push_back(points.front());
  for (std::size_t i = 1; i < points.size(); ++i) {
    ScanPoint left = points[i - 1];
    ScanPoint right = points[i];
    if (left.anomalous != right.anomalous) {
      while (right.coord - left.coord > 1) {
        const int mid = left.coord + (right.coord - left.coord) / 2;
        const ScanPoint p = classify_at(mid);
        if (p.anomalous == left.anomalous) {
          left = p;
        } else {
          right = p;
        }
      }
      refined.push_back(left);
    }
    refined.push_back(points[i]);
  }

  // Merge consecutive points of equal anomalous status into intervals,
  // recording the majority-fastest algorithm and the worst severity.
  std::size_t begin = 0;
  while (begin < refined.size()) {
    std::size_t end = begin;
    while (end + 1 < refined.size() &&
           refined[end + 1].anomalous == refined[begin].anomalous) {
      ++end;
    }
    AtlasInterval interval;
    interval.lo = (begin == 0) ? config_.lo : refined[begin].coord;
    interval.hi =
        (end + 1 == refined.size()) ? config_.hi : refined[end].coord;
    interval.anomalous = refined[begin].anomalous;
    std::map<std::size_t, int> fastest_votes;
    std::map<std::size_t, int> cheapest_votes;
    for (std::size_t i = begin; i <= end; ++i) {
      ++fastest_votes[refined[i].fastest];
      ++cheapest_votes[refined[i].cheapest];
      interval.worst_time_score =
          std::max(interval.worst_time_score, refined[i].time_score);
    }
    const auto majority = [](const std::map<std::size_t, int>& votes) {
      std::size_t best = 0;
      int count = -1;
      for (const auto& [alg, n] : votes) {
        if (n > count) {
          count = n;
          best = alg;
        }
      }
      return best;
    };
    interval.recommended = majority(fastest_votes);
    interval.flop_minimal = majority(cheapest_votes);
    intervals_.push_back(interval);
    begin = end + 1;
  }

  // Make the interval bounds contiguous.
  for (std::size_t i = 1; i < intervals_.size(); ++i) {
    intervals_[i].lo = intervals_[i - 1].hi + 1;
    if (intervals_[i].lo > intervals_[i].hi) {
      intervals_[i].hi = intervals_[i].lo;
    }
  }
  intervals_.back().hi = config_.hi;
}

RegionAtlas::RegionAtlas(expr::Instance base, int dim, AtlasConfig config,
                         std::vector<AtlasInterval> intervals,
                         long long samples_used)
    : base_(std::move(base)), dim_(dim), config_(config),
      intervals_(std::move(intervals)), samples_used_(samples_used) {
  LAMB_CHECK(dim_ >= 0, "atlas: negative dimension");
  LAMB_CHECK(static_cast<std::size_t>(dim_) < base_.size(),
             "atlas: dimension out of range");
  LAMB_CHECK(config_.hi >= config_.lo, "atlas: bad range");
  LAMB_CHECK(!intervals_.empty(), "atlas: no intervals");
  int expected_lo = config_.lo;
  for (const AtlasInterval& interval : intervals_) {
    LAMB_CHECK(interval.lo == expected_lo && interval.hi >= interval.lo,
               "atlas: intervals must partition the range contiguously");
    expected_lo = interval.hi + 1;
  }
  LAMB_CHECK(intervals_.back().hi == config_.hi,
             "atlas: intervals must end at config.hi");
}

bool RegionAtlas::flops_reliable_at(int size) const {
  return !lookup(size).anomalous;
}

std::size_t RegionAtlas::recommend(int size) const {
  return lookup(size).recommended;
}

double RegionAtlas::anomalous_fraction() const {
  long long anomalous = 0;
  long long total = 0;
  for (const AtlasInterval& interval : intervals_) {
    const long long width = interval.hi - interval.lo + 1;
    total += width;
    if (interval.anomalous) {
      anomalous += width;
    }
  }
  return total > 0 ? static_cast<double>(anomalous) /
                         static_cast<double>(total)
                   : 0.0;
}

std::string RegionAtlas::to_string(
    const std::vector<std::string>& algorithm_names) const {
  const auto name_of = [&](std::size_t i) {
    if (i < algorithm_names.size()) {
      return algorithm_names[i];
    }
    return support::strf("#%zu", i + 1);
  };
  std::string out = support::strf(
      "region atlas along d%d (other dims fixed), %lld samples:\n", dim_,
      samples_used_);
  for (const AtlasInterval& interval : intervals_) {
    out += support::strf(
        "  [%4d, %4d]  %-12s  run %-10s (FLOP-min: %s, worst ts %.1f%%)\n",
        interval.lo, interval.hi,
        interval.anomalous ? "ANOMALOUS" : "flops-safe",
        name_of(interval.recommended).c_str(),
        name_of(interval.flop_minimal).c_str(),
        100.0 * interval.worst_time_score);
  }
  return out;
}

std::string RegionAtlas::to_csv() const {
  std::string out =
      "dim,lo,hi,anomalous,recommended,flop_minimal,worst_time_score\n";
  for (const AtlasInterval& interval : intervals_) {
    out += support::strf("%d,%d,%d,%d,%zu,%zu,%.17g\n", dim_, interval.lo,
                         interval.hi, interval.anomalous ? 1 : 0,
                         interval.recommended, interval.flop_minimal,
                         interval.worst_time_score);
  }
  return out;
}

}  // namespace lamb::anomaly
