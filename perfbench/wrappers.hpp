// Outside-in probes for the model and expr layers: a MachineModel and an
// ExpressionFamily that forward every call to the real one and time it. The
// service is pointed at them in the traced run only, so the untraced run
// measures the library exactly as users call it.
#pragma once

#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "expr/registry.hpp"
#include "model/machine.hpp"

namespace perfbench {

class TimedMachine final : public lamb::model::MachineModel {
 public:
  explicit TimedMachine(lamb::model::MachineModel& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  double peak_flops() const override { return inner_.peak_flops(); }
  bool concurrent_timing_safe() const override {
    return inner_.concurrent_timing_safe();
  }

  std::vector<double> time_steps(const lamb::model::Algorithm& alg) override {
    const std::uint64_t t0 = now_ns();
    std::vector<double> steps = inner_.time_steps(alg);
    const std::uint64_t t1 = now_ns();
    account(t0, t1, std::accumulate(steps.begin(), steps.end(), 0.0));
    return steps;
  }

  double time_call_isolated(const lamb::model::KernelCall& call) override {
    const std::uint64_t t0 = now_ns();
    const double t = inner_.time_call_isolated(call);
    account(t0, now_ns(), t);
    return t;
  }

  std::uint64_t calls() const { return calls_.load(); }
  /// Wall time spent inside the inner machine, ns.
  std::uint64_t busy_ns() const { return busy_ns_.load(); }
  /// Sum of the medians the inner machine returned, seconds: one
  /// repetition's kernel time per call.
  double returned_s() const { return returned_s_.load(); }

 private:
  void account(std::uint64_t t0, std::uint64_t t1, double returned) {
    calls_.fetch_add(1);
    busy_ns_.fetch_add(t1 - t0);
    returned_s_.fetch_add(returned);
    if (spans().enabled()) {
      spans().record("model", t0, t1);
    }
  }

  lamb::model::MachineModel& inner_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<double> returned_s_{0.0};
};

class TimedFamily final : public lamb::expr::ExpressionFamily {
 public:
  explicit TimedFamily(std::unique_ptr<lamb::expr::ExpressionFamily> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int dimension_count() const override { return inner_->dimension_count(); }

  std::vector<lamb::model::Algorithm> algorithms(
      const lamb::expr::Instance& dims) const override {
    const SpanScope span("expr");
    return inner_->algorithms(dims);
  }

  std::vector<lamb::la::Matrix> make_externals(
      const lamb::expr::Instance& dims,
      lamb::support::Rng& rng) const override {
    return inner_->make_externals(dims, rng);
  }

 private:
  std::unique_ptr<lamb::expr::ExpressionFamily> inner_;
};

/// A registry serving the benchmark's two families through TimedFamily.
inline lamb::expr::FamilyRegistry timed_registry() {
  lamb::expr::FamilyRegistry registry;
  for (const char* name : {"aatb", "chain4"}) {
    registry.add(name, "timed " + std::string(name), [name] {
      return std::make_unique<TimedFamily>(lamb::expr::make_family(name));
    });
  }
  return registry;
}

}  // namespace perfbench
