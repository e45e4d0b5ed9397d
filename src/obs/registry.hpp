// Labeled metrics registry: counters, gauges, and histograms keyed by
// (name, sorted labels).  One Registry lives inside each tmk::Cluster so a
// sweep's runs never contaminate each other; snapshot() is
// deterministically ordered.
//
// A layer that wants a new number without a home in an existing report
// struct records it here instead of threading a fresh field through
// stats.hpp, the reducers, and every table printer -- the chk layer's
// violation counts, for example:
//   cluster.metrics().counter("chk_violations", {{"checker", "races"}}).inc();
// A series that a report struct also holds is a duplicate: keep one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats_accum.hpp"

namespace repseq::obs {

/// Label set for one metric series.  Callers may pass pairs in any order;
/// the registry sorts them so {"a","1"},{"b","2"} and {"b","2"},{"a","1"}
/// name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Histogram metric: a thin veneer over util::Accumulator, which carries
/// the streaming p50/p95/p99 support -- no parallel implementation here.
class Histogram {
 public:
  void observe(double v) { acc_.add(v); }
  [[nodiscard]] const util::Accumulator& accum() const { return acc_; }

 private:
  util::Accumulator acc_;
};

class Registry {
 public:
  /// Looks up or creates the series; references stay valid for the
  /// registry's lifetime (node-based map storage).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  struct Series {
    std::string name;
    Labels labels;  // sorted
    enum class Kind { Counter, Gauge, Histogram } kind;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    const util::Accumulator* hist = nullptr;  // valid while the Registry lives
  };

  /// All series sorted by (name, labels) -- safe to print or diff.
  [[nodiscard]] std::vector<Series> snapshot() const;

  /// Convenience point lookups for report code; zero / empty when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            Labels labels = {}) const;
  [[nodiscard]] double gauge_value(const std::string& name, Labels labels = {}) const;

  /// Distinct values of `label` seen across series named `name`, sorted.
  [[nodiscard]] std::vector<std::string> label_values(const std::string& name,
                                                      const std::string& label) const;

 private:
  using Key = std::pair<std::string, Labels>;
  static Key make_key(const std::string& name, Labels labels);

  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace repseq::obs
