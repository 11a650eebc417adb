// Measurement plumbing shared by every perfbench workload: sample
// statistics, the tail-percentile rule, attempt/failure tallies, the
// per-task stage table and the one-line JSON result.
//
// Kept free of incentag headers so harness_test.cc checks the arithmetic
// without building a fleet.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Median of `values` (mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> values);

// Quantile q in [0, 1] by the "exclusive" rule Python's
// statistics.quantiles uses (position (n + 1) * q, linear interpolation,
// clamped to the sample range); 0 when empty.
double Quantile(std::vector<double> values, double q);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// The three cut points of statistics.quantiles(values, n=4).
Quartiles ComputeQuartiles(std::vector<double> values);

// Number of samples strictly above the p-th percentile's rank,
// n - ceil(n * p / 100). A percentile is reportable only when at least
// kMinTailSamples samples lie beyond it.
int64_t SamplesBeyond(int64_t n, double percentile);
inline constexpr int64_t kMinTailSamples = 10;
bool SupportsPercentile(int64_t n, double percentile);

// The highest of 50, 90, 99, 99.9 and 99.99 with at least
// kMinTailSamples samples beyond it; 0 when not even the median is.
double HighestSupportedPercentile(int64_t n);

class Result;

// The `percentile` of `values`, marking `result` incorrect when fewer than
// kMinTailSamples samples lie beyond it.
double CheckedPercentile(const std::string& name, std::vector<double> values,
                         double percentile, Result* result);

// Thread-safe latency sample collector (milliseconds or microseconds —
// the caller picks the unit and names it).
class Samples {
 public:
  void Add(double value);
  std::vector<double> Take() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

// Attempted/failed operation counts. An operation that fails still
// counts as attempted, and a failed timed operation counts as missing
// every latency limit (the caller records no latency sample for it).
class Tally {
 public:
  void Record(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  int64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  // failed / attempted; 0 when nothing was attempted.
  double FailedFraction() const;

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

// Machine-wide CPU time in clock ticks, from the "cpu" line of
// /proc/stat. `busy` is time the guest's CPUs ran anything (user, nice,
// system, irq, softirq); `stolen` is time they were runnable but the
// hypervisor ran another guest instead.
struct MachineCpu {
  int64_t busy = 0;
  int64_t stolen = 0;
};

MachineCpu operator-(const MachineCpu& later, const MachineCpu& earlier);
MachineCpu& operator+=(MachineCpu& sum, const MachineCpu& delta);

// Parses the aggregate "cpu  user nice system idle iowait irq softirq
// steal ..." line; all zero when it is not one.
MachineCpu ParseProcStatCpu(const std::string& line);

// Share of the CPU time the machine asked for that the hypervisor
// withheld: stolen / (busy + stolen), 0 when nothing ran.
double StolenShare(const MachineCpu& window);

// The part of a `wall_s` window the machine's CPUs were granted:
// wall_s * (1 - StolenShare(window)). Rates divide by this, so a
// neighbour on the host that takes CPU time away does not read as the
// program slowing down; idle time and wake-ups still count in full.
double GrantedSeconds(double wall_s, const MachineCpu& window);

// One stage of the per-task cost table.
struct Stage {
  std::string name;
  double ns_per_task = 0.0;
};

// Per-task cost split: the named stages plus a residual line, defined by
// subtraction, that makes them add up to the end-to-end figure.
struct StageTable {
  std::string title;
  double end_to_end_ns = 0.0;
  std::vector<Stage> stages;

  double StageSum() const;
  // end_to_end_ns - StageSum(); negative when the isolated stage costs
  // exceed what the fleet spent per task.
  double Residual() const { return end_to_end_ns - StageSum(); }
  // False when the stages over-account: the residual is negative by more
  // than `tolerance` of the end-to-end figure, so the isolated costs
  // claim more time than the fleet had.
  bool StagesFit(double tolerance = 0.02) const;
  std::string Render() const;
};

// The run's result line: ordered metrics with units.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect and prints `why` to stderr.
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  // {"correct":...,"attempted":...,"failed":...,"metrics":{...}} with
  // every digit of each value.
  std::string ToJson(int64_t attempted, int64_t failed) const;

 private:
  bool correct_ = true;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
