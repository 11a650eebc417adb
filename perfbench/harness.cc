#include "perfbench/harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double pos = std::clamp((n + 1.0) * q, 1.0, n);  // 1-based
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (lo >= values.size()) return values.back();
  return values[lo - 1] + (values[lo] - values[lo - 1]) * frac;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const int64_t ld = static_cast<int64_t>(values.size());
  if (ld == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(values, n=4), method='exclusive', in the same
  // exact integer arithmetic.
  const int64_t n = 4;
  const int64_t m = ld + 1;
  double cuts[3];
  for (int64_t i = 1; i < n; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / n, 1, ld - 1);
    const int64_t delta = i * m - j * n;
    cuts[i - 1] = (values[static_cast<size_t>(j - 1)] *
                       static_cast<double>(n - delta) +
                   values[static_cast<size_t>(j)] *
                       static_cast<double>(delta)) /
                  static_cast<double>(n);
  }
  out.q1 = cuts[0];
  out.median = cuts[1];
  out.q3 = cuts[2];
  return out;
}

int64_t SamplesBeyond(int64_t n, double percentile) {
  if (n <= 0) return 0;
  // ceil with a small guard so 99% of 1000 is exactly rank 990.
  const double rank = std::ceil(static_cast<double>(n) * percentile / 100.0 -
                                1e-9);
  return n - static_cast<int64_t>(rank);
}

bool SupportsPercentile(int64_t n, double percentile) {
  return SamplesBeyond(n, percentile) >= kMinTailSamples;
}

double HighestSupportedPercentile(int64_t n) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (SupportsPercentile(n, p)) return p;
  }
  return 0.0;
}

double CheckedPercentile(const std::string& name, std::vector<double> values,
                         double percentile, Result* result) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (!SupportsPercentile(n, percentile)) {
    char why[160];
    std::snprintf(why, sizeof(why), "%s: %lld samples cannot support p%g",
                  name.c_str(), static_cast<long long>(n), percentile);
    result->Fail(why);
  }
  return Quantile(std::move(values), percentile / 100.0);
}

void Samples::Add(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_.push_back(value);
}

std::vector<double> Samples::Take() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

size_t Samples::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_.size();
}

double Tally::FailedFraction() const {
  const int64_t a = attempted();
  return a == 0 ? 0.0
                : static_cast<double>(failed()) / static_cast<double>(a);
}

MachineCpu operator-(const MachineCpu& later, const MachineCpu& earlier) {
  return MachineCpu{later.busy - earlier.busy, later.stolen - earlier.stolen};
}

MachineCpu& operator+=(MachineCpu& sum, const MachineCpu& delta) {
  sum.busy += delta.busy;
  sum.stolen += delta.stolen;
  return sum;
}

MachineCpu ParseProcStatCpu(const std::string& line) {
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  if (line.compare(0, 4, "cpu ") != 0 ||
      std::sscanf(line.c_str(), "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                  &user, &nice, &system, &idle, &iowait, &irq, &softirq,
                  &steal) != 8) {
    return MachineCpu{};
  }
  return MachineCpu{user + nice + system + irq + softirq, steal};
}

double StolenShare(const MachineCpu& window) {
  const int64_t asked = window.busy + window.stolen;
  if (asked <= 0 || window.stolen <= 0) return 0.0;
  return static_cast<double>(window.stolen) / static_cast<double>(asked);
}

double GrantedSeconds(double wall_s, const MachineCpu& window) {
  return wall_s * (1.0 - StolenShare(window));
}

double StageTable::StageSum() const {
  double sum = 0.0;
  for (const Stage& stage : stages) sum += stage.ns_per_task;
  return sum;
}

bool StageTable::StagesFit(double tolerance) const {
  return Residual() >= -tolerance * end_to_end_ns;
}

std::string StageTable::Render() const {
  std::string out = "stage table: " + title + "\n";
  char line[160];
  for (const Stage& stage : stages) {
    std::snprintf(line, sizeof(line), "  %-34s %12.1f ns/task  %6.1f%%\n",
                  stage.name.c_str(), stage.ns_per_task,
                  end_to_end_ns > 0.0
                      ? 100.0 * stage.ns_per_task / end_to_end_ns
                      : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-34s %12.1f ns/task  %6.1f%%\n",
                "residual", Residual(),
                end_to_end_ns > 0.0 ? 100.0 * Residual() / end_to_end_ns
                                    : 0.0);
  out += line;
  std::snprintf(line, sizeof(line), "  %-34s %12.1f ns/task\n",
                "end to end", end_to_end_ns);
  out += line;
  return out;
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Result::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Result::ToJson(int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {",
                attempted, failed);
  out += buf;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    // Non-finite values are not JSON; they only arise from an empty
    // measurement, which the checks already reject.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
