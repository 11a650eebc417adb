// Shared fleet plumbing for the perfbench workloads: generated inputs,
// campaign construction, deterministic-mode reference reports, the
// first-task observer, the open-loop poller, registry deltas and the
// per-phase statistics every workload reports its end-to-end metrics
// from.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/allocation.h"
#include "src/obs/export.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/service/completion_source.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/util/status.h"

namespace perfbench {

namespace service = incentag::service;
namespace sim = incentag::sim;
namespace core = incentag::core;
namespace persist = incentag::persist;
namespace obs = incentag::obs;
namespace util = incentag::util;

// Nanoseconds on the steady clock (the same clock the obs layer uses).
uint64_t NowNs();
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

// A generated corpus and its prepared dataset; the corpus stays alive
// for the dataset's lifetime.
struct Dataset {
  std::unique_ptr<sim::Corpus> corpus;
  sim::PreparedDataset prepared;
  int64_t future_posts = 0;  // total posts every stream can supply
};

// Generates the corpus for `num_resources` and prepares it; aborts on
// generator errors (the inputs are the benchmark's own).
std::unique_ptr<Dataset> MakeDataset(int64_t num_resources, uint64_t seed);

// The deterministic inputs of one campaign — everything a
// deterministic-mode rerun needs to reproduce its report.
struct CampaignSpec {
  std::string name;
  std::string strategy;
  int64_t budget = 0;
  int64_t batch = 1;
  int32_t priority = 1;
  uint64_t seed = 0;

  std::string Key() const;
};

// The five practical strategies in campaign_server's cycling order.
extern const char* const kStrategies[5];

service::CampaignConfig BuildConfig(const CampaignSpec& spec,
                                    const sim::PreparedDataset& ds);
CampaignSpec SpecFromSubmit(const persist::SubmitRecord& record);

// The RunReport's deterministic content (strategy, allocation,
// checkpoints, final metrics, spend, stop flag — doubles bit-exact, wall
// clock excluded) as bytes, so "byte-identical" is a string compare.
std::string ReportBytes(const core::RunReport& report);

// Deterministic-mode reports, computed once per distinct spec.
class ReferenceCache {
 public:
  explicit ReferenceCache(const sim::PreparedDataset* ds) : ds_(ds) {}
  // Empty string when the deterministic run itself failed.
  const std::string& Get(const CampaignSpec& spec);

 private:
  const sim::PreparedDataset* ds_;
  std::map<std::string, std::string> reports_;
};

// Inline completions (the manager's default crowd) that also records
// when each campaign's first task batch was handed out — the
// "submit accepted -> first task" clock for in-process fleets.
class FirstTaskSource : public service::CompletionSource {
 public:
  static constexpr size_t kMaxCampaigns = size_t{1} << 17;
  FirstTaskSource();
  bool SubmitTasks(const std::vector<service::TaskHandle>& tasks,
                   const CompletionFn& done) override;
  // 0 until the campaign's first batch was handed out.
  uint64_t FirstTaskNs(service::CampaignId id) const;

 private:
  std::unique_ptr<std::atomic<uint64_t>[]> first_ns_;
};

// An open-loop request generator: request i is due at start + i/rate
// whatever happened to earlier requests. Latency is timed from the due
// time, so a stall also charges the requests queued behind it; how late
// the generator itself ran is reported separately.
class OpenLoopPoller {
 public:
  // `op(i)` performs request i and returns whether it succeeded.
  OpenLoopPoller(double rate_hz, std::function<bool(int64_t)> op,
                 Tally* tally);
  ~OpenLoopPoller();
  OpenLoopPoller(const OpenLoopPoller&) = delete;
  OpenLoopPoller& operator=(const OpenLoopPoller&) = delete;

  void Start();
  void Stop();  // joins; idempotent
  std::vector<double> latency_ms() const { return latency_ms_.Take(); }
  std::vector<double> late_ms() const { return late_ms_.Take(); }

 private:
  void Loop();

  const double rate_hz_;
  std::function<bool(int64_t)> op_;
  Tally* tally_;
  Samples latency_ms_;
  Samples late_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Takes shared references and drops them on its own thread, so whichever
// reference to a retiring manager turns out to be the last, its slow
// destructor (pool joins, final fsync) never runs on a timed path.
template <typename T>
class Reaper {
 public:
  Reaper() : thread_([this] { Loop(); }) {}
  // Drops everything still queued, then joins.
  ~Reaper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;

  void Drop(std::shared_ptr<T> ref) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(ref));
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    for (;;) {
      std::shared_ptr<T> ref;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        ref = std::move(queue_.front());
        queue_.pop_front();
      }
      ref.reset();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<T>> queue_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// Counter/histogram movement of the process-wide obs registry between
// two snapshots.
class RegistryDelta {
 public:
  RegistryDelta(const obs::MetricsSnapshot& before,
                const obs::MetricsSnapshot& after)
      : before_(before), after_(after) {}
  int64_t Counter(const std::string& name,
                  const std::string& labels = {}) const;
  // Bucket-wise difference; count 0 when the histogram did not move.
  obs::HistogramSample Histogram(const std::string& name,
                                 const std::string& labels = {}) const;

 private:
  const obs::MetricsSnapshot& before_;
  const obs::MetricsSnapshot& after_;
};

// Everything one timed phase of a workload observed. End-to-end metrics
// come from here for every workload; per-layer metrics add the registry
// delta and the layer probes.
struct PhaseStats {
  double wall_s = 0.0;  // timed window
  int64_t tasks = 0;    // completions applied in the window
  int64_t campaigns = 0;
  int64_t journal_bytes = 0;  // on disk once the phase drained
  int64_t journaled_tasks = 0;  // completions those journal bytes hold
  double quanta = 0.0;        // scheduler quanta, summed over campaigns
  Samples campaign_ms;        // submit (or Recover) -> terminal
  Samples first_task_ms;      // submit (or Recover) -> first task out
  Samples read_ms;            // edge status/list polls, from due time
  Samples poller_late_ms;     // edge poller lateness
  Samples submit_us;          // service: Submit call
  Samples build_us;           // submitter: building the config (stream)
  double cpu_s = 0.0;         // process CPU time in the timed window
  MachineCpu machine;         // machine CPU time in the timed window
  Samples queue_delay_ms;     // service: submit -> first step
  Samples status_us;          // service: Status call, after drain
  Samples list_us;            // service: List(limit=50), after drain
  // What the last read probe returned, for the encode probes.
  service::CampaignStatus last_status;
  service::CampaignPage last_page;
  int workers = 0;
  int64_t peak_rss_kb = 0;  // highest resident set seen during the phase
  std::string sample_journal_dir;  // kept for the recovery probe
  std::unique_ptr<obs::MetricsSnapshot> before;
  std::unique_ptr<obs::MetricsSnapshot> after;
};

// Journal bytes in `dir` (files ending in .journal).
int64_t JournalBytes(const std::string& dir);

// Times Status(id) and List(limit=50) `rounds` times each on a live
// manager, after its fleet drained.
void ProbeReads(const service::CampaignManager& manager,
                const std::vector<service::CampaignId>& ids, int rounds,
                PhaseStats* stats);

// Records the fleet-shaped outcome of one terminal campaign.
void RecordTerminal(const service::CampaignStatus& status,
                    PhaseStats* stats);

// The machine's CPU time so far (/proc/stat); all zero when unreadable.
MachineCpu ReadMachineCpu();

// CPU time this process has used, every thread included.
double ProcessCpuSeconds();

// Current resident set of this process, KiB.
int64_t CurrentRssKb();

// Samples the resident set every few milliseconds while it runs; the
// process-lifetime high-water mark would only ever grow across
// repetitions.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();  // stops and joins
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  int64_t peak_kb() const { return peak_kb_.load(); }

 private:
  std::atomic<int64_t> peak_kb_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

// Filesystem type name of `path` (ext4, xfs, tmpfs, ...).
std::string FilesystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
