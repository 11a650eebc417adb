// Closed-loop in-process fleet: one submitter thread keeps a fixed number
// of campaigns in flight on a journaled CampaignManager with inline
// completions.
//
// A manager keeps every terminal campaign's stream copy and runtime until
// it is destroyed, so one manager serves a fixed number of campaigns (an
// epoch) and is then retired once its last campaign ends; the next
// epoch's manager takes new submissions meanwhile, so the number in
// flight never dips. Peak memory then reflects the epoch size, not how
// many campaigns a faster build fits into the run.
#include <chrono>
#include <condition_variable>
#include <deque>

#include "perfbench/workloads.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace perfbench {

namespace {

// Journal bytes of retired epochs.
struct Retired {
  std::mutex mu;
  int64_t journal_bytes = 0;
};

// One manager's lifetime. Shut down and its journals measured when the
// last reference drops on the reaper thread; the files stay until the
// repetition ends, so no unlink competes with the fleet's fsyncs.
struct Epoch {
  FirstTaskSource source;
  std::unique_ptr<service::CampaignManager> manager;
  std::string dir;
  Retired* retired = nullptr;

  ~Epoch() {
    manager->Shutdown();
    const int64_t bytes = JournalBytes(dir);
    std::lock_guard<std::mutex> lock(retired->mu);
    retired->journal_bytes += bytes;
  }
};

struct Submitted {
  std::shared_ptr<Epoch> epoch;
  service::CampaignId id = 0;
  int64_t index = 0;
  CampaignSpec spec;
  uint64_t submit_ns = 0;
};

// Slots plus the hand-off queue between the submitter and the waiters.
class Pipeline {
 public:
  explicit Pipeline(int slots) : free_(slots) {}

  void AcquireSlot() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return free_ > 0; });
    --free_;
  }
  void ReleaseSlot() {
    std::lock_guard<std::mutex> lock(mu_);
    ++free_;
    cv_.notify_all();
  }
  void Push(Submitted s) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(s));
    cv_.notify_all();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }
  // False once closed and drained.
  bool Pop(Submitted* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int free_;
  bool closed_ = false;
  std::deque<Submitted> queue_;
};

}  // namespace

void RunInProcessFleet(const InProcessFleet& fleet, PhaseStats* stats,
                       std::vector<Finished>* finished, Tally* tally) {
  stats->workers = fleet.workers;
  stats->sample_journal_dir = fleet.journal_dir + "/epoch-0";
  stats->before = std::make_unique<obs::MetricsSnapshot>(
      obs::Registry::Default().Snapshot());
  Retired retired;
  auto reaper = std::make_unique<Reaper<Epoch>>();
  int epochs = 0;
  auto new_epoch = [&] {
    auto epoch = std::make_shared<Epoch>();
    epoch->dir = fleet.journal_dir + "/epoch-" + std::to_string(epochs);
    epoch->retired = &retired;
    ++epochs;
    service::ManagerOptions options;
    options.num_threads = fleet.workers;
    options.journal_dir = epoch->dir;
    options.compact_journal_bytes = fleet.compact_bytes;
    options.completions = &epoch->source;
    epoch->manager = std::make_unique<service::CampaignManager>(options);
    return epoch;
  };

  std::shared_ptr<Epoch> first_epoch = new_epoch();
  service::CampaignId latest = 0;  // the last epoch's newest campaign
  Pipeline pipeline(fleet.inflight);
  std::mutex finished_mu;
  uint64_t last_terminal_ns = 0;
  auto waiter = [&] {
    Submitted s;
    while (pipeline.Pop(&s)) {
      service::CampaignManager& manager = *s.epoch->manager;
      auto result = manager.WaitFor(s.id, std::chrono::minutes(2));
      const uint64_t end_ns = NowNs();
      Finished f;
      f.spec = s.spec;
      bool ok = result.ok();
      if (ok) {
        f.state = result.value().state;
        f.error = result.value().error;
        ok = f.state == service::CampaignState::kDone;
        if (ok && fleet.keep_report(s.index)) {
          f.report = ReportBytes(result.value().report);
        }
      } else {
        f.error = result.status().ToString();
      }
      tally->Record(ok);
      auto status = manager.Status(s.id);
      const uint64_t first = s.epoch->source.FirstTaskNs(s.id);
      {
        std::lock_guard<std::mutex> lock(finished_mu);
        if (ok) {
          stats->campaign_ms.Add(NsToMs(end_ns - s.submit_ns));
          if (first != 0) {
            stats->first_task_ms.Add(NsToMs(first - s.submit_ns));
          }
          ++stats->campaigns;
        }
        if (status.ok()) {
          stats->tasks += status.value().tasks_completed;
          RecordTerminal(status.value(), stats);
        }
        last_terminal_ns = std::max(last_terminal_ns, end_ns);
        finished->push_back(std::move(f));
      }
      pipeline.ReleaseSlot();
      reaper->Drop(std::move(s.epoch));
    }
  };

  std::vector<std::thread> waiters;
  for (int i = 0; i < fleet.inflight; ++i) waiters.emplace_back(waiter);

  const double cpu_start = ProcessCpuSeconds();
  const MachineCpu machine_start = ReadMachineCpu();
  const uint64_t start_ns = NowNs();
  const uint64_t deadline =
      start_ns + static_cast<uint64_t>(fleet.seconds * 1e9);
  // Slow machines keep going until the tail percentiles are supported,
  // but never past three times the requested run length.
  const uint64_t hard_deadline =
      start_ns + static_cast<uint64_t>(3.0 * fleet.seconds * 1e9);
  std::shared_ptr<Epoch> last_epoch;
  std::thread submitter([&] {
    std::shared_ptr<Epoch> epoch = std::move(first_epoch);
    int64_t in_epoch = 0;
    for (int64_t index = 0;; ++index) {
      pipeline.AcquireSlot();
      const uint64_t now = NowNs();
      if ((now >= deadline && index >= fleet.min_campaigns) ||
          now >= hard_deadline) {
        pipeline.ReleaseSlot();
        break;
      }
      if (in_epoch == fleet.epoch_campaigns) {
        reaper->Drop(std::move(epoch));
        epoch = new_epoch();
        in_epoch = 0;
      }
      ++in_epoch;
      Submitted s;
      s.epoch = epoch;
      s.index = index;
      s.spec = fleet.spec(index);
      const uint64_t build_ns = NowNs();
      service::CampaignConfig config =
          BuildConfig(s.spec, fleet.data->prepared);
      s.submit_ns = NowNs();
      stats->build_us.Add(NsToUs(s.submit_ns - build_ns));
      auto id = epoch->manager->Submit(std::move(config));
      stats->submit_us.Add(NsToUs(NowNs() - s.submit_ns));
      tally->Record(id.ok());
      if (!id.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     id.status().ToString().c_str());
        pipeline.ReleaseSlot();
        continue;
      }
      s.id = id.value();
      latest = s.id;
      pipeline.Push(std::move(s));
    }
    last_epoch = std::move(epoch);
    pipeline.Close();
  });
  submitter.join();
  for (std::thread& t : waiters) t.join();
  stats->cpu_s = ProcessCpuSeconds() - cpu_start;
  stats->machine = ReadMachineCpu() - machine_start;
  stats->wall_s = static_cast<double>(last_terminal_ns - start_ns) * 1e-9;

  std::vector<service::CampaignId> ids;
  for (service::CampaignId id = 1; id <= latest; ++id) ids.push_back(id);
  ProbeReads(*last_epoch->manager, ids, 2000, stats);
  reaper->Drop(std::move(last_epoch));
  reaper.reset();  // every epoch is retired now
  stats->after = std::make_unique<obs::MetricsSnapshot>(
      obs::Registry::Default().Snapshot());
  stats->journal_bytes = retired.journal_bytes;
  stats->journaled_tasks = stats->tasks;
}

}  // namespace perfbench
