// Restart: record a mixed fleet's journals once, cut every journal
// mid-campaign (some in a torn record), then repeatedly recover a fresh
// copy into a new manager and drive it to done.
#include <chrono>
#include <filesystem>

#include "perfbench/workloads.h"
#include "src/obs/metrics.h"
#include "src/util/file_io.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Completions a (possibly compacted) journal holds.
int64_t JournaledCompletions(const persist::JournalContents& contents) {
  if (!contents.completions.empty()) {
    return static_cast<int64_t>(contents.completions.back().seq) + 1;
  }
  return contents.has_snapshot
             ? static_cast<int64_t>(contents.snapshot.num_completions)
             : 0;
}

// Copies the first `bytes` of `src` to `dst`; with `clean` the copy is
// then cut back to its last whole record, otherwise it keeps the torn
// record the cut left.
persist::JournalContents CutJournal(const std::string& src,
                                    const std::string& dst, int64_t bytes,
                                    bool clean) {
  auto data = util::ReadFileToString(src);
  INCENTAG_CHECK(data.ok());
  const std::string& all = data.value();
  const size_t keep = std::min(static_cast<size_t>(bytes), all.size());
  auto write = [&](size_t n) {
    std::FILE* f = std::fopen(dst.c_str(), "wb");
    INCENTAG_CHECK(f != nullptr);
    INCENTAG_CHECK(std::fwrite(all.data(), 1, n, f) == n);
    INCENTAG_CHECK(std::fclose(f) == 0);
  };
  write(keep);
  auto contents = persist::ReadJournal(dst);
  INCENTAG_CHECK(contents.ok());
  if (clean &&
      static_cast<size_t>(contents.value().valid_bytes) != keep) {
    write(static_cast<size_t>(contents.value().valid_bytes));
  }
  return std::move(contents).value();
}

// Runs `specs` to done on a journaled manager writing into `dir`. A
// compacting recording runs in deterministic mode, which compacts inline,
// so the same specs always leave the same journal bytes (a background
// compactor places snapshots by timing).
void RecordInto(const Dataset& data, const std::vector<CampaignSpec>& specs,
                const std::string& dir, int workers, int64_t compact_bytes,
                Tally* tally) {
  service::ManagerOptions options;
  options.deterministic = compact_bytes > 0;
  options.num_threads = workers;
  options.journal_dir = dir;
  options.compact_journal_bytes = compact_bytes;
  service::CampaignManager manager(options);
  for (const CampaignSpec& spec : specs) {
    auto id = manager.Submit(BuildConfig(spec, data.prepared));
    tally->Record(id.ok());
    INCENTAG_CHECK(id.ok());
  }
  manager.WaitAll();
  manager.Shutdown();
}

}  // namespace

RecordedFleet RecordFleet(const Dataset& data, uint64_t seed,
                          const std::string& dir, int campaigns, int workers,
                          int64_t compact_bytes, Tally* tally) {
  // Budgets, batch sizes and cut points follow the campaign's index: where
  // compaction snapshots land depends on them, and with it how much work a
  // recovery replays, restores and finishes, so every seed's fleet leaves
  // about the same work. The seed draws the strategies' own seeds.
  util::Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  std::vector<CampaignSpec> plain;
  std::vector<CampaignSpec> compacted;
  const int64_t max_budget = std::max<int64_t>(data.future_posts / 2, 2000);
  for (int i = 0; i < campaigns; ++i) {
    CampaignSpec spec;
    spec.name = "restart-" + std::to_string(i);
    spec.strategy = kStrategies[i % 5];
    spec.budget = max_budget * (2 + i % 3) / 4;
    spec.batch = 32;
    spec.priority = i % 4 == 0 ? 4 : 1;
    spec.seed = rng.NextUint64() >> 12;
    (i % 2 == 0 ? plain : compacted).push_back(spec);
  }
  const std::string plain_dir = dir + "/record-plain";
  const std::string compact_dir = dir + "/record-compacted";
  const std::string golden = dir + "/golden";
  for (const std::string& d : {plain_dir, compact_dir, golden}) {
    INCENTAG_CHECK(util::CreateDirectories(d).ok());
  }
  RecordInto(data, plain, plain_dir, workers, 0, tally);
  RecordInto(data, compacted, compact_dir, workers, compact_bytes, tally);

  RecordedFleet out;
  out.dir = golden;
  out.specs = plain;
  out.specs.insert(out.specs.end(), compacted.begin(), compacted.end());
  int file_index = 0;
  for (const std::string& src_dir : {plain_dir, compact_dir}) {
    const bool is_compacted = src_dir == compact_dir;
    auto files = util::ListDirFiles(src_dir, ".journal");
    INCENTAG_CHECK(files.ok());
    for (const std::string& src : files.value()) {
      // Compacted ids move up so both halves share one directory.
      const std::string base = fs::path(src).filename().string();
      std::string name = base;
      if (is_compacted) {
        const int64_t id = std::stoll(base.substr(9));
        name = "campaign-" + std::to_string(id + 1000) + ".journal";
      }
      const std::string dst = golden + "/" + name;
      const int64_t size = static_cast<int64_t>(fs::file_size(src));
      // A compacted journal is cut only inside the tail after its last
      // snapshot: compaction writes the snapshot atomically, so a crash
      // never tears it. `tail` is the shortest prefix holding it.
      int64_t tail = 0;
      if (is_compacted) {
        int64_t lo = 0;
        int64_t hi = size;
        while (lo < hi) {
          const int64_t mid = lo + (hi - lo) / 2;
          if (CutJournal(src, dst, mid, false).has_snapshot) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        tail = lo;
      }
      const bool clean = file_index % 2 == 0;
      const double fraction = 0.35 + 0.1 * ((file_index / 2) % 5);
      ++file_index;
      const persist::JournalContents contents = CutJournal(
          src, dst,
          tail + static_cast<int64_t>(static_cast<double>(size - tail) *
                                      fraction),
          clean);
      INCENTAG_CHECK(contents.has_submit);
      INCENTAG_CHECK(!is_compacted || contents.has_snapshot);
      out.journaled_tasks += JournaledCompletions(contents);
      ++out.campaigns;
    }
  }
  fs::remove_all(plain_dir);
  fs::remove_all(compact_dir);
  return out;
}

namespace {

// One recovery's manager, destroyed at the end of its cycle outside the
// timed window, so no cycle's memory overlaps the next one's.
struct Cycle {
  FirstTaskSource source;
  std::unique_ptr<service::CampaignManager> manager;
};

}  // namespace

void RunRestartCycles(const RestartCycles& cycles, PhaseStats* stats,
                      Samples* recover_ms, std::vector<Finished>* finished,
                      Tally* tally) {
  const sim::PreparedDataset& ds = cycles.data->prepared;
  stats->workers = cycles.workers;
  stats->before = std::make_unique<obs::MetricsSnapshot>(
      obs::Registry::Default().Snapshot());
  auto golden = util::ListDirFiles(cycles.recorded->dir, ".journal");
  INCENTAG_CHECK(golden.ok());

  std::vector<std::string> dirs;
  int64_t tasks_total = 0;
  int64_t cycles_run = 0;
  const uint64_t start_ns = NowNs();
  const uint64_t deadline =
      start_ns + static_cast<uint64_t>(cycles.seconds * 1e9);
  const uint64_t hard_deadline =
      start_ns + static_cast<uint64_t>(3.0 * cycles.seconds * 1e9);
  for (;; ++cycles_run) {
    const uint64_t now = NowNs();
    if ((now >= deadline && cycles_run >= cycles.min_cycles) ||
        now >= hard_deadline) {
      break;
    }
    const std::string dir =
        cycles.work_dir + "/cycle-" + std::to_string(cycles_run);
    dirs.push_back(dir);
    INCENTAG_CHECK(util::CreateDirectories(dir).ok());
    for (const std::string& src : golden.value()) {
      fs::copy_file(src, dir + "/" + fs::path(src).filename().string());
    }

    Cycle cycle;
    service::ManagerOptions options;
    options.num_threads = cycles.workers;
    options.journal_dir = dir;
    options.compact_journal_bytes = cycles.compact_bytes;
    options.completions = &cycle.source;
    cycle.manager = std::make_unique<service::CampaignManager>(options);
    service::CampaignManager& manager = *cycle.manager;

    std::map<std::string, CampaignSpec> specs;
    const double cpu_start = ProcessCpuSeconds();
    const MachineCpu machine_start = ReadMachineCpu();
    const uint64_t t0 = NowNs();
    auto recovered = manager.Recover(
        dir,
        [&](const persist::SubmitRecord& record)
            -> incentag::util::Result<service::CampaignConfig> {
          CampaignSpec spec = SpecFromSubmit(record);
          specs[spec.name] = spec;
          service::CampaignConfig config = BuildConfig(spec, ds);
          config.options = record.options;
          return config;
        });
    const uint64_t t1 = NowNs();
    tally->Record(recovered.ok());
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   recovered.status().ToString().c_str());
      break;
    }
    recover_ms->Add(NsToMs(t1 - t0));
    const std::vector<service::CampaignId>& ids = recovered.value();

    uint64_t last_end = t1;
    for (service::CampaignId id : ids) {
      auto result = manager.WaitFor(id, std::chrono::minutes(2));
      const uint64_t end_ns = NowNs();
      last_end = std::max(last_end, end_ns);
      auto status = manager.Status(id);
      Finished f;
      bool ok = result.ok() && status.ok();
      if (ok) {
        f.spec = specs[status.value().name];
        f.state = result.value().state;
        f.error = result.value().error;
        ok = f.state == service::CampaignState::kDone;
        if (ok) f.report = ReportBytes(result.value().report);
      }
      tally->Record(ok);
      if (ok) {
        stats->campaign_ms.Add(NsToMs(end_ns - t0));
        const uint64_t first = cycle.source.FirstTaskNs(id);
        if (first != 0) stats->first_task_ms.Add(NsToMs(first - t0));
        ++stats->campaigns;
      }
      if (status.ok()) {
        tasks_total += status.value().tasks_completed;
        RecordTerminal(status.value(), stats);
      }
      finished->push_back(std::move(f));
    }
    stats->wall_s += static_cast<double>(last_end - t0) * 1e-9;
    stats->cpu_s += ProcessCpuSeconds() - cpu_start;
    stats->machine += ReadMachineCpu() - machine_start;
    ProbeReads(manager, ids, 100, stats);
    // Every campaign finalized its journal; the bytes are on disk.
    stats->journal_bytes += JournalBytes(dir);
  }
  for (const std::string& dir : dirs) fs::remove_all(dir);
  // Only the completions applied after recovery are this phase's work;
  // the journal bytes on disk hold every completion.
  stats->journaled_tasks = tasks_total;
  stats->tasks = tasks_total - cycles_run * cycles.recorded->journaled_tasks;
  stats->after = std::make_unique<obs::MetricsSnapshot>(
      obs::Registry::Default().Snapshot());
}

}  // namespace perfbench
