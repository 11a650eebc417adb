#include "perfbench/fleet.h"

#include <sys/vfs.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "src/obs/metrics.h"
#include "src/sim/strategy_factory.h"
#include "src/util/logging.h"

namespace perfbench {

namespace fs = std::filesystem;

const char* const kStrategies[5] = {"RR", "FP", "MU", "FP-MU", "FC"};

uint64_t NowNs() { return obs::NowNs(); }

std::unique_ptr<Dataset> MakeDataset(int64_t num_resources, uint64_t seed) {
  sim::CorpusConfig config;
  config.num_resources = num_resources;
  config.seed = seed;
  auto corpus = sim::Corpus::Generate(config);
  INCENTAG_CHECK(corpus.ok());
  auto out = std::make_unique<Dataset>();
  out->corpus = std::make_unique<sim::Corpus>(std::move(corpus).value());
  sim::PrepConfig prep_config;
  prep_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  auto prep = sim::PrepareFromCorpus(*out->corpus, prep_config);
  INCENTAG_CHECK(prep.ok());
  out->prepared = std::move(prep).value();
  for (const core::PostSequence& posts : out->prepared.future_posts) {
    out->future_posts += static_cast<int64_t>(posts.size());
  }
  return out;
}

std::string CampaignSpec::Key() const {
  return strategy + "/" + std::to_string(budget) + "/" +
         std::to_string(batch) + "/" + std::to_string(priority) + "/" +
         std::to_string(seed);
}

service::CampaignConfig BuildConfig(const CampaignSpec& spec,
                                    const sim::PreparedDataset& ds) {
  service::CampaignConfig config;
  config.name = spec.name;
  config.options.budget = spec.budget;
  config.options.omega = 5;
  config.options.batch_size = spec.batch;
  config.options.priority = spec.priority;
  config.initial_posts = &ds.initial_posts;
  config.references = &ds.references;
  config.seed = spec.seed;
  config.strategy = sim::MakeStrategyByName(spec.strategy, ds.popularity,
                                            spec.seed, &config.context);
  INCENTAG_CHECK(config.strategy != nullptr);
  config.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
  return config;
}

CampaignSpec SpecFromSubmit(const persist::SubmitRecord& record) {
  CampaignSpec spec;
  spec.name = record.name;
  spec.strategy = record.strategy_name;
  spec.budget = record.options.budget;
  spec.batch = record.options.batch_size;
  spec.priority = record.options.priority;
  spec.seed = record.seed;
  return spec;
}

namespace {

void PutBytes(const void* data, size_t size, std::string* out) {
  out->append(static_cast<const char*>(data), size);
}

void PutI64(int64_t v, std::string* out) { PutBytes(&v, sizeof(v), out); }

void PutMetrics(const core::AllocationMetrics& m, std::string* out) {
  PutI64(m.budget_used, out);
  PutBytes(&m.avg_quality, sizeof(m.avg_quality), out);
  PutI64(m.over_tagged, out);
  PutI64(m.wasted_posts, out);
  PutI64(m.under_tagged, out);
}

}  // namespace

std::string ReportBytes(const core::RunReport& report) {
  std::string out;
  PutI64(static_cast<int64_t>(report.strategy_name.size()), &out);
  out += report.strategy_name;
  PutI64(static_cast<int64_t>(report.allocation.size()), &out);
  for (int64_t x : report.allocation) PutI64(x, &out);
  PutI64(static_cast<int64_t>(report.checkpoints.size()), &out);
  for (const core::AllocationMetrics& m : report.checkpoints) {
    PutMetrics(m, &out);
  }
  PutMetrics(report.final_metrics, &out);
  PutI64(report.budget_spent, &out);
  out.push_back(report.stopped_early ? 1 : 0);
  return out;
}

const std::string& ReferenceCache::Get(const CampaignSpec& spec) {
  const std::string key = spec.Key();
  auto it = reports_.find(key);
  if (it != reports_.end()) return it->second;
  service::ManagerOptions options;
  options.deterministic = true;
  service::CampaignManager manager(options);
  std::string bytes;
  auto id = manager.Submit(BuildConfig(spec, *ds_));
  if (id.ok()) {
    auto report = manager.Wait(id.value());
    if (report.ok()) bytes = ReportBytes(report.value());
  }
  return reports_.emplace(key, std::move(bytes)).first->second;
}

FirstTaskSource::FirstTaskSource()
    : first_ns_(new std::atomic<uint64_t>[kMaxCampaigns]) {
  for (size_t i = 0; i < kMaxCampaigns; ++i) {
    first_ns_[i].store(0, std::memory_order_relaxed);
  }
}

bool FirstTaskSource::SubmitTasks(
    const std::vector<service::TaskHandle>& tasks, const CompletionFn& done) {
  if (tasks.empty()) return true;
  const service::CampaignId id = tasks.front().campaign;
  if (id < kMaxCampaigns &&
      first_ns_[id].load(std::memory_order_relaxed) == 0) {
    uint64_t expected = 0;
    first_ns_[id].compare_exchange_strong(expected, NowNs(),
                                          std::memory_order_relaxed);
  }
  done(std::span<const service::TaskHandle>(tasks));
  return true;
}

uint64_t FirstTaskSource::FirstTaskNs(service::CampaignId id) const {
  return id < kMaxCampaigns ? first_ns_[id].load(std::memory_order_relaxed)
                            : 0;
}

OpenLoopPoller::OpenLoopPoller(double rate_hz,
                               std::function<bool(int64_t)> op, Tally* tally)
    : rate_hz_(rate_hz), op_(std::move(op)), tally_(tally) {}

OpenLoopPoller::~OpenLoopPoller() { Stop(); }

void OpenLoopPoller::Start() { thread_ = std::thread([this] { Loop(); }); }

void OpenLoopPoller::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void OpenLoopPoller::Loop() {
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / rate_hz_);
  const uint64_t start = NowNs();
  for (int64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
    const uint64_t due = start + static_cast<uint64_t>(i) * period_ns;
    const uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      if (stop_.load(std::memory_order_relaxed)) break;
    }
    const uint64_t sent = NowNs();
    late_ms_.Add(NsToMs(sent - due));
    const bool ok = op_(i);
    tally_->Record(ok);
    if (ok) latency_ms_.Add(NsToMs(NowNs() - due));
  }
}

int64_t RegistryDelta::Counter(const std::string& name,
                               const std::string& labels) const {
  const obs::CounterSample* a = after_.FindCounter(name, labels);
  const obs::CounterSample* b = before_.FindCounter(name, labels);
  return (a == nullptr ? 0 : a->value) - (b == nullptr ? 0 : b->value);
}

obs::HistogramSample RegistryDelta::Histogram(
    const std::string& name, const std::string& labels) const {
  obs::HistogramSample out;
  const obs::HistogramSample* a = after_.FindHistogram(name, labels);
  if (a == nullptr) return out;
  out = *a;
  const obs::HistogramSample* b = before_.FindHistogram(name, labels);
  if (b != nullptr && b->counts.size() == out.counts.size()) {
    for (size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] -= b->counts[i];
    }
    out.count -= b->count;
    out.sum -= b->sum;
  }
  return out;
}

int64_t JournalBytes(const std::string& dir) {
  int64_t bytes = 0;
  auto files = util::ListDirFiles(dir, ".journal");
  if (!files.ok()) return 0;
  for (const std::string& path : files.value()) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec) bytes += static_cast<int64_t>(size);
  }
  return bytes;
}

void ProbeReads(const service::CampaignManager& manager,
                const std::vector<service::CampaignId>& ids, int rounds,
                PhaseStats* stats) {
  if (ids.empty()) return;
  service::ListQuery query;
  query.limit = 50;
  for (int i = 0; i < rounds; ++i) {
    const service::CampaignId id = ids[static_cast<size_t>(i) % ids.size()];
    uint64_t t0 = NowNs();
    auto status = manager.Status(id);
    stats->status_us.Add(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(status.ok());
    t0 = NowNs();
    service::CampaignPage page = manager.List(query);
    stats->list_us.Add(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(page.total > 0);
    if (i + 1 == rounds) {
      stats->last_status = std::move(status).value();
      stats->last_page = std::move(page);
    }
  }
}

void RecordTerminal(const service::CampaignStatus& status,
                    PhaseStats* stats) {
  stats->quanta += static_cast<double>(status.quanta_run);
  stats->queue_delay_ms.Add(status.queue_delay_seconds * 1e3);
}

namespace {

int64_t ProcStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoll(line.c_str() + key_len, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int64_t CurrentRssKb() { return ProcStatusKb("VmRSS:"); }

MachineCpu ReadMachineCpu() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return ParseProcStatCpu(line);
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

RssSampler::RssSampler()
    : thread_([this] {
        while (!stop_.load()) {
          const int64_t kb = CurrentRssKb();
          if (kb > peak_kb_.load()) peak_kb_.store(kb);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x6969:
      return "nfs";
    case 0x2FC12FC1:
      return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench
