// Per-layer probes and the metric reports.
//
// The probes time calls into each layer's public functions from outside,
// single-threaded, on the workload's own dataset and campaign shapes; the
// fleet-side layer figures come from the obs registry's counters and
// histograms over the traced phase. Nothing here instruments src/.
#include <malloc.h>
#include <sys/socket.h>

#include <cstdio>
#include <filesystem>

#include "perfbench/workloads.h"
#include "src/core/campaign_runtime.h"
#include "src/http/http.h"
#include "src/service/api/dto.h"
#include "src/service/external_source.h"
#include "src/sim/strategy_factory.h"
#include "src/util/file_io.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/socket.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace http = incentag::http;

namespace {

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

int64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

// A campaign's strategy, stream and runtime, built the way the manager
// builds them.
struct ProbeCampaign {
  std::shared_ptr<void> context;
  std::unique_ptr<core::Strategy> strategy;
  std::unique_ptr<core::VectorPostStream> stream;
  std::unique_ptr<core::CampaignRuntime> runtime;

  ProbeCampaign(const CampaignSpec& spec, const sim::PreparedDataset& ds) {
    strategy = sim::MakeStrategyByName(spec.strategy, ds.popularity,
                                       spec.seed, &context);
    INCENTAG_CHECK(strategy != nullptr);
    core::EngineOptions options;
    options.budget = spec.budget;
    options.omega = 5;
    options.batch_size = spec.batch;
    options.priority = spec.priority;
    runtime = std::make_unique<core::CampaignRuntime>(
        options, &ds.initial_posts, &ds.references);
  }
};

std::string CompletionsBody(int64_t batch, uint64_t first_seq) {
  std::string body = "{\"completions\":[";
  for (int64_t i = 0; i < batch; ++i) {
    if (i > 0) body.push_back(',');
    body += "{\"seq\":" + std::to_string(first_seq + static_cast<uint64_t>(i)) +
            ",\"resource\":" + std::to_string(i % 97) + "}";
  }
  body += "]}";
  return body;
}

}  // namespace

CoreProbe ProbeCore(const Dataset& data,
                    const std::function<CampaignSpec(const char*)>& spec_for,
                    int reps) {
  const sim::PreparedDataset& ds = data.prepared;
  std::vector<double> make_stream, begin, finish, serialize, restore, apply;
  std::map<std::string, std::vector<double>> draw;
  for (int rep = 0; rep < reps; ++rep) {
    for (const char* name : kStrategies) {
      const CampaignSpec spec = spec_for(name);
      ProbeCampaign c(spec, ds);
      uint64_t t0 = NowNs();
      c.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
      make_stream.push_back(NsToUs(NowNs() - t0));
      t0 = NowNs();
      INCENTAG_CHECK(c.runtime->Begin(c.strategy.get(), c.stream.get()).ok());
      begin.push_back(NsToUs(NowNs() - t0));

      std::vector<core::ResourceId> batch;
      uint64_t draw_ns = 0;
      uint64_t apply_ns = 0;
      int64_t tasks = 0;
      std::string blob;
      while (!c.runtime->done()) {
        t0 = NowNs();
        INCENTAG_CHECK(c.runtime->DrawBatch(&batch).ok());
        draw_ns += NowNs() - t0;
        if (batch.empty()) break;
        t0 = NowNs();
        c.runtime->ApplyCompletionBatch(batch.data(), batch.size());
        apply_ns += NowNs() - t0;
        tasks += static_cast<int64_t>(batch.size());
        if (blob.empty() && 2 * c.runtime->spent() >= spec.budget) {
          t0 = NowNs();
          INCENTAG_CHECK(c.runtime->SerializeResumableState(&blob).ok());
          serialize.push_back(NsToUs(NowNs() - t0));
        }
      }
      t0 = NowNs();
      c.runtime->Finish();
      finish.push_back(NsToUs(NowNs() - t0));
      INCENTAG_CHECK(tasks > 0);
      draw[name].push_back(static_cast<double>(draw_ns) /
                           static_cast<double>(tasks));
      apply.push_back(static_cast<double>(apply_ns) /
                      static_cast<double>(tasks));

      if (!blob.empty()) {
        ProbeCampaign fresh(spec, ds);
        fresh.stream =
            std::make_unique<core::VectorPostStream>(ds.MakeStream());
        t0 = NowNs();
        INCENTAG_CHECK(fresh.runtime
                           ->RestoreResumableState(blob, fresh.strategy.get(),
                                                   fresh.stream.get())
                           .ok());
        restore.push_back(NsToUs(NowNs() - t0));
      }
    }
  }
  CoreProbe out;
  out.make_stream_us = Median(make_stream);
  out.begin_us = Median(begin);
  out.finish_us = Median(finish);
  out.serialize_us = Median(serialize);
  out.restore_us = Median(restore);
  out.apply_ns_per_task = Median(apply);
  for (const auto& [name, values] : draw) {
    out.draw_by_strategy[name] = Median(values);
    out.draw_ns_per_task += Median(values) / static_cast<double>(draw.size());
  }

  // Heap growth per live campaign: every structure a running campaign
  // keeps (stream copy, states, evaluation, strategy) held at once.
  constexpr int kLive = 8;
  std::vector<std::unique_ptr<ProbeCampaign>> live;
  const int64_t heap0 = HeapBytes();
  for (int i = 0; i < kLive; ++i) {
    auto c = std::make_unique<ProbeCampaign>(spec_for(kStrategies[i % 5]), ds);
    c->stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
    INCENTAG_CHECK(c->runtime->Begin(c->strategy.get(), c->stream.get()).ok());
    live.push_back(std::move(c));
  }
  out.campaign_kb =
      static_cast<double>(HeapBytes() - heap0) / 1024.0 / kLive;
  return out;
}

PersistProbe ProbePersist(const std::string& dir, int64_t batch) {
  INCENTAG_CHECK(util::CreateDirectories(dir).ok());
  persist::SubmitRecord submit;
  submit.name = "probe";
  submit.strategy_name = "RR";
  submit.options.budget = 1000;
  std::vector<double> submit_us;
  for (int i = 0; i < 20; ++i) {
    const std::string path = dir + "/probe-" + std::to_string(i) + ".journal";
    const uint64_t t0 = NowNs();
    auto writer = persist::JournalWriter::Open(path);
    INCENTAG_CHECK(writer.ok());
    INCENTAG_CHECK(writer.value()->AppendSubmit(submit).ok());
    INCENTAG_CHECK(writer.value()->SyncData().ok());
    submit_us.push_back(NsToUs(NowNs() - t0));
  }

  auto writer = persist::JournalWriter::Open(dir + "/probe-append.journal");
  INCENTAG_CHECK(writer.ok());
  INCENTAG_CHECK(writer.value()->AppendSubmit(submit).ok());
  std::vector<persist::CompletionRecord> records(static_cast<size_t>(batch));
  uint64_t seq = 0;
  uint64_t append_ns = 0;
  int64_t tasks = 0;
  for (int round = 0; tasks < 200000; ++round) {
    for (persist::CompletionRecord& r : records) {
      r.seq = seq++;
      r.resource = static_cast<core::ResourceId>(seq % 251);
    }
    const uint64_t t0 = NowNs();
    INCENTAG_CHECK(
        writer.value()->AppendCompletionBatch(records.data(), records.size())
            .ok());
    append_ns += NowNs() - t0;
    tasks += batch;
    // The fleet's sink drains the buffer in the background; do it here
    // outside the clock.
    if (round % 64 == 63) INCENTAG_CHECK(writer.value()->Flush().ok());
  }
  PersistProbe out;
  out.submit_sync_us = Median(submit_us);
  out.append_ns_per_task =
      static_cast<double>(append_ns) / static_cast<double>(tasks);
  fs::remove_all(dir);
  return out;
}

std::vector<double> ProbeSubmit(const Dataset& data,
                                const std::vector<CampaignSpec>& specs,
                                const std::string& dir, int workers,
                                int64_t count, Tally* tally) {
  service::ManagerOptions options;
  options.num_threads = workers;
  options.journal_dir = dir;
  service::CampaignManager manager(options);
  std::vector<double> submit_us;
  for (int64_t i = 0; i < count; ++i) {
    const CampaignSpec& spec = specs[static_cast<size_t>(i) % specs.size()];
    service::CampaignConfig config = BuildConfig(spec, data.prepared);
    const uint64_t t0 = NowNs();
    auto id = manager.Submit(std::move(config));
    submit_us.push_back(NsToUs(NowNs() - t0));
    tally->Record(id.ok());
    // Only the Submit is timed; the campaign need not run.
    if (id.ok()) manager.Cancel(id.value());
  }
  manager.Shutdown();
  fs::remove_all(dir);
  return submit_us;
}

RecoveryProbe ProbeRecovery(const Dataset& data,
                            const std::string& journal_dir,
                            const std::string& scratch_dir,
                            double apply_ns_per_task) {
  const sim::PreparedDataset& ds = data.prepared;
  auto files = util::ListDirFiles(journal_dir, ".journal");
  INCENTAG_CHECK(files.ok());
  fs::remove_all(scratch_dir);
  INCENTAG_CHECK(util::CreateDirectories(scratch_dir).ok());
  constexpr size_t kMaxJournals = 16;
  RecoveryProbe out;
  size_t copied = 0;
  for (const std::string& src : files.value()) {
    if (copied++ == kMaxJournals) break;
    const std::string dst =
        scratch_dir + "/" + fs::path(src).filename().string();
    fs::copy_file(src, dst);
    uint64_t t0 = NowNs();
    auto contents = persist::ReadJournal(dst);
    out.read_journal_ms += NsToMs(NowNs() - t0);
    INCENTAG_CHECK(contents.ok());
    const persist::JournalContents& c = contents.value();
    if (!c.has_submit || !c.has_snapshot) continue;
    ProbeCampaign fresh(SpecFromSubmit(c.submit), ds);
    fresh.stream = std::make_unique<core::VectorPostStream>(ds.MakeStream());
    t0 = NowNs();
    INCENTAG_CHECK(fresh.runtime
                       ->RestoreResumableState(c.snapshot.runtime_state,
                                               fresh.strategy.get(),
                                               fresh.stream.get())
                       .ok());
    out.restore_us += NsToUs(NowNs() - t0);
  }

  service::ManagerOptions options;
  options.num_threads = 1;
  options.journal_dir = scratch_dir;
  service::CampaignManager manager(options);
  const uint64_t t0 = NowNs();
  auto recovered = manager.Recover(
      scratch_dir,
      [&ds](const persist::SubmitRecord& record)
          -> incentag::util::Result<service::CampaignConfig> {
        service::CampaignConfig config =
            BuildConfig(SpecFromSubmit(record), ds);
        config.options = record.options;
        return config;
      });
  out.recover_ms = NsToMs(NowNs() - t0);
  INCENTAG_CHECK(recovered.ok());
  for (service::CampaignId id : recovered.value()) {
    auto status = manager.Status(id);
    if (status.ok()) out.records_replayed += status.value().records_replayed;
  }
  out.replay_ms =
      static_cast<double>(out.records_replayed) * apply_ns_per_task * 1e-6;
  manager.WaitAll();
  manager.Shutdown();
  fs::remove_all(scratch_dir);
  return out;
}

HttpProbe ProbeHttp(const service::CampaignStatus& status,
                    const service::CampaignPage& page, int64_t batch) {
  constexpr int kRounds = 300;
  std::vector<double> parse, json_parse, dto, status_enc, page_enc, intake;
  int fds[2];
  INCENTAG_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  util::Socket client(fds[0]);
  util::Socket server(fds[1]);
  http::RequestReader reader(&server, http::ReadLimits{});
  service::ExternalCompletionSource source;
  const service::CompletionSource::CompletionFn sink =
      [](std::span<const service::TaskHandle>) {};
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t first_seq = static_cast<uint64_t>(round * batch);
    const std::string body = CompletionsBody(batch, first_seq);
    const std::string wire =
        "POST /v1/campaigns/1/completions HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    INCENTAG_CHECK(client.WriteAll(wire).ok());
    http::Request request;
    uint64_t t0 = NowNs();
    INCENTAG_CHECK(reader.Next(&request).outcome == http::ReadOutcome::kOk);
    parse.push_back(NsToUs(NowNs() - t0));

    t0 = NowNs();
    auto value = incentag::util::json::Parse(request.body);
    json_parse.push_back(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(value.ok());
    t0 = NowNs();
    auto decoded = service::api::DecodeCompletionBatchRequest(value.value());
    dto.push_back(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(decoded.ok());

    std::vector<service::TaskHandle> tasks;
    for (const service::ExternalCompletion& c : decoded.value().completions) {
      tasks.push_back(service::TaskHandle{1, c.resource, c.seq});
    }
    INCENTAG_CHECK(source.SubmitTasks(tasks, sink));
    t0 = NowNs();
    service::IntakeResult result =
        source.Complete(1, decoded.value().completions);
    intake.push_back(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(result.delivered == static_cast<size_t>(batch));

    t0 = NowNs();
    std::string encoded = service::api::EncodeCampaignStatus(status).Dump();
    status_enc.push_back(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(!encoded.empty());
    t0 = NowNs();
    encoded = service::api::EncodeCampaignPage(page).Dump();
    page_enc.push_back(NsToUs(NowNs() - t0));
    INCENTAG_CHECK(!encoded.empty());
  }
  source.Stop();
  HttpProbe out;
  out.parse_us = Median(parse);
  out.json_parse_us = Median(json_parse);
  out.dto_decode_us = Median(dto);
  out.status_encode_us = Median(status_enc);
  out.page_encode_us = Median(page_enc);
  out.intake_us = Median(intake);
  return out;
}

namespace {

// A histogram's percentile, marking the run incorrect when fewer than
// kMinTailSamples observations lie beyond it.
double CheckedHistogramPercentile(const std::string& name,
                                  const obs::HistogramSample& histogram,
                                  double percentile, Result* result) {
  const int64_t n = static_cast<int64_t>(histogram.count);
  if (!SupportsPercentile(n, percentile)) {
    result->Fail(name + ": " + std::to_string(n) +
                 " observations cannot support p" +
                 std::to_string(static_cast<int>(percentile)));
  }
  return histogram.Quantile(percentile / 100.0);
}

}  // namespace

void ReportEndToEnd(const std::vector<const PhaseStats*>& reps,
                    double setup_s, Result* result) {
  // Latency medians and journal bytes are printed but not bounded: on a
  // shared disk their run-to-run spread (fsync inside every Submit and
  // Finish; how far background compaction lags) exceeds any usable
  // bound. The traced run reports them per layer.
  struct PerRep {
    const char* name;
    const char* unit;
    bool bounded;
    std::vector<double> values;
  };
  std::vector<PerRep> metrics = {
      {"tasks_per_s", "1/s", true, {}},
      {"campaigns_per_s", "1/s", true, {}},
      {"campaign_p50_ms", "ms", false, {}},
      {"first_task_p50_ms", "ms", false, {}},
      {"journal_bytes_per_task", "B", false, {}},
      {"peak_rss_mb", "MiB", true, {}},
  };
  for (const PhaseStats* rep : reps) {
    if (rep->wall_s <= 0.0 || rep->tasks <= 0 || rep->campaigns <= 0) {
      result->Fail("a repetition completed no work");
    }
    // Rates are per second the machine's CPUs were granted: time the
    // hypervisor gave to other guests is not the program's.
    const double wall =
        std::max(GrantedSeconds(rep->wall_s, rep->machine), 1e-9);
    const double values[] = {
        static_cast<double>(rep->tasks) / wall,
        static_cast<double>(rep->campaigns) / wall,
        CheckedPercentile("campaign_ms", rep->campaign_ms.Take(), 50, result),
        CheckedPercentile("first_task_ms", rep->first_task_ms.Take(), 50,
                          result),
        static_cast<double>(rep->journal_bytes) /
            static_cast<double>(std::max<int64_t>(rep->journaled_tasks, 1)),
        static_cast<double>(rep->peak_rss_kb) / 1024.0,
    };
    for (size_t i = 0; i < metrics.size(); ++i) {
      metrics[i].values.push_back(values[i]);
    }
    std::printf("repetition: %.3fs (%.1f%% stolen), %lld tasks, %lld "
                "campaigns (highest supported percentile p%g), %zu reads "
                "(p%g)\n",
                rep->wall_s, 100.0 * StolenShare(rep->machine),
                static_cast<long long>(rep->tasks),
                static_cast<long long>(rep->campaigns),
                HighestSupportedPercentile(rep->campaigns),
                rep->read_ms.size(),
                HighestSupportedPercentile(
                    static_cast<int64_t>(rep->read_ms.size())));
  }
  // The spread over the repetitions, as the distance between quartiles.
  result->Set("setup_s", setup_s, "s");
  for (const PerRep& m : metrics) {
    const Quartiles q = ComputeQuartiles(m.values);
    if (m.bounded) result->Set(m.name, q.median, m.unit);
    std::printf("%-24s median %14.4f %-4s  q1 %14.4f  q3 %14.4f\n", m.name,
                q.median, m.unit, q.q1, q.q3);
  }
}

void ReportLayers(const LayerInputs& in, Result* result) {
  const PhaseStats& t = *in.traced;
  RegistryDelta delta(*t.before, *t.after);
  const double tasks = static_cast<double>(std::max<int64_t>(t.tasks, 1));
  const double campaigns =
      static_cast<double>(std::max<int64_t>(t.campaigns, 1));

  result->Set("sim.dataset_prep_ms", in.dataset_prep_ms, "ms");
  result->Set("sim.make_stream_us", in.core.make_stream_us, "us");
  result->Set("core.begin_us", in.core.begin_us, "us");
  for (const auto& [name, ns] : in.core.draw_by_strategy) {
    result->Set("core.draw_ns_per_task." + name, ns, "ns");
  }
  result->Set("core.apply_ns_per_task", in.core.apply_ns_per_task, "ns");
  result->Set("core.finish_us", in.core.finish_us, "us");
  result->Set("core.serialize_us", in.core.serialize_us, "us");
  result->Set("core.restore_us", in.core.restore_us, "us");
  result->Set("core.campaign_kb", in.core.campaign_kb, "KiB");

  const obs::HistogramSample fsync =
      delta.Histogram("incentag_persist_fsync_seconds");
  const int64_t syncs = delta.Counter("incentag_persist_journal_syncs_total");
  const int64_t compactions =
      delta.Counter("incentag_persist_compactions_total");
  result->Set("persist.submit_sync_us", in.persist.submit_sync_us, "us");
  result->Set("persist.append_ns_per_task", in.persist.append_ns_per_task,
              "ns");
  result->Set("persist.sync_p50_us",
              CheckedHistogramPercentile("persist.sync_p50_us", fsync, 50,
                                         result) *
                  1e6,
              "us");
  result->Set("persist.sync_p99_us",
              CheckedHistogramPercentile("persist.sync_p99_us", fsync, 99,
                                         result) *
                  1e6,
              "us");
  result->Set("persist.tasks_per_sync",
              tasks / static_cast<double>(std::max<int64_t>(syncs, 1)),
              "count");
  result->Set("persist.group_commit_batch_p50",
              CheckedHistogramPercentile(
                  "persist.group_commit_batch_p50",
                  delta.Histogram("incentag_persist_group_commit_batch_size"),
                  50, result),
              "count");
  result->Set(
      "persist.bytes_per_task",
      static_cast<double>(delta.Counter("incentag_persist_append_bytes_total")) /
          tasks,
      "B");
  result->Set("persist.compactions", static_cast<double>(compactions),
              "count");
  result->Set("persist.journal_bytes_per_task",
              static_cast<double>(t.journal_bytes) /
                  static_cast<double>(std::max<int64_t>(t.journaled_tasks, 1)),
              "B");
  result->Set("persist.read_journal_ms", in.recovery.read_journal_ms, "ms");
  result->Set("persist.records_replayed",
              static_cast<double>(in.recovery.records_replayed), "count");

  // Submit: the fleet's own Submit calls; on the edge, the POST
  // handler's route timer, which wraps decode, build and Submit; on
  // restart, whose timed phase submits nothing, a probe of its recorded
  // campaigns' Submits.
  const obs::HistogramSample route =
      delta.Histogram("incentag_http_route_seconds", "route=\"submit\"");
  const std::vector<double> fleet_submit_us = t.submit_us.Take();
  const std::vector<double>& submit_us = in.probe_submit_us.empty()
                                             ? fleet_submit_us
                                             : in.probe_submit_us;
  // The stage table charges only Submits the timed phase made.
  double submit_mean = MeanOf(fleet_submit_us);
  if (fleet_submit_us.empty() && route.count > 0) {
    submit_mean = route.sum / static_cast<double>(route.count) * 1e6;
  }
  if (submit_us.empty()) {
    result->Set("service.submit_p50_us",
                CheckedHistogramPercentile("service.submit_p50_us", route,
                                           50, result) *
                    1e6,
                "us");
    result->Set("service.submit_p90_us",
                CheckedHistogramPercentile("service.submit_p90_us", route,
                                           90, result) *
                    1e6,
                "us");
  } else {
    result->Set("service.submit_p50_us",
                CheckedPercentile("service.submit_p50_us", submit_us, 50,
                                  result),
                "us");
    result->Set("service.submit_p90_us",
                CheckedPercentile("service.submit_p90_us", submit_us, 90,
                                  result),
                "us");
  }
  const std::vector<double> queue_delay = t.queue_delay_ms.Take();
  result->Set("service.queue_delay_p50_ms",
              CheckedPercentile("service.queue_delay_p50_ms", queue_delay, 50,
                                result),
              "ms");
  result->Set("service.queue_delay_p90_ms",
              CheckedPercentile("service.queue_delay_p90_ms", queue_delay, 90,
                                result),
              "ms");
  result->Set("service.quanta_per_campaign", t.quanta / campaigns, "count");
  result->Set("service.completion_batch_p50",
              CheckedHistogramPercentile(
                  "service.completion_batch_p50",
                  delta.Histogram("incentag_service_completion_batch_size"),
                  50, result),
              "count");
  result->Set("service.status_p99_us",
              CheckedPercentile("service.status_p99_us", t.status_us.Take(),
                                99, result),
              "us");
  result->Set("service.list_p99_us",
              CheckedPercentile("service.list_p99_us", t.list_us.Take(), 99,
                                result),
              "us");
  result->Set("service.intake_us", in.http.intake_us, "us");
  result->Set("service.recover_ms", in.recovery.recover_ms, "ms");
  result->Set("service.recover_residual_ms",
              in.recovery.recover_ms - in.recovery.read_journal_ms -
                  in.recovery.restore_us * 1e-3 - in.recovery.replay_ms,
              "ms");

  const std::vector<double> post_us = in.edge->post_us.Take();
  const double post_p50 =
      CheckedPercentile("http.post_p50_us", post_us, 50, result);
  result->Set("http.parse_us", in.http.parse_us, "us");
  result->Set("http.json_parse_us", in.http.json_parse_us, "us");
  result->Set("http.dto_decode_us", in.http.dto_decode_us, "us");
  result->Set("http.server_residual_us",
              post_p50 - in.http.parse_us - in.http.json_parse_us -
                  in.http.dto_decode_us - in.http.intake_us,
              "us");
  result->Set("http.tasks_rtt_p50_us",
              CheckedPercentile("http.tasks_rtt_p50_us",
                                in.edge->tasks_rtt_us.Take(), 50, result),
              "us");
  result->Set("http.post_p50_us", post_p50, "us");
  result->Set("http.post_p99_us",
              CheckedPercentile("http.post_p99_us", post_us, 99, result),
              "us");
  result->Set("http.status_encode_us", in.http.status_encode_us, "us");
  result->Set("http.page_encode_us", in.http.page_encode_us, "us");
  result->Set("http.refused", static_cast<double>(in.edge->refused),
              "count");
  result->Set("bench.poller_late_p99_ms",
              CheckedPercentile("bench.poller_late_p99_ms",
                                in.edge_phase->poller_late_ms.Take(), 99,
                                result),
              "ms");
  result->Set("bench.stolen_share", StolenShare(in.traced->machine),
              "ratio");
  result->Set("tail.read_p99_ms",
              CheckedPercentile("tail.read_p99_ms",
                                in.edge_phase->read_ms.Take(), 99, result),
              "ms");
  // Latencies of the traced phase: too noisy on a shared host to bound
  // (see README.md), reported here for diagnosis.
  const std::vector<double> campaign_ms = t.campaign_ms.Take();
  const std::vector<double> first_task_ms = t.first_task_ms.Take();
  result->Set("fleet.campaign_p50_ms",
              CheckedPercentile("fleet.campaign_p50_ms", campaign_ms, 50,
                                result),
              "ms");
  result->Set("fleet.first_task_p50_ms",
              CheckedPercentile("fleet.first_task_p50_ms", first_task_ms, 50,
                                result),
              "ms");
  result->Set("tail.campaign_p90_ms",
              CheckedPercentile("tail.campaign_p90_ms", campaign_ms, 90,
                                result),
              "ms");
  result->Set("tail.first_task_p90_ms",
              CheckedPercentile("tail.first_task_p90_ms", first_task_ms, 90,
                                result),
              "ms");
  const double granted_s = GrantedSeconds(t.wall_s, t.machine);
  const double traced_tps =
      static_cast<double>(t.tasks) / std::max(granted_s, 1e-9);
  result->Set("obs.trace_overhead_frac",
              in.untraced_tasks_per_s > 0.0
                  ? 1.0 - traced_tps / in.untraced_tasks_per_s
                  : 0.0,
              "ratio");
  result->Set("failed_frac", in.failed_frac, "ratio");

  // Per-task stage table on the machine's thread-time basis: the
  // granted time of the traced phase (the basis tasks_per_s has) times
  // nproc, per applied task. Each stage is a layer's isolated cost scaled
  // by how often the fleet paid it; the residual holds scheduling,
  // contention, queueing, idle cores and whatever the probes do not see.
  const double per_campaign = campaigns / tasks;
  StageTable table;
  table.title = "traced phase, " + std::to_string(in.nproc) +
                " threads x granted time / task";
  table.end_to_end_ns = granted_s * 1e9 * in.nproc / tasks;
  // The submitter's own timing of the config build (stream copy) where it
  // has one: the isolated probe misses what the copy costs beside a
  // running fleet.
  const std::vector<double> build_us = t.build_us.Take();
  const double make_stream_us =
      build_us.empty() ? in.core.make_stream_us : MeanOf(build_us);
  table.stages = {
      {"sim.make_stream", make_stream_us * 1e3 * per_campaign},
      {"service.submit", submit_mean * 1e3 * per_campaign},
      {"core.begin", in.core.begin_us * 1e3 * per_campaign},
      {"core.draw", in.core.draw_ns_per_task},
      {"core.apply", in.core.apply_ns_per_task},
      {"core.finish", in.core.finish_us * 1e3 * per_campaign},
      {"core.serialize",
       in.core.serialize_us * 1e3 * static_cast<double>(compactions) / tasks},
      {"persist.append", in.persist.append_ns_per_task},
      {"persist.fsync (sink thread)", fsync.sum * 1e9 / tasks},
      {"http.completion_post",
       in.edge_workload
           ? static_cast<double>(post_us.size()) *
                 (in.http.parse_us + in.http.json_parse_us +
                  in.http.dto_decode_us + in.http.intake_us) *
                 1e3 / tasks
           : 0.0},
  };
  result->Set("service.residual_ns_per_task", table.Residual(), "ns");
  if (!table.StagesFit()) {
    result->Fail("stage table over-accounts: the stages claim " +
                 std::to_string(table.StageSum()) + " ns/task of " +
                 std::to_string(table.end_to_end_ns));
  }
  if (in.stage_table) {
    // How much of the end-to-end figure no thread used the CPU for: the
    // residual's share that is idle cores.
    const double unused_ns = (granted_s * in.nproc - t.cpu_s) * 1e9 / tasks;
    std::printf("%s  of which CPU unused (idle) %.1f ns/task (%.1f%%)\n",
                table.Render().c_str(), unused_ns,
                100.0 * unused_ns / std::max(table.end_to_end_ns, 1e-9));
  }
}

}  // namespace perfbench
