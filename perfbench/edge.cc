// The /v1 edge fleet: campaigns submitted by POST over loopback, tagger
// connections pulling tasks and posting completions in a closed loop,
// and one poller connection reading status and listing pages on an open
// loop — all against a journaled manager behind http::Server.
//
// As in the in-process fleets, one manager (with its server) serves a
// fixed number of campaigns and retires when the last of them ends,
// while the next epoch's server takes new submissions.
#include <chrono>
#include <condition_variable>
#include <deque>

#include "perfbench/workloads.h"
#include "src/http/campaign_routes.h"
#include "src/http/client.h"
#include "src/http/server.h"
#include "src/obs/metrics.h"
#include "src/service/external_source.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace perfbench {

namespace http = incentag::http;
namespace json = incentag::util::json;

namespace {

struct EdgeEpoch {
  service::ExternalCompletionSource intake;
  std::unique_ptr<service::CampaignManager> manager;
  std::unique_ptr<http::Server> server;
  uint16_t port = 0;
  std::string dir;
  std::mutex* bytes_mu = nullptr;
  int64_t* journal_bytes = nullptr;

  ~EdgeEpoch() {
    server->Stop();
    intake.Stop();
    manager->Shutdown();
    const int64_t bytes = JournalBytes(dir);
    std::lock_guard<std::mutex> lock(*bytes_mu);
    *journal_bytes += bytes;
  }
};

struct Queued {
  std::shared_ptr<EdgeEpoch> epoch;
  service::CampaignId id = 0;
  int64_t index = 0;
  CampaignSpec spec;
  uint64_t submit_ns = 0;    // POST sent
  uint64_t accepted_ns = 0;  // 201 received
};

std::string SubmitBody(const CampaignSpec& spec) {
  json::Value body = json::Value::Object();
  body.Set("name", json::Value::Str(spec.name));
  body.Set("strategy", json::Value::Str(spec.strategy));
  body.Set("budget", json::Value::Int(spec.budget));
  body.Set("batch_size", json::Value::Int(spec.batch));
  body.Set("priority", json::Value::Int(spec.priority));
  body.Set("seed", json::Value::Int(static_cast<int64_t>(spec.seed)));
  return body.Dump();
}

std::string CompletionsBody(const json::Value& tasks) {
  std::string body = "{\"completions\":[";
  bool first = true;
  for (const json::Value& task : tasks.items()) {
    if (!first) body.push_back(',');
    first = false;
    body += "{\"seq\":" + std::to_string(task.Find("seq")->int_value()) +
            ",\"resource\":" +
            std::to_string(task.Find("resource")->int_value()) + "}";
  }
  body += "]}";
  return body;
}

// A keep-alive connection that follows the epochs' servers, with client
// retries off: a 503 or transport error is a refusal and a failed
// attempt, never silently retried.
class Connection {
 public:
  Connection(std::atomic<int64_t>* refused, Tally* tally)
      : client_(NoRetries()), refused_(refused), tally_(tally) {}

  // The body of a `want_status` response; an error otherwise.
  incentag::util::Result<std::string> Request(uint16_t port,
                                              std::string_view method,
                                              const std::string& target,
                                              std::string_view body,
                                              int want_status) {
    if (port != port_ || !client_.connected()) {
      client_.Disconnect();
      port_ = port;
      if (!client_.Connect("127.0.0.1", port).ok()) {
        refused_->fetch_add(1);
        tally_->Record(false);
        return incentag::util::Status::IoError("connect failed");
      }
    }
    auto response = client_.Request(method, target, body);
    const bool ok = response.ok() && response.value().status == want_status;
    if (!response.ok() || response.value().status == 503) {
      refused_->fetch_add(1);
    }
    if (!response.ok()) client_.Disconnect();
    tally_->Record(ok);
    if (!ok) {
      return incentag::util::Status::IoError(
          response.ok() ? "HTTP " + std::to_string(response.value().status)
                        : response.status().ToString());
    }
    return std::move(response.value().body);
  }

 private:
  static http::ClientRetryOptions NoRetries() {
    http::ClientRetryOptions retry;
    retry.max_attempts = 1;
    retry.retry_on_503 = false;
    return retry;
  }

  http::Client client_;
  uint16_t port_ = 0;
  std::atomic<int64_t>* refused_;
  Tally* tally_;
};

}  // namespace

void RunEdgeFleet(const EdgeFleet& fleet, PhaseStats* stats,
                  EdgeStats* edge, std::vector<Finished>* finished,
                  Tally* tally) {
  const sim::PreparedDataset& ds = fleet.data->prepared;
  stats->workers = fleet.workers;
  stats->sample_journal_dir = fleet.journal_dir + "/epoch-0";
  stats->before = std::make_unique<obs::MetricsSnapshot>(
      obs::Registry::Default().Snapshot());

  std::mutex bytes_mu;
  int64_t journal_bytes = 0;
  auto reaper = std::make_unique<Reaper<EdgeEpoch>>();
  int epochs = 0;
  auto new_epoch = [&] {
    auto epoch = std::make_shared<EdgeEpoch>();
    epoch->dir = fleet.journal_dir + "/epoch-" + std::to_string(epochs);
    epoch->bytes_mu = &bytes_mu;
    epoch->journal_bytes = &journal_bytes;
    ++epochs;
    service::ManagerOptions options;
    options.num_threads = fleet.workers;
    options.journal_dir = epoch->dir;
    options.completions = &epoch->intake;
    epoch->manager = std::make_unique<service::CampaignManager>(options);
    http::ServerOptions server_options;
    server_options.num_threads = fleet.taggers + 3;
    server_options.max_connections = fleet.taggers + 8;
    epoch->server = std::make_unique<http::Server>(server_options);
    http::CampaignRoutesOptions routes;
    routes.manager = epoch->manager.get();
    routes.intake = &epoch->intake;
    routes.builder =
        [&ds](const service::api::SubmitCampaignRequest& request)
        -> incentag::util::Result<service::CampaignConfig> {
      CampaignSpec spec;
      spec.name = request.name;
      spec.strategy = request.strategy;
      spec.budget = request.budget;
      spec.batch = request.batch_size;
      spec.priority = request.priority;
      spec.seed = request.seed;
      return BuildConfig(spec, ds);
    };
    http::RegisterCampaignRoutes(epoch->server.get(), routes);
    INCENTAG_CHECK(epoch->server->Start().ok());
    epoch->port = epoch->server->port();
    return epoch;
  };

  std::atomic<int64_t> refused{0};
  std::atomic<int64_t> unknown{0};
  std::atomic<int64_t> invalid{0};
  std::atomic<int64_t> duplicates{0};

  std::mutex mu;  // guards everything below up to the poller
  std::condition_variable cv;
  std::deque<Queued> ready;
  bool closed = false;
  std::shared_ptr<EdgeEpoch> current = new_epoch();
  uint64_t last_terminal_ns = 0;
  std::atomic<service::CampaignId> latest{0};

  Connection poll_conn(&refused, tally);
  OpenLoopPoller poller(
      fleet.poll_hz,
      [&](int64_t i) {
        std::shared_ptr<EdgeEpoch> epoch;
        {
          std::lock_guard<std::mutex> lock(mu);
          epoch = current;
        }
        const service::CampaignId top = latest.load();
        std::string target = "/v1/campaigns?limit=50";
        if (i % 2 == 0 && top != 0) {
          const uint64_t back = static_cast<uint64_t>(i % 16);
          target = "/v1/campaigns/" +
                   std::to_string(top > back ? top - back : top);
        }
        const bool ok =
            poll_conn.Request(epoch->port, "GET", target, {}, 200).ok();
        reaper->Drop(std::move(epoch));
        return ok;
      },
      tally);

  auto tagger = [&] {
    Connection conn(&refused, tally);
    for (;;) {
      Queued q;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !ready.empty(); });
        if (ready.empty()) return;
        q = std::move(ready.front());
        ready.pop_front();
        cv.notify_all();
      }
      const uint16_t port = q.epoch->port;
      const std::string base = "/v1/campaigns/" + std::to_string(q.id);
      const std::string tasks_target = base + "/tasks?max=64";
      const std::string post_target = base + "/completions";
      bool seen_task = false;
      bool ok = true;
      std::string state;
      for (;;) {
        uint64_t t0 = NowNs();
        auto pulled = conn.Request(port, "GET", tasks_target, {}, 200);
        if (!pulled.ok()) {
          ok = false;
          break;
        }
        edge->tasks_rtt_us.Add(NsToUs(NowNs() - t0));
        auto doc = json::Parse(pulled.value());
        const json::Value* tasks =
            doc.ok() ? doc.value().Find("tasks") : nullptr;
        if (tasks != nullptr && !tasks->items().empty()) {
          if (!seen_task) {
            seen_task = true;
            stats->first_task_ms.Add(NsToMs(NowNs() - q.accepted_ns));
          }
          const std::string body = CompletionsBody(*tasks);
          t0 = NowNs();
          auto posted = conn.Request(port, "POST", post_target, body, 200);
          if (!posted.ok()) {
            ok = false;
            break;
          }
          edge->post_us.Add(NsToUs(NowNs() - t0));
          auto intake_doc = json::Parse(posted.value());
          if (!intake_doc.ok()) {
            ok = false;
            break;
          }
          const json::Value& r = intake_doc.value();
          duplicates.fetch_add(r.Find("duplicates")->int_value());
          unknown.fetch_add(r.Find("unknown")->int_value());
          invalid.fetch_add(r.Find("invalid")->int_value());
          continue;
        }
        auto status = conn.Request(port, "GET", base, {}, 200);
        auto status_doc = status.ok() ? json::Parse(status.value())
                                      : incentag::util::Result<json::Value>(
                                            status.status());
        if (!status_doc.ok()) {
          ok = false;
          break;
        }
        state = status_doc.value().Find("state")->string_value();
        if (state != "running") break;
        // Nothing assigned yet: the manager is still applying the last
        // batch. Back off briefly instead of spinning requests against
        // the workers for the same cores.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      const uint64_t end_ns = NowNs();
      ok = ok && state == "done";
      tally->Record(ok);

      Finished f;
      f.spec = q.spec;
      service::CampaignManager& manager = *q.epoch->manager;
      auto result = manager.WaitFor(q.id, std::chrono::seconds(30));
      if (result.ok()) {
        f.state = result.value().state;
        f.error = result.value().error;
        if (ok && fleet.keep_report(q.index)) {
          f.report = ReportBytes(result.value().report);
        }
      }
      auto status = manager.Status(q.id);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (ok) {
          stats->campaign_ms.Add(NsToMs(end_ns - q.submit_ns));
          ++stats->campaigns;
          last_terminal_ns = std::max(last_terminal_ns, end_ns);
        }
        if (status.ok()) {
          stats->tasks += status.value().tasks_completed;
          RecordTerminal(status.value(), stats);
        }
        finished->push_back(std::move(f));
      }
      reaper->Drop(std::move(q.epoch));
    }
  };

  std::vector<std::thread> taggers;
  for (int i = 0; i < fleet.taggers; ++i) taggers.emplace_back(tagger);
  poller.Start();
  const double cpu_start = ProcessCpuSeconds();
  const MachineCpu machine_start = ReadMachineCpu();
  const uint64_t start_ns = NowNs();
  const uint64_t deadline =
      start_ns + static_cast<uint64_t>(fleet.seconds * 1e9);
  const uint64_t hard_deadline =
      start_ns + static_cast<uint64_t>(3.0 * fleet.seconds * 1e9);
  std::shared_ptr<EdgeEpoch> last_epoch;
  {
    // Submitter: keeps one queued campaign per tagger, so a tagger that
    // finishes never waits for a POST.
    Connection conn(&refused, tally);
    std::shared_ptr<EdgeEpoch> epoch = current;
    int64_t in_epoch = 0;
    for (int64_t index = 0;; ++index) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return ready.size() < static_cast<size_t>(fleet.taggers);
        });
      }
      const uint64_t now = NowNs();
      if ((now >= deadline && index >= fleet.min_campaigns) ||
          now >= hard_deadline) {
        break;
      }
      if (in_epoch == fleet.epoch_campaigns) {
        reaper->Drop(std::move(epoch));
        epoch = new_epoch();
        in_epoch = 0;
        latest.store(0);  // before the swap: ids restart at 1
        std::shared_ptr<EdgeEpoch> old;
        {
          std::lock_guard<std::mutex> lock(mu);
          old = std::move(current);
          current = epoch;
        }
        reaper->Drop(std::move(old));
      }
      ++in_epoch;
      Queued q;
      q.epoch = epoch;
      q.index = index;
      q.spec = fleet.spec(index);
      q.submit_ns = NowNs();
      auto created = conn.Request(epoch->port, "POST", "/v1/campaigns",
                                  SubmitBody(q.spec), 201);
      q.accepted_ns = NowNs();
      if (!created.ok()) continue;
      auto doc = json::Parse(created.value());
      INCENTAG_CHECK(doc.ok());
      q.id = static_cast<service::CampaignId>(
          doc.value().Find("id")->int_value());
      latest.store(q.id);
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(std::move(q));
      cv.notify_all();
    }
    last_epoch = std::move(epoch);
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    cv.notify_all();
  }
  for (std::thread& t : taggers) t.join();
  stats->cpu_s = ProcessCpuSeconds() - cpu_start;
  stats->machine = ReadMachineCpu() - machine_start;
  poller.Stop();
  stats->wall_s = static_cast<double>(last_terminal_ns - start_ns) * 1e-9;
  for (double v : poller.latency_ms()) stats->read_ms.Add(v);
  for (double v : poller.late_ms()) stats->poller_late_ms.Add(v);

  std::vector<service::CampaignId> ids;
  for (service::CampaignId id = 1; id <= latest.load(); ++id) {
    ids.push_back(id);
  }
  ProbeReads(*last_epoch->manager, ids, 2000, stats);
  {
    std::lock_guard<std::mutex> lock(mu);
    reaper->Drop(std::move(current));
  }
  reaper->Drop(std::move(last_epoch));
  reaper.reset();  // every epoch is retired now
  stats->after = std::make_unique<obs::MetricsSnapshot>(
      obs::Registry::Default().Snapshot());
  stats->journal_bytes = journal_bytes;
  stats->journaled_tasks = stats->tasks;
  edge->refused = refused.load();
  edge->intake_unknown = unknown.load();
  edge->intake_invalid = invalid.load();
  edge->intake_duplicates = duplicates.load();
}

}  // namespace perfbench
