// perfbench: the repository's fleet benchmark.
//
//   perfbench_fleet --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --work_dir <dir>
//
// Workloads (see perfbench/README.md for why each exists):
//   short_fleet  campaign_server's fleet shape, 16 short campaigns in
//                flight: per-campaign setup dominates.
//   long_fleet   8 campaigns run to the end of their streams with
//                byte-triggered compaction: per-task work dominates.
//   edge_ingest  the /v1 HTTP surface: submit, task pull, completion POST
//                and an open-loop status/list poller.
//   restart      recover a recorded, cut mixed-fleet journal directory
//                and drive it to done, cycle after cycle.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced then traced (obs trace ring on) and prints the per-layer
// metrics and the per-task stage table. Both check correctness. The last
// stdout line is the JSON result.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/workloads.h"
#include "src/http/server.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Reads per second of edge_ingest's open-loop poller, a choice of the
// benchmark's own: it gives the 1000 reads a p99 needs in under two
// seconds.
constexpr double kPollHz = 600.0;
// Enough finished campaigns per repetition that the median has ten
// samples beyond it.
constexpr int64_t kMinCampaigns = 20;
// The resource catalogue is fixed, as a platform's is; --seed draws the
// campaign mix (strategies' seeds, budgets, batch sizes) and the restart
// workload's recorded fleet.
constexpr uint64_t kCatalogueSeed = 42;

uint64_t Mix(uint64_t seed, int64_t i) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(i) +
               0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

// Set-up: dataset preparation followed by manager (and server)
// construction, timed apart. A few rounds run first and one more before
// each repetition, so the medians see the machine over the whole run, as
// the repetitions' do; setup_s is the sum of the two medians.
constexpr int kInitialSetupRounds = 5;

class Setup {
 public:
  Setup(int64_t n, std::function<void()> build)
      : n_(n), build_(std::move(build)) {
    for (int round = 0; round < kInitialSetupRounds; ++round) Round();
  }

  // One timed round. The first round's dataset is the one the workload
  // runs on; later rounds drop theirs.
  void Round() {
    // Start as a fresh process would: with the last round's memory
    // handed back to the kernel.
    ::malloc_trim(0);
    const MachineCpu machine_start = ReadMachineCpu();
    const uint64_t t0 = NowNs();
    std::unique_ptr<Dataset> data = MakeDataset(n_, kCatalogueSeed);
    const uint64_t t1 = NowNs();
    build_();
    const uint64_t t2 = NowNs();
    machine_ += ReadMachineCpu() - machine_start;
    prep_ms_.push_back(NsToMs(t1 - t0));
    build_ms_.push_back(NsToMs(t2 - t1));
    if (data_ == nullptr) data_ = std::move(data);
  }

  const Dataset& data() const { return *data_; }
  double prep_ms() const { return Median(prep_ms_); }
  // Granted time, as the rates use: less the share of the rounds' CPU
  // time the hypervisor gave to other guests.
  double setup_s() const {
    return GrantedSeconds((Median(prep_ms_) + Median(build_ms_)) * 1e-3,
                          machine_);
  }
  void Print() const {
    const Quartiles prep = ComputeQuartiles(prep_ms_);
    const Quartiles built = ComputeQuartiles(build_ms_);
    std::printf("setup: %zu rounds, dataset prep median %.3f ms (q1 %.3f, "
                "q3 %.3f), construction median %.3f ms (q1 %.3f, q3 "
                "%.3f), %.1f%% of the CPU time stolen\n",
                prep_ms_.size(), prep.median, prep.q1, prep.q3, built.median,
                built.q1, built.q3, 100.0 * StolenShare(machine_));
  }

 private:
  const int64_t n_;
  const std::function<void()> build_;
  std::unique_ptr<Dataset> data_;
  std::vector<double> prep_ms_;
  std::vector<double> build_ms_;
  MachineCpu machine_;
};

void BuildManager(int workers, const std::string& dir) {
  service::ManagerOptions options;
  options.num_threads = workers;
  options.journal_dir = dir;
  service::CampaignManager manager(options);
}

const char* StateName(service::CampaignState state) {
  switch (state) {
    case service::CampaignState::kRunning:
      return "running";
    case service::CampaignState::kDone:
      return "done";
    case service::CampaignState::kCancelled:
      return "cancelled";
    case service::CampaignState::kFailed:
      return "failed";
    case service::CampaignState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

// Every campaign must end kDone, and every kept report must be
// byte-identical to a deterministic-mode run of the same spec.
void CheckReports(const std::vector<Finished>& finished,
                  ReferenceCache* refs, Result* result) {
  int64_t checked = 0;
  for (const Finished& f : finished) {
    if (f.state != service::CampaignState::kDone) {
      result->Fail(f.spec.name + " ended " + StateName(f.state) + " " +
                   f.error);
      continue;
    }
    if (f.report.empty()) continue;
    const std::string& want = refs->Get(f.spec);
    if (want.empty()) {
      result->Fail(f.spec.name + ": deterministic reference run failed");
    } else if (want != f.report) {
      result->Fail(f.spec.name + " (" + f.spec.Key() +
                   "): report differs from the deterministic-mode run");
    }
    ++checked;
  }
  std::printf("checked %lld of %zu campaign reports against "
              "deterministic-mode runs\n",
              static_cast<long long>(checked), finished.size());
  if (checked == 0) result->Fail("no campaign report was checked");
}

// The layer probes every traced run shares; `edge` is the workload's own
// edge traffic or, when null, a short loopback edge session on the
// workload's dataset.
struct ProbeShape {
  std::function<CampaignSpec(const char*)> spec_for;
  int core_reps = 3;
  int64_t batch = 32;
};

void ReportTraced(const RunArgs& args, const Dataset& data,
                  const Setup& setup, const PhaseStats& untraced,
                  const PhaseStats& traced, const std::string& journal_dir,
                  const ProbeShape& shape, const EdgeStats* edge,
                  LayerInputs in, Tally* tally, Result* result) {
  in.traced = &traced;
  in.untraced_tasks_per_s =
      static_cast<double>(untraced.tasks) /
      std::max(GrantedSeconds(untraced.wall_s, untraced.machine), 1e-9);
  in.nproc = args.nproc;
  in.dataset_prep_ms = setup.prep_ms();
  in.core = ProbeCore(data, shape.spec_for, shape.core_reps);
  in.persist = ProbePersist(args.work_dir + "/persist-probe", shape.batch);
  const double recover_ms = in.recovery.recover_ms;
  in.recovery = ProbeRecovery(data, journal_dir,
                              args.work_dir + "/recovery-probe",
                              in.core.apply_ns_per_task);
  if (recover_ms > 0.0) in.recovery.recover_ms = recover_ms;
  in.http = ProbeHttp(traced.last_status, traced.last_page, shape.batch);

  EdgeStats probe_edge;
  PhaseStats probe_stats;
  in.edge_phase = &traced;
  if (edge == nullptr) {
    EdgeFleet probe;
    probe.data = &data;
    probe.spec = [](int64_t i) {
      CampaignSpec spec;
      spec.name = "edge-probe-" + std::to_string(i);
      spec.strategy = kStrategies[i % 5];
      spec.budget = 2000;
      spec.batch = 64;
      spec.seed = static_cast<uint64_t>(i) + 1;
      return spec;
    };
    probe.workers = 1;
    probe.taggers = 1;
    probe.journal_dir = args.work_dir + "/edge-probe";
    // Long enough for the 1000 polls and POSTs a p99 needs.
    probe.seconds = 2.0;
    probe.min_campaigns = 2;
    probe.poll_hz = kPollHz;
    probe.keep_report = [](int64_t) { return false; };
    std::vector<Finished> probe_finished;
    RunEdgeFleet(probe, &probe_stats, &probe_edge, &probe_finished, tally);
    for (const Finished& f : probe_finished) {
      if (f.state != service::CampaignState::kDone) {
        result->Fail("edge probe campaign " + f.spec.name + " ended " +
                     StateName(f.state));
      }
    }
    edge = &probe_edge;
    in.edge_phase = &probe_stats;
  }
  in.edge = edge;
  in.failed_frac = tally->FailedFraction();
  ReportLayers(in, result);
}

// The untraced run is kReps back-to-back repetitions, and every
// end-to-end metric is the median of its per-repetition values: a stall
// on the shared machine then costs one repetition, not the run.
constexpr int kReps = 20;
constexpr double kWarmupSeconds = 2.0;

// Runs the repetitions untraced or, with --trace 1, one untraced and one
// traced phase of half the time each; a set-up round precedes each
// untraced one.
template <typename RunPhase>
void RunPhases(const RunArgs& args, const RunPhase& run, Setup* setup,
               std::vector<std::unique_ptr<PhaseStats>>* untraced,
               PhaseStats* traced) {
  // Warm-up: caches fill and lazy set-up finishes; nothing is reported.
  PhaseStats warmup;
  run(args.work_dir + "/warmup", kWarmupSeconds, &warmup);
  fs::remove_all(args.work_dir + "/warmup");
  const int reps = args.trace ? 1 : kReps;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds / reps;
  for (int rep = 0; rep < reps; ++rep) {
    setup->Round();
    const std::string dir = args.work_dir + "/untraced-" + std::to_string(rep);
    untraced->push_back(std::make_unique<PhaseStats>());
    // Each repetition starts from the same heap: freed pages go back to
    // the kernel first.
    ::malloc_trim(0);
    RssSampler rss;
    run(dir, seconds, untraced->back().get());
    untraced->back()->peak_rss_kb = rss.peak_kb();
    fs::remove_all(dir);
  }
  setup->Print();
  if (!args.trace) return;
  incentag::obs::Trace::Enable(size_t{1} << 16);
  run(args.work_dir + "/traced", seconds, traced);
  incentag::obs::Trace::Disable();
}

std::vector<const PhaseStats*> Reps(
    const std::vector<std::unique_ptr<PhaseStats>>& reps) {
  std::vector<const PhaseStats*> out;
  for (const auto& rep : reps) out.push_back(rep.get());
  return out;
}

void InProcessWorkload(const RunArgs& args, bool long_fleet, Result* result,
                       Tally* tally) {
  const int workers = std::max(1, args.nproc - 1);
  const int64_t n = long_fleet ? 600 : 200;
  Setup setup(n, [&] {
    BuildManager(workers, args.work_dir + "/setup");
  });
  const Dataset& data = setup.data();
  const uint64_t seed = args.seed;

  InProcessFleet fleet;
  fleet.data = &data;
  fleet.workers = workers;
  fleet.min_campaigns = kMinCampaigns;
  ProbeShape shape;
  if (long_fleet) {
    // Ten configurations cycle, so every campaign's report is checked
    // against one of ten deterministic-mode runs.
    fleet.inflight = 8;
    fleet.epoch_campaigns = 32;
    fleet.compact_bytes = 256 * 1024;
    fleet.spec = [&data, seed](int64_t i) {
      const int64_t k = i % 10;
      incentag::util::Rng rng(Mix(seed, k));
      CampaignSpec spec;
      spec.name = "long-" + std::to_string(i);
      spec.strategy = kStrategies[k % 5];
      spec.budget = data.future_posts;
      spec.batch = rng.NextInt(16, 64);
      spec.priority = k % 4 == 0 ? 4 : 1;
      spec.seed = rng.NextUint64() >> 12;
      return spec;
    };
    fleet.keep_report = [](int64_t) { return true; };
    shape.spec_for = [&data](const char* strategy) {
      CampaignSpec spec;
      spec.name = "probe";
      spec.strategy = strategy;
      spec.budget = data.future_posts;
      spec.batch = 40;
      spec.seed = 7;
      return spec;
    };
    shape.core_reps = 1;
    shape.batch = 40;
  } else {
    // campaign_server's fleet: budgets 200-1000, batches 1-64,
    // strategies cycling, every 4th campaign critical.
    fleet.inflight = 16;
    fleet.epoch_campaigns = 64;
    fleet.spec = [seed](int64_t i) {
      incentag::util::Rng rng(Mix(seed, i));
      CampaignSpec spec;
      spec.name = (i % 4 == 0 ? "critical-" : "community-") +
                  std::to_string(i);
      spec.strategy = kStrategies[i % 5];
      spec.budget = 200 + static_cast<int64_t>(rng.NextBounded(800));
      spec.batch = 1 + static_cast<int64_t>(rng.NextBounded(64));
      spec.priority = i % 4 == 0 ? 4 : 1;
      spec.seed = rng.NextUint64() >> 12;
      return spec;
    };
    fleet.keep_report = [seed](int64_t i) {
      return Mix(seed ^ 0xC0FFEE, i) % 16 == 0;
    };
    shape.spec_for = [](const char* strategy) {
      CampaignSpec spec;
      spec.name = "probe";
      spec.strategy = strategy;
      spec.budget = 600;
      spec.batch = 32;
      spec.seed = 7;
      return spec;
    };
    shape.core_reps = 7;
    shape.batch = 32;
  }

  std::vector<Finished> finished;
  std::vector<std::unique_ptr<PhaseStats>> untraced;
  PhaseStats traced;
  RunPhases(
      args,
      [&](const std::string& dir, double seconds, PhaseStats* stats) {
        fleet.journal_dir = dir;
        fleet.seconds = seconds;
        RunInProcessFleet(fleet, stats, &finished, tally);
      },
      &setup, &untraced, &traced);

  ReferenceCache refs(&data.prepared);
  CheckReports(finished, &refs, result);
  if (!args.trace) {
    ReportEndToEnd(Reps(untraced), setup.setup_s(), result);
    return;
  }
  LayerInputs in;
  in.stage_table = true;
  ReportTraced(args, data, setup, *untraced.front(), traced, traced.sample_journal_dir,
               shape, nullptr, in, tally, result);
}

void EdgeWorkload(const RunArgs& args, Result* result, Tally* tally) {
  constexpr int kWorkers = 2;
  Setup setup(200, [&] {
    BuildManager(kWorkers, args.work_dir + "/setup");
    incentag::http::Server server(incentag::http::ServerOptions{});
    INCENTAG_CHECK(server.Start().ok());
    server.Stop();
  });
  const Dataset& data = setup.data();
  const uint64_t seed = args.seed;

  EdgeFleet fleet;
  fleet.data = &data;
  fleet.workers = kWorkers;
  fleet.taggers = 3;
  // Two epochs fit in one repetition, so peak memory does not rise with
  // how many campaigns a faster edge completes.
  fleet.epoch_campaigns = 32;
  fleet.min_campaigns = kMinCampaigns;
  fleet.poll_hz = kPollHz;
  fleet.spec = [seed](int64_t i) {
    incentag::util::Rng rng(Mix(seed, i));
    CampaignSpec spec;
    spec.name = "edge-" + std::to_string(i);
    spec.strategy = kStrategies[i % 5];
    spec.budget = 4000;
    spec.batch = 64;
    spec.seed = rng.NextUint64() >> 12;
    return spec;
  };
  fleet.keep_report = [seed](int64_t i) {
    return Mix(seed ^ 0xC0FFEE, i) % 8 == 0;
  };

  std::vector<Finished> finished;
  std::vector<std::unique_ptr<PhaseStats>> untraced;
  PhaseStats traced;
  EdgeStats untraced_edge;
  EdgeStats traced_edge;
  RunPhases(
      args,
      [&](const std::string& dir, double seconds, PhaseStats* stats) {
        fleet.journal_dir = dir;
        fleet.seconds = seconds;
        EdgeStats* edge = stats == &traced ? &traced_edge : &untraced_edge;
        RunEdgeFleet(fleet, stats, edge, &finished, tally);
        if (edge->intake_unknown != 0 || edge->intake_invalid != 0 ||
            edge->intake_duplicates != 0) {
          result->Fail("edge intake classified completions as unknown (" +
                       std::to_string(edge->intake_unknown) + "), invalid (" +
                       std::to_string(edge->intake_invalid) +
                       ") or duplicate (" +
                       std::to_string(edge->intake_duplicates) + ")");
        }
      },
      &setup, &untraced, &traced);

  ReferenceCache refs(&data.prepared);
  CheckReports(finished, &refs, result);
  if (!args.trace) {
    ReportEndToEnd(Reps(untraced), setup.setup_s(), result);
    return;
  }
  ProbeShape shape;
  shape.spec_for = [](const char* strategy) {
    CampaignSpec spec;
    spec.name = "probe";
    spec.strategy = strategy;
    spec.budget = 4000;
    spec.batch = 64;
    spec.seed = 7;
    return spec;
  };
  shape.batch = 64;
  LayerInputs in;
  in.edge_workload = true;
  ReportTraced(args, data, setup, *untraced.front(), traced, traced.sample_journal_dir,
               shape, &traced_edge, in, tally, result);
}

void RestartWorkload(const RunArgs& args, Result* result, Tally* tally) {
  const int workers = std::max(1, args.nproc - 1);
  constexpr int kCampaigns = 16;
  constexpr int64_t kCompactBytes = 64 * 1024;
  Setup setup(400, [&] {
    BuildManager(workers, args.work_dir + "/setup");
  });
  const Dataset& data = setup.data();

  // Recording the fleet is input generation, not set-up: it is neither
  // timed nor part of setup_s.
  const RecordedFleet recorded =
      RecordFleet(data, args.seed, args.work_dir + "/record", kCampaigns,
                  workers, kCompactBytes, tally);
  std::printf("restart: recorded %zu journals holding %lld completions\n",
              recorded.campaigns,
              static_cast<long long>(recorded.journaled_tasks));

  RestartCycles cycles;
  cycles.data = &data;
  cycles.recorded = &recorded;
  cycles.workers = workers;
  cycles.compact_bytes = kCompactBytes;
  cycles.min_cycles = static_cast<int>(
      (kMinCampaigns + static_cast<int64_t>(recorded.campaigns) - 1) /
      static_cast<int64_t>(recorded.campaigns));

  std::vector<Finished> finished;
  std::vector<std::unique_ptr<PhaseStats>> untraced;
  PhaseStats traced;
  Samples untraced_recover_ms;
  Samples traced_recover_ms;
  RunPhases(
      args,
      [&](const std::string& dir, double seconds, PhaseStats* stats) {
        cycles.work_dir = dir;
        cycles.seconds = seconds;
        RunRestartCycles(cycles, stats,
                         stats == &traced ? &traced_recover_ms
                                          : &untraced_recover_ms,
                         &finished, tally);
      },
      &setup, &untraced, &traced);

  ReferenceCache refs(&data.prepared);
  CheckReports(finished, &refs, result);
  if (!args.trace) {
    ReportEndToEnd(Reps(untraced), setup.setup_s(), result);
    return;
  }
  const int64_t mean_budget = data.future_posts / 3;
  ProbeShape shape;
  shape.spec_for = [mean_budget](const char* strategy) {
    CampaignSpec spec;
    spec.name = "probe";
    spec.strategy = strategy;
    spec.budget = mean_budget;
    spec.batch = 32;
    spec.seed = 7;
    return spec;
  };
  shape.batch = 32;
  LayerInputs in;
  // Enough Submits of the recorded campaigns to support their p90.
  in.probe_submit_us =
      ProbeSubmit(data, recorded.specs, args.work_dir + "/submit-probe",
                  workers, 200, tally);
  in.recovery.recover_ms = Median(traced_recover_ms.Take());
  ReportTraced(args, data, setup, *untraced.front(), traced, recorded.dir, shape,
               nullptr, in, tally, result);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_fleet: %s\nusage: perfbench_fleet --workload "
               "short_fleet|long_fleet|edge_ingest|restart --seed N "
               "--seconds S --trace 0|1 --work_dir DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work_dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (args.work_dir.empty() || !(args.seconds > 0.0)) {
    return Usage("--work_dir and a positive --seconds are required");
  }
  if (args.workload != "short_fleet" && args.workload != "long_fleet" &&
      args.workload != "edge_ingest" && args.workload != "restart") {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  incentag::util::SetLogLevel(incentag::util::LogLevel::kWarning);
  args.nproc = static_cast<int>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  std::filesystem::remove_all(args.work_dir);
  INCENTAG_CHECK(incentag::util::CreateDirectories(args.work_dir).ok());
  std::printf(
      "perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
      "journal_fs=%s flush=fdatasync per 500us group-commit window\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.nproc,
      FilesystemType(args.work_dir).c_str());

  Result result;
  Tally tally;
  if (args.workload == "short_fleet") {
    InProcessWorkload(args, /*long_fleet=*/false, &result, &tally);
  } else if (args.workload == "long_fleet") {
    InProcessWorkload(args, /*long_fleet=*/true, &result, &tally);
  } else if (args.workload == "edge_ingest") {
    EdgeWorkload(args, &result, &tally);
  } else {
    RestartWorkload(args, &result, &tally);
  }
  if (tally.failed() != 0) {
    result.Fail(std::to_string(tally.failed()) + " of " +
                std::to_string(tally.attempted()) + " operations failed");
  }
  std::filesystem::remove_all(args.work_dir);
  std::printf("%s\n", result.ToJson(tally.attempted(), tally.failed()).c_str());
  return 0;
}
