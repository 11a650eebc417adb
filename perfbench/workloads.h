// The four perfbench workloads and the per-layer probes.
//
// Every workload runs a fleet phase and reports the same end-to-end
// metrics from its PhaseStats; the traced run (--trace 1) repeats the
// phase with obs tracing on and adds the per-layer table.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "perfbench/fleet.h"
#include "perfbench/harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // journals live under here (real filesystem)
  int nproc = 1;
};

// One finished campaign, as the correctness checks see it.
struct Finished {
  CampaignSpec spec;
  service::CampaignState state = service::CampaignState::kRunning;
  std::string report;  // ReportBytes, empty unless kept for checking
  std::string error;
};

// ---- in-process fleets (short_fleet, long_fleet)

struct InProcessFleet {
  const Dataset* data = nullptr;
  std::function<CampaignSpec(int64_t)> spec;
  int inflight = 16;
  // Campaigns one manager serves before the next one takes over.
  int64_t epoch_campaigns = 64;
  int workers = 1;
  std::string journal_dir;
  int64_t compact_bytes = 0;
  double seconds = 1.0;
  int64_t min_campaigns = 1;
  // Which campaign indices keep their report for the checks.
  std::function<bool(int64_t)> keep_report;
};

void RunInProcessFleet(const InProcessFleet& fleet, PhaseStats* stats,
                       std::vector<Finished>* finished, Tally* tally);

// ---- HTTP edge (edge_ingest)

struct EdgeFleet {
  const Dataset* data = nullptr;
  std::function<CampaignSpec(int64_t)> spec;
  int workers = 2;
  int taggers = 3;
  int64_t epoch_campaigns = 64;
  std::string journal_dir;
  double seconds = 1.0;
  int64_t min_campaigns = 1;
  double poll_hz = 200.0;
  std::function<bool(int64_t)> keep_report;
};

struct EdgeStats {
  Samples post_us;       // completion POST round trip
  Samples tasks_rtt_us;  // task pull round trip
  int64_t refused = 0;   // 503s plus transport errors
  int64_t intake_unknown = 0;
  int64_t intake_invalid = 0;
  int64_t intake_duplicates = 0;
};

void RunEdgeFleet(const EdgeFleet& fleet, PhaseStats* stats,
                  EdgeStats* edge, std::vector<Finished>* finished,
                  Tally* tally);

// ---- restart

// A recorded mixed-fleet journal directory: half byte-compacted, half
// plain, some ending in a torn tail, every campaign cut mid-run.
struct RecordedFleet {
  std::string dir;
  std::vector<CampaignSpec> specs;
  int64_t journaled_tasks = 0;  // completions the cut journals hold
  size_t campaigns = 0;
};

RecordedFleet RecordFleet(const Dataset& data, uint64_t seed,
                          const std::string& dir, int campaigns, int workers,
                          int64_t compact_bytes, Tally* tally);

struct RestartCycles {
  const Dataset* data = nullptr;
  const RecordedFleet* recorded = nullptr;
  std::string work_dir;
  int workers = 1;
  int64_t compact_bytes = 0;
  double seconds = 1.0;
  int min_cycles = 1;
};

// Recovers copies of the recorded directory and drives them to done,
// cycle after cycle; `recover_ms` gets one Recover() duration per cycle.
void RunRestartCycles(const RestartCycles& cycles, PhaseStats* stats,
                      Samples* recover_ms, std::vector<Finished>* finished,
                      Tally* tally);

// ---- per-layer probes

// Single-threaded timings of the core step protocol on the workload's
// dataset, one campaign per strategy, built by `spec_for(strategy)`.
struct CoreProbe {
  double make_stream_us = 0.0;
  double begin_us = 0.0;
  double finish_us = 0.0;
  double serialize_us = 0.0;
  double restore_us = 0.0;
  double apply_ns_per_task = 0.0;
  double draw_ns_per_task = 0.0;  // equal-weight mean over strategies
  std::map<std::string, double> draw_by_strategy;
  double campaign_kb = 0.0;
};
CoreProbe ProbeCore(const Dataset& data,
                    const std::function<CampaignSpec(const char*)>& spec_for,
                    int reps);

struct PersistProbe {
  double submit_sync_us = 0.0;
  double append_ns_per_task = 0.0;
};
PersistProbe ProbePersist(const std::string& dir, int64_t batch);

// Submit() durations of `count` campaigns cycling through `specs` on a
// live journaled manager, each cancelled once submitted.
std::vector<double> ProbeSubmit(const Dataset& data,
                                const std::vector<CampaignSpec>& specs,
                                const std::string& dir, int workers,
                                int64_t count, Tally* tally);

struct RecoveryProbe {
  double recover_ms = 0.0;
  double read_journal_ms = 0.0;  // every journal of one recovery
  double restore_us = 0.0;       // snapshot restores of one recovery
  double replay_ms = 0.0;        // replayed records x apply cost
  int64_t records_replayed = 0;
};
// Reads, restores and recovers the journals in `journal_dir` (copied to
// `scratch_dir`); `recover_ms` overrides the probe's own Recover timing
// when the workload measured real recoveries.
RecoveryProbe ProbeRecovery(const Dataset& data,
                            const std::string& journal_dir,
                            const std::string& scratch_dir,
                            double apply_ns_per_task);

struct HttpProbe {
  double parse_us = 0.0;
  double json_parse_us = 0.0;
  double dto_decode_us = 0.0;
  double status_encode_us = 0.0;
  double page_encode_us = 0.0;
  double intake_us = 0.0;
};
// Codec and intake timings on one completion batch of `batch` tasks and
// on the status/page a workload's read probe returned.
HttpProbe ProbeHttp(const service::CampaignStatus& status,
                    const service::CampaignPage& page, int64_t batch);

// ---- reporting

// The end-to-end metrics every workload reports: each the median of its
// values over the repetitions. Fails the run when a reported percentile
// has fewer than kMinTailSamples samples beyond it in any repetition.
void ReportEndToEnd(const std::vector<const PhaseStats*>& reps,
                    double setup_s, Result* result);

// Workload shape facts the per-layer report needs.
struct LayerInputs {
  const PhaseStats* traced = nullptr;
  double untraced_tasks_per_s = 0.0;
  int nproc = 1;
  double dataset_prep_ms = 0.0;
  CoreProbe core;
  PersistProbe persist;
  RecoveryProbe recovery;
  HttpProbe http;
  // The edge workload's own traffic, or the loopback edge probe's, and
  // the phase that holds its poller's reads.
  const EdgeStats* edge = nullptr;
  const PhaseStats* edge_phase = nullptr;
  bool edge_workload = false;
  // Submit timings for a workload whose timed phase submits nothing.
  std::vector<double> probe_submit_us;
  double failed_frac = 0.0;
  bool stage_table = false;  // print the per-task stage table
};
void ReportLayers(const LayerInputs& in, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
