// JournalSink: batched group commit on a dedicated thread.
//
// fsync is the expensive step of journaling — milliseconds on real disks —
// and the service layer appends completion records from every campaign
// step. Synchronous per-append fsync would serialise the whole manager
// behind the disk. Instead, writers push bytes to the kernel themselves
// (JournalWriter::Flush, cheap) and hand the *durability* step to the
// sink: Schedule(writer) marks the journal dirty, and the sink thread
// coalesces all marks since its last pass into one FsyncDomain::Commit —
// a per-fd fdatasync ladder when the dirty set is small, or one
// fdatasync of a fleet commit log when it is large. N campaigns stepping
// concurrently therefore cost at most one disk flush per batching
// window, not one per journal (let alone per applied task).
//
// Durability contract: a record is power-loss durable only after the sink
// has committed it (or after an explicit JournalWriter::Sync, which the
// manager issues at terminal states). A crash can lose the tail of a
// journal back to the last commit — recovery handles exactly that by
// applying the fleet commit log (persist::ApplyCommitLog), truncating to
// the last intact record and re-running the lost steps, which Algorithm
// 1's determinism makes byte-identical.
#ifndef INCENTAG_PERSIST_JOURNAL_SINK_H_
#define INCENTAG_PERSIST_JOURNAL_SINK_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "src/persist/fsync_domain.h"
#include "src/persist/journal.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace persist {

struct JournalSinkOptions {
  // The sink sleeps this long after a pass before syncing again, widening
  // the coalescing window; 0 syncs as fast as the dirty set refills.
  int64_t batch_interval_us = 500;
  // Fleet commit log for large dirty sets (see persist::FsyncDomain);
  // empty keeps every pass on the per-fd ladder.
  std::string commit_log_path;
  // Dirty sets larger than this commit through the log.
  size_t commit_log_threshold = 4;
  // Retry ladder for transient per-journal sync failures, and the
  // health callbacks the domain invokes from the sink thread (see
  // FsyncDomainOptions for the exact contract). The service layer wires
  // these to fleet degraded mode and per-campaign quarantine.
  SyncRetryPolicy retry;
  std::function<void(const util::Status&)> on_storage_error;
  std::function<void()> on_storage_ok;
  std::function<void(JournalWriter*, const util::Status&)> on_writer_sick;
};

class JournalSink {
 public:
  explicit JournalSink(JournalSinkOptions options = {});
  ~JournalSink();  // implies Stop()

  JournalSink(const JournalSink&) = delete;
  JournalSink& operator=(const JournalSink&) = delete;

  // Registers `writer` with the shared fsync domain. Precondition: the
  // journal file is durable up to its current size (the manager tracks
  // right after the Submit sync / recovery truncation). Untracked
  // writers still commit correctly — they just always take the per-fd
  // path. Call Untrack before destroying a tracked writer.
  void Track(JournalWriter* writer);
  void Untrack(JournalWriter* writer);

  // The shared fsync domain, for tests and bench instrumentation.
  FsyncDomain& domain() { return domain_; }

  // Marks `writer` as having unsynced appends. The writer must stay alive
  // until a Drain() (or Stop()) after its last Schedule.
  void Schedule(JournalWriter* writer) EXCLUDES(mu_);

  // Blocks until every journal scheduled before the call has been synced.
  void Drain() EXCLUDES(mu_);

  // Drains, then joins the sink thread. Idempotent; Schedule after Stop
  // syncs inline on the calling thread (teardown straggler safety).
  void Stop() EXCLUDES(mu_);

  // Total fsync passes and journals synced, for tests and bench output.
  int64_t syncs() const EXCLUDES(mu_);

 private:
  void Loop() EXCLUDES(mu_);

  JournalSinkOptions options_;
  FsyncDomain domain_;
  mutable util::Mutex mu_;
  util::CondVar dirty_cv_;   // signals the sink thread
  util::CondVar synced_cv_;  // signals Drain waiters
  std::unordered_set<JournalWriter*> dirty_ GUARDED_BY(mu_);
  // Monotonically counts sync passes begun / fully fsynced.
  int64_t epoch_started_ GUARDED_BY(mu_) = 0;
  int64_t epoch_finished_ GUARDED_BY(mu_) = 0;
  int64_t journals_synced_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::once_flag join_once_;
  std::thread thread_;
};

}  // namespace persist
}  // namespace incentag

#endif  // INCENTAG_PERSIST_JOURNAL_SINK_H_
