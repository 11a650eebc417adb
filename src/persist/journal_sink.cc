#include "src/persist/journal_sink.h"

#include <chrono>
#include <vector>

#include "src/obs/metrics.h"

namespace incentag {
namespace persist {

JournalSink::JournalSink(JournalSinkOptions options) : options_(options) {
  FsyncDomainOptions domain_options;
  domain_options.commit_log_path = options_.commit_log_path;
  domain_options.per_fd_threshold = options_.commit_log_threshold;
  domain_options.retry = options_.retry;
  domain_options.on_storage_error = options_.on_storage_error;
  domain_options.on_storage_ok = options_.on_storage_ok;
  domain_options.on_writer_sick = options_.on_writer_sick;
  // An Init failure (log unopenable) degrades the domain to the per-fd
  // ladder — correct, just not fleet-wide — so the sink starts anyway.
  domain_.Init(domain_options);
  thread_ = std::thread([this] { Loop(); });
}

JournalSink::~JournalSink() { Stop(); }

void JournalSink::Track(JournalWriter* writer) { domain_.Track(writer); }

void JournalSink::Untrack(JournalWriter* writer) {
  // Drop any pending dirty mark too (ISSUE 10): a quarantined writer's
  // fd must never be synced again, not even by a pass already signalled.
  // A batch the loop has already popped may still reference the writer —
  // that sync fails like the one that caused the quarantine and the
  // repeat sick-callback is a no-op — but no *new* pass will touch it.
  {
    util::MutexLock lock(&mu_);
    dirty_.erase(writer);
  }
  domain_.Untrack(writer);
}

void JournalSink::Schedule(JournalWriter* writer) {
  {
    util::MutexLock lock(&mu_);
    if (!stopped_) {
      dirty_.insert(writer);
      dirty_cv_.NotifyOne();
      return;
    }
  }
  // Sink already stopped (teardown straggler): stay durable, sync inline
  // — and feed the same syncs metric the group-commit passes feed, so
  // stragglers are not invisible to the metrics gate.
  if (writer->Sync().ok()) JournalSyncsCounter()->Increment();
}

void JournalSink::Drain() {
  util::MutexLock lock(&mu_);
  // Anything dirty right now is covered by the next pass to start; a pass
  // already in flight (started > finished) must also land.
  const int64_t target =
      dirty_.empty() ? epoch_started_ : epoch_started_ + 1;
  dirty_cv_.NotifyOne();
  while (epoch_finished_ < target && !stopped_) synced_cv_.Wait(&mu_);
}

void JournalSink::Stop() {
  {
    util::MutexLock lock(&mu_);
    stop_ = true;
    dirty_cv_.NotifyOne();
  }
  // call_once: concurrent Stop callers must not race on join(), and every
  // caller returns only after the sink thread is really gone.
  std::call_once(join_once_, [this] { thread_.join(); });
}

int64_t JournalSink::syncs() const {
  util::MutexLock lock(&mu_);
  return journals_synced_;
}

void JournalSink::Loop() {
  // The batch loop interleaves locked bookkeeping with unlocked fsyncs,
  // so it manages mu_ explicitly; the analysis checks that every path —
  // including the loop back-edge — re-enters the loop holding the lock.
  mu_.Lock();
  for (;;) {
    while (!stop_ && dirty_.empty()) dirty_cv_.Wait(&mu_);
    if (dirty_.empty()) {
      // stop_ set and nothing left to sync. Retire the commit log
      // before exiting: a leftover log is legal (recovery skips patches
      // for rewritten journals), but retiring it here means the clean
      // path never replays patches at all.
      mu_.Unlock();
      domain_.Checkpoint();
      mu_.Lock();
      stopped_ = true;
      synced_cv_.NotifyAll();
      mu_.Unlock();
      return;
    }
    static obs::Histogram* commit_batch =
        obs::Registry::Default().GetHistogram(
            "incentag_persist_group_commit_batch_size",
            "Journals synced per group-commit pass", obs::BatchSizeBounds());
    std::vector<JournalWriter*> batch(dirty_.begin(), dirty_.end());
    dirty_.clear();
    ++epoch_started_;
    mu_.Unlock();
    commit_batch->Observe(static_cast<double>(batch.size()));
    // The domain picks the ladder rung (per-fd fdatasync vs one commit
    // log fdatasync for the window) and feeds the fsync metrics; an IO
    // error on any journal is retried at its terminal Sync.
    domain_.Commit(batch);
    mu_.Lock();
    // Release Drain()/Stop() waiters the moment durability is achieved —
    // the coalescing sleep below must not tax them.
    ++epoch_finished_;
    journals_synced_ += static_cast<int64_t>(batch.size());
    synced_cv_.NotifyAll();
    if (!stop_ && options_.batch_interval_us > 0) {
      // Widen the coalescing window so steps landing right after this
      // pass share the next fsync instead of each triggering one.
      mu_.Unlock();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.batch_interval_us));
      mu_.Lock();
    }
  }
}

}  // namespace persist
}  // namespace incentag
