#include "src/persist/fsync_domain.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/crc32.h"
#include "src/util/fail_point.h"
#include "src/util/wire.h"

namespace incentag {
namespace persist {

namespace {

using util::wire::PutString;
using util::wire::PutU32;
using util::wire::PutU64;
using util::wire::PutU8;
using util::wire::Reader;

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc
constexpr uint8_t kPatchRecord = 1;

obs::Histogram* FsyncSeconds() {
  static obs::Histogram* histogram = obs::Registry::Default().GetHistogram(
      "incentag_persist_fsync_seconds", "Per-journal fsync latency",
      obs::LatencyBoundsSeconds());
  return histogram;
}

obs::Counter* RetryAttemptsCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_retry_attempts_total",
      "Journal sync retries after a transient storage failure");
  return counter;
}

obs::Counter* RetrySuccessCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_retry_success_total",
      "Journal syncs that succeeded on a retry attempt");
  return counter;
}

obs::Counter* RetryExhaustedCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_retry_exhausted_total",
      "Journal sync episodes that exhausted the retry ladder or hit a "
      "permanent error");
  return counter;
}

obs::Counter* LogCommitsCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_log_commits_total",
      "Sync windows committed through the fleet commit log");
  return counter;
}

// Fault-injection sites for the commit-log rung (ISSUE 10): distinct
// from the file_io points so tests can fault the fleet log without
// touching the campaign journals in the same window.
INCENTAG_FAIL_POINT_DEFINE(g_fail_log_append, "fsync_domain/log_append");
INCENTAG_FAIL_POINT_DEFINE(g_fail_log_sync, "fsync_domain/log_sync");

// One logged patch: journal `name` (basename, no slashes) holds `data`
// at `offset`, valid for commit generation `gen` of that journal, and
// only if the `context_len` file bytes immediately before `offset`
// still CRC to `context_crc`.
struct PatchFrame {
  std::string name;
  uint64_t gen = 0;
  uint64_t offset = 0;
  uint8_t context_len = 0;
  uint32_t context_crc = 0;
  std::string data;
};

std::string EncodePatchFrame(const PatchFrame& patch) {
  std::string body;
  PutU8(&body, kPatchRecord);
  PutString(&body, patch.name);
  PutU64(&body, patch.gen);
  PutU64(&body, patch.offset);
  PutU8(&body, patch.context_len);
  PutU32(&body, patch.context_crc);
  PutString(&body, patch.data);
  return FrameRecord(body);
}

util::Status DecodePatchFrame(std::string_view body, PatchFrame* out) {
  Reader in(body);
  uint8_t type = 0;
  if (!in.GetU8(&type) || type != kPatchRecord) {
    return util::Status::Corruption("not a commit-log patch record");
  }
  if (!in.GetString(&out->name) || !in.GetU64(&out->gen) ||
      !in.GetU64(&out->offset) || !in.GetU8(&out->context_len) ||
      !in.GetU32(&out->context_crc) || !in.GetString(&out->data) ||
      !in.exhausted()) {
    return util::Status::Corruption("malformed commit-log patch record");
  }
  if (out->name.empty() ||
      out->name.find('/') != std::string::npos) {
    return util::Status::Corruption("commit-log patch names bad journal");
  }
  return util::Status::OK();
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

}  // namespace

obs::Counter* JournalSyncsCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_journal_syncs_total",
      "Journal fsyncs performed by the group-commit sink");
  return counter;
}

util::Status FsyncDomain::Init(const FsyncDomainOptions& options) {
  util::MutexLock lock(&mu_);
  options_ = options;
  if (options_.commit_log_path.empty()) return util::Status::OK();
  // Truncate any stale incarnation: a pre-crash log must have been
  // consumed by ApplyCommitLog() before this runs (see header), and a
  // clean-shutdown leftover holds patches whose journals were synced.
  util::Status status = log_.Open(options_.commit_log_path,
                                  /*truncate_to=*/0);
  if (status.ok()) status = log_.Sync();
  // The log's *directory entry* must be durable before any Commit()
  // treats a log fdatasync as the fleet's durability point — fdatasync
  // of a fresh file does not cover its dirent.
  if (status.ok()) status = util::SyncDir(Dirname(options_.commit_log_path));
  if (!status.ok()) {
    log_.Close();
    return status;  // domain stays usable; log rung disabled
  }
  log_active_ = true;
  // Registered up front so /metrics shows a configured rung that never
  // engaged as 0 rather than as an absent series.
  LogCommitsCounter();
  return util::Status::OK();
}

bool FsyncDomain::commit_log_active() const {
  util::MutexLock lock(&mu_);
  return log_active_;
}

void FsyncDomain::Track(JournalWriter* writer) {
  // Writer state is read before taking mu_ — the domain never holds its
  // lock while taking a writer's (see header).
  const int64_t size = writer->size();
  const std::string dir = Dirname(writer->path());
  writer->set_commit_observer(this);
  util::MutexLock lock(&mu_);
  WriterState& state = states_[writer];
  state.generation = next_generation_++;
  state.durable_offset = size;
  state.log_eligible = !options_.commit_log_path.empty() &&
                       dir == Dirname(options_.commit_log_path);
}

void FsyncDomain::Untrack(JournalWriter* writer) {
  writer->set_commit_observer(nullptr);
  util::MutexLock lock(&mu_);
  states_.erase(writer);
}

void FsyncDomain::OnJournalRewritten(JournalWriter* writer,
                                     int64_t durable_size) {
  util::MutexLock lock(&mu_);
  auto it = states_.find(writer);
  if (it == states_.end()) return;
  // New file incarnation: older patches are dead (generation moves on)
  // and the rewrite was fsynced before its rename, so the whole file is
  // the new durable baseline.
  it->second.generation = next_generation_++;
  it->second.durable_offset = durable_size;
}

util::Status FsyncDomain::SyncWithRetry(JournalWriter* writer,
                                        int64_t* durable) {
  const SyncRetryPolicy& retry = options_.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  int64_t backoff_us = std::max<int64_t>(1, retry.initial_backoff_us);
  util::Status status;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      RetryAttemptsCounter()->Increment();
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = std::min<int64_t>(
          std::max<int64_t>(1, retry.max_backoff_us),
          static_cast<int64_t>(static_cast<double>(backoff_us) *
                               retry.multiplier));
      // fsyncgate: the failed sync poisoned the page cache behind the
      // fd. Rebuild the writer on a fresh descriptor and re-append from
      // the last durable offset — never re-fsync the old fd blindly.
      util::Status recovered = writer->RecoverAfterSyncFailure();
      if (!recovered.ok()) {
        if (options_.on_storage_error) options_.on_storage_error(recovered);
        RetryExhaustedCounter()->Increment();
        return recovered;
      }
    }
    {
      obs::TraceSpan span("fsync");
      obs::ScopedTimer timer(FsyncSeconds());
      status = writer->SyncData(durable);
    }
    if (status.ok()) {
      if (attempt > 0) RetrySuccessCounter()->Increment();
      if (options_.on_storage_ok) options_.on_storage_ok();
      return status;
    }
    if (options_.on_storage_error) options_.on_storage_error(status);
    if (util::ClassifyIoError(status) != util::IoErrorClass::kTransient) {
      break;  // retrying a permanent failure cannot help
    }
  }
  RetryExhaustedCounter()->Increment();
  return status;
}

void FsyncDomain::SyncOne(JournalWriter* writer) {
  uint64_t gen = 0;
  bool tracked = false;
  {
    util::MutexLock lock(&mu_);
    auto it = states_.find(writer);
    if (it != states_.end()) {
      tracked = true;
      gen = it->second.generation;
    }
  }
  int64_t durable = 0;
  util::Status status = SyncWithRetry(writer, &durable);
  if (!status.ok()) {
    // Ladder exhausted or permanent failure: this writer's data cannot
    // be made durable here. Escalate — the campaign layer quarantines
    // the journal (frozen, resumable) instead of letting the sink wedge
    // or the failure pass silently.
    if (options_.on_writer_sick) options_.on_writer_sick(writer, status);
    return;
  }
  JournalSyncsCounter()->Increment();
  util::MutexLock lock(&mu_);
  ++physical_syncs_;
  if (!tracked) return;
  auto it = states_.find(writer);
  // A compaction between the sync and here moved the baseline; its
  // durable size wins (ours describes the replaced file).
  if (it != states_.end() && it->second.generation == gen &&
      durable > it->second.durable_offset) {
    it->second.durable_offset = durable;
  }
}

util::Status FsyncDomain::Commit(const std::vector<JournalWriter*>& batch) {
  if (batch.empty()) return util::Status::OK();
  bool use_log = false;
  {
    util::MutexLock lock(&mu_);
    use_log = log_active_ && batch.size() > options_.per_fd_threshold;
  }
  if (!use_log) {
    for (JournalWriter* writer : batch) SyncOne(writer);
    return util::Status::OK();
  }

  // Commit-log rung: collect every journal's unsynced tail (flushing it
  // to the journal's own file on the way — the log holds a durable copy,
  // the file catches up via writeback or a later checkpoint), append
  // one patch per journal, and fdatasync the log once for the window.
  struct Pending {
    JournalWriter* writer = nullptr;
    uint64_t gen = 0;
    int64_t from = 0;
    bool logged = false;
    PatchFrame patch;
  };
  std::vector<Pending> pending;
  std::vector<JournalWriter*> fallback;
  pending.reserve(batch.size());
  for (JournalWriter* writer : batch) {
    Pending p;
    p.writer = writer;
    {
      util::MutexLock lock(&mu_);
      auto it = states_.find(writer);
      if (it == states_.end() || !it->second.log_eligible) {
        // Untracked (no durable baseline) or living outside the log's
        // directory: the per-fd rung is always correct.
        fallback.push_back(writer);
        continue;
      }
      p.gen = it->second.generation;
      p.from = it->second.durable_offset;
    }
    util::Status collected = writer->CollectUnsynced(
        p.from, &p.patch.data, &p.patch.context_crc, &p.patch.context_len);
    if (!collected.ok()) {
      // Stale baseline (a compaction raced us) or an IO error: the
      // per-fd rung is always correct.
      fallback.push_back(writer);
      continue;
    }
    if (p.patch.data.empty()) continue;  // already durable
    p.patch.name = Basename(writer->path());
    p.patch.gen = p.gen;
    p.patch.offset = static_cast<uint64_t>(p.from);
    pending.push_back(std::move(p));
  }
  for (JournalWriter* writer : fallback) SyncOne(writer);

  bool need_checkpoint = false;
  bool log_failed = false;
  if (!pending.empty()) {
    util::MutexLock lock(&mu_);
    if (!log_active_) {
      log_failed = true;  // degraded since the rung was chosen
    } else {
      size_t appended = 0;
      for (Pending& p : pending) {
        auto it = states_.find(p.writer);
        // Superseded mid-collect (compaction landed): the new file is
        // fully durable, the patch describes a dead incarnation.
        if (it == states_.end() || it->second.generation != p.gen) continue;
        util::FailPoint::Fault fault;
        if (INCENTAG_FAIL_POINT_FIRED(g_fail_log_append, &fault) &&
            fault.shape == util::FailPoint::Shape::kErrno) {
          log_failed = true;
          break;
        }
        util::Status status = log_.Append(EncodePatchFrame(p.patch));
        if (!status.ok()) {
          log_failed = true;
          break;
        }
        p.logged = true;
        ++appended;
      }
      if (!log_failed && appended > 0) {
        util::Status status;
        util::FailPoint::Fault fault;
        if (INCENTAG_FAIL_POINT_FIRED(g_fail_log_sync, &fault) &&
            fault.shape == util::FailPoint::Shape::kErrno) {
          status = util::Status::IoError(
              "fdatasync " + options_.commit_log_path + ": " +
                  std::strerror(fault.err),
              fault.err);
        } else {
          obs::TraceSpan span("fsync");
          obs::ScopedTimer timer(FsyncSeconds());
          status = log_.SyncData();
        }
        ++physical_syncs_;
        JournalSyncsCounter()->Increment();
        if (status.ok()) {
          ++log_commits_;
          LogCommitsCounter()->Increment();
          for (const Pending& p : pending) {
            if (!p.logged) continue;
            auto it = states_.find(p.writer);
            if (it == states_.end() || it->second.generation != p.gen) {
              continue;
            }
            const int64_t durable =
                p.from + static_cast<int64_t>(p.patch.data.size());
            if (durable > it->second.durable_offset) {
              it->second.durable_offset = durable;
            }
          }
          need_checkpoint = log_.size() > options_.checkpoint_bytes;
        } else {
          log_failed = true;
        }
      }
      if (log_failed) {
        // The log can no longer be trusted as a durability point; fall
        // back to the per-fd rung permanently (and below for this
        // window). Already-acked patches stay applicable at recovery.
        log_active_ = false;
      }
    }
  }
  if (log_failed) {
    for (const Pending& p : pending) SyncOne(p.writer);
  }
  if (need_checkpoint) Checkpoint();
  return util::Status::OK();
}

void FsyncDomain::Checkpoint() {
  // Make every tracked journal durable in its own file, then truncate
  // the log: all logged patches now describe bytes the files hold.
  std::vector<std::pair<JournalWriter*, uint64_t>> writers;
  {
    util::MutexLock lock(&mu_);
    // Nothing logged (or the log rung is off): there is nothing to
    // retire, and syncing the fleet here would tax every clean
    // shutdown that never took the log rung.
    if (!log_active_ || log_.size() == 0) return;
    writers.reserve(states_.size());
    for (const auto& [writer, state] : states_) {
      writers.emplace_back(writer, state.generation);
    }
  }
  bool all_ok = true;
  std::vector<int64_t> durable(writers.size(), -1);
  for (size_t i = 0; i < writers.size(); ++i) {
    int64_t size = 0;
    util::Status status;
    {
      obs::TraceSpan span("fsync");
      obs::ScopedTimer timer(FsyncSeconds());
      status = writers[i].first->SyncData(&size);
    }
    JournalSyncsCounter()->Increment();
    if (status.ok()) {
      durable[i] = size;
    } else {
      all_ok = false;
    }
    util::MutexLock lock(&mu_);
    ++physical_syncs_;
  }
  util::MutexLock lock(&mu_);
  for (size_t i = 0; i < writers.size(); ++i) {
    if (durable[i] < 0) continue;
    auto it = states_.find(writers[i].first);
    if (it != states_.end() && it->second.generation == writers[i].second &&
        durable[i] > it->second.durable_offset) {
      it->second.durable_offset = durable[i];
    }
  }
  // A journal that failed to sync is still covered only by its logged
  // patches — keep the log.
  if (!all_ok || !log_active_) return;
  log_.Close();
  util::Status status = log_.Open(options_.commit_log_path,
                                  /*truncate_to=*/0);
  // The truncation must be durable before new patches assume the log
  // starts with them; fsync covers the size change.
  if (status.ok()) status = log_.Sync();
  if (!status.ok()) {
    log_.Close();
    log_active_ = false;  // degrade to the per-fd rung
  }
}

int64_t FsyncDomain::log_commits() const {
  util::MutexLock lock(&mu_);
  return log_commits_;
}

int64_t FsyncDomain::physical_syncs() const {
  util::MutexLock lock(&mu_);
  return physical_syncs_;
}

namespace {

// Applies one journal's patch (already generation-filtered) to its open
// fd. Returns false — without error — when the patch no longer matches
// the file (the expected stale-after-compaction case), which skips the
// journal's remaining patches.
// CRC-valid frame prefix of a journal image, under the shared tail
// rule: frames count until the first length or CRC break.
int64_t ValidFramePrefix(std::string_view bytes) {
  size_t pos = 0;
  while (bytes.size() - pos >= kFrameHeaderBytes) {
    Reader header(bytes.substr(pos, kFrameHeaderBytes));
    uint32_t length = 0;
    uint32_t crc = 0;
    header.GetU32(&length);
    header.GetU32(&crc);
    if (bytes.size() - pos - kFrameHeaderBytes < length) break;
    uint32_t want_crc = util::Crc32(bytes.substr(pos, 4));
    want_crc = util::Crc32(bytes.substr(pos + kFrameHeaderBytes, length),
                           want_crc);
    if (want_crc != crc) break;
    pos += kFrameHeaderBytes + length;
  }
  return static_cast<int64_t>(pos);
}

util::Result<bool> ApplyOnePatch(int fd, const PatchFrame& patch,
                                 const std::string& path) {
  if (patch.offset < patch.context_len) return false;
  if (patch.context_len > 0) {
    char context[255];
    const int64_t ctx_off =
        static_cast<int64_t>(patch.offset) - patch.context_len;
    size_t have = 0;
    while (have < patch.context_len) {
      const ssize_t n = ::pread(fd, context + have, patch.context_len - have,
                                static_cast<off_t>(ctx_off) +
                                    static_cast<off_t>(have));
      if (n < 0) {
        if (errno == EINTR) continue;
        return util::Status::IoError("pread " + path + ": " +
                                     std::strerror(errno));
      }
      if (n == 0) return false;  // file shorter than the patch expects
      have += static_cast<size_t>(n);
    }
    if (util::Crc32(std::string_view(context, patch.context_len)) !=
        patch.context_crc) {
      return false;
    }
  }
  size_t written = 0;
  while (written < patch.data.size()) {
    const ssize_t n = ::pwrite(fd, patch.data.data() + written,
                               patch.data.size() - written,
                               static_cast<off_t>(patch.offset) +
                                   static_cast<off_t>(written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::IoError("pwrite " + path + ": " +
                                   std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

util::Status ApplyCommitLog(const std::string& dir) {
  const std::string log_path = dir + "/" + kFleetCommitLogName;
  {
    std::error_code ec;
    if (!std::filesystem::exists(log_path, ec)) return util::Status::OK();
  }
  auto data = util::ReadFileToString(log_path);
  if (!data.ok()) return data.status();
  const std::string& bytes = data.value();

  // Parse the frames. A torn tail is the un-acked window in flight at
  // the crash — benign, like a journal's. Damage before the tail would
  // mean an acked (fdatasynced) patch rotted; fail loudly rather than
  // silently dropping durability.
  std::vector<PatchFrame> patches;
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) break;
    Reader header(std::string_view(bytes).substr(pos, kFrameHeaderBytes));
    uint32_t length = 0;
    uint32_t crc = 0;
    header.GetU32(&length);
    header.GetU32(&crc);
    if (bytes.size() - pos - kFrameHeaderBytes < length) break;
    const std::string_view body =
        std::string_view(bytes).substr(pos + kFrameHeaderBytes, length);
    uint32_t want_crc = util::Crc32(std::string_view(bytes).substr(pos, 4));
    want_crc = util::Crc32(body, want_crc);
    if (want_crc != crc) {
      if (pos + kFrameHeaderBytes + length == bytes.size()) break;
      return util::Status::Corruption(
          "crc mismatch mid-log at offset " + std::to_string(pos) + " of " +
          log_path);
    }
    PatchFrame patch;
    INCENTAG_RETURN_IF_ERROR(DecodePatchFrame(body, &patch));
    patches.push_back(std::move(patch));
    pos += kFrameHeaderBytes + length;
  }

  // Only the newest generation per journal is live: a generation bump
  // records that a compaction replaced the file (fully durable), so all
  // earlier patches describe a dead incarnation.
  std::unordered_map<std::string, uint64_t> max_gen;
  for (const PatchFrame& patch : patches) {
    uint64_t& gen = max_gen[patch.name];
    gen = std::max(gen, patch.gen);
  }

  struct FileState {
    int fd = -1;
    bool opened = false;
    bool skipping = false;
    bool touched = false;
    // On-disk image at open, and its CRC-valid frame prefix — the
    // incarnation check below compares patch bytes against these.
    std::string image;
    int64_t valid_prefix = 0;
  };
  std::unordered_map<std::string, FileState> files;
  util::Status status;
  for (const PatchFrame& patch : patches) {
    if (patch.gen != max_gen[patch.name]) continue;
    FileState& file = files[patch.name];
    if (file.skipping) continue;
    const std::string path = dir + "/" + patch.name;
    if (!file.opened) {
      file.opened = true;
      file.fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
      if (file.fd < 0) {
        if (errno == ENOENT) {
          // The journal is gone (e.g. the campaign's file was removed
          // after its patches were logged): nothing to patch.
          file.skipping = true;
          continue;
        }
        status = util::Status::IoError("open " + path + ": " +
                                       std::strerror(errno));
        break;
      }
      auto image = util::ReadFileToString(path);
      if (!image.ok()) {
        status = image.status();
        break;
      }
      file.image = std::move(image).value();
      file.valid_prefix = ValidFramePrefix(file.image);
    }
    // Incarnation check. Within one file incarnation the journal is
    // append-only — bytes at a given offset are written once and never
    // change — so any CRC-valid on-disk bytes overlapping the patch
    // range either equal the patch bytes (kernel writeback ran before
    // the crash; applying is idempotent) or prove the file is a *newer*
    // incarnation: a compaction fully synced and renamed it into place
    // after these patches were logged. The generation filter above only
    // sees rewrites that logged a later patch, and the context CRC in
    // ApplyOnePatch misses rewrites whose preceding bytes survive
    // unchanged (the submit frame is copied verbatim), so this byte
    // comparison is the guard that actually closes the case.
    if (file.valid_prefix > static_cast<int64_t>(patch.offset)) {
      const int64_t overlap =
          std::min(file.valid_prefix - static_cast<int64_t>(patch.offset),
                   static_cast<int64_t>(patch.data.size()));
      const std::string_view on_disk =
          std::string_view(file.image)
              .substr(patch.offset, static_cast<size_t>(overlap));
      const std::string_view expect =
          std::string_view(patch.data).substr(0,
                                              static_cast<size_t>(overlap));
      if (on_disk != expect) {
        file.skipping = true;
        continue;
      }
    }
    auto applied = ApplyOnePatch(file.fd, patch, path);
    if (!applied.ok()) {
      status = applied.status();
      break;
    }
    if (!applied.value()) {
      // Context mismatch: the file moved on past this patch sequence
      // (compaction renamed a new incarnation into place before its
      // generation bump reached the log). Later patches for the journal
      // chain off this one, so they are equally dead.
      file.skipping = true;
      continue;
    }
    file.touched = true;
  }
  for (auto& [name, file] : files) {
    if (file.fd < 0) continue;
    if (status.ok() && file.touched && ::fsync(file.fd) != 0) {
      status = util::Status::IoError("fsync " + dir + "/" + name + ": " +
                                     std::strerror(errno));
    }
    ::close(file.fd);
  }
  INCENTAG_RETURN_IF_ERROR(status);
  // Patches are in their files and durable; retire the log so the next
  // incarnation starts clean.
  INCENTAG_RETURN_IF_ERROR(util::RemoveFile(log_path));
  return util::SyncDir(dir);
}

}  // namespace persist
}  // namespace incentag
