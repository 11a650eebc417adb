// FsyncDomain group commit (ISSUE 9): rung selection, commit-log
// recovery byte-identity (including kill-at-every-byte across commit
// windows), the generation and context-CRC patch guards, checkpoint
// truncation, the sink's teardown-straggler metric, and a concurrent
// Schedule/Drain/Compact stress for TSan.
#include "src/persist/fsync_domain.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/persist/journal.h"
#include "src/persist/journal_sink.h"
#include "src/util/crc32.h"
#include "src/util/file_io.h"
#include "src/util/wire.h"

namespace incentag {
namespace persist {
namespace {

class FsyncDomainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fsync_domain_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Dir() { return dir_.string(); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string Contents(const std::string& path) {
    auto data = util::ReadFileToString(path);
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    return data.ok() ? data.value() : std::string();
  }

  static void WriteRaw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  // A writer with a durable SubmitRecord baseline, ready to Track.
  std::unique_ptr<JournalWriter> MakeWriter(const std::string& name) {
    auto writer = JournalWriter::Open(Path(name));
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    SubmitRecord submit;
    submit.name = name;
    submit.strategy_name = "round_robin";
    EXPECT_TRUE(writer.value()->AppendSubmit(submit).ok());
    EXPECT_TRUE(writer.value()->SyncData().ok());
    return std::move(writer).value();
  }

  static void AppendBatch(JournalWriter* writer, uint64_t first_seq,
                          size_t count) {
    std::vector<CompletionRecord> records(count);
    for (size_t i = 0; i < count; ++i) {
      records[i].seq = first_seq + i;
      records[i].resource = static_cast<core::ResourceId>(i % 7);
    }
    ASSERT_TRUE(
        writer->AppendCompletionBatch(records.data(), records.size()).ok());
  }

  // Hand-encodes one commit-log patch frame (golden wire format: the
  // domain must stay readable by this layout).
  static std::string Patch(const std::string& name, uint64_t gen,
                           uint64_t offset, uint8_t context_len,
                           uint32_t context_crc, const std::string& data) {
    std::string body;
    util::wire::PutU8(&body, 1);  // kPatchRecord
    util::wire::PutString(&body, name);
    util::wire::PutU64(&body, gen);
    util::wire::PutU64(&body, offset);
    util::wire::PutU8(&body, context_len);
    util::wire::PutU32(&body, context_crc);
    util::wire::PutString(&body, data);
    return FrameRecord(body);
  }

  std::filesystem::path dir_;
};

TEST_F(FsyncDomainTest, SmallBatchesTakePerFdRung) {
  FsyncDomain domain;
  FsyncDomainOptions options;
  options.commit_log_path = Path(kFleetCommitLogName);
  ASSERT_TRUE(domain.Init(options).ok());
  ASSERT_TRUE(domain.commit_log_active());

  std::vector<std::unique_ptr<JournalWriter>> writers;
  std::vector<JournalWriter*> batch;
  for (int i = 0; i < 3; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    domain.Track(writers.back().get());
    AppendBatch(writers.back().get(), 0, 4);
    batch.push_back(writers.back().get());
  }
  ASSERT_TRUE(domain.Commit(batch).ok());
  EXPECT_EQ(domain.log_commits(), 0);
  EXPECT_EQ(domain.physical_syncs(), 3);  // one fdatasync per journal
  // The log rung was never taken: the log is still empty.
  EXPECT_EQ(std::filesystem::file_size(Path(kFleetCommitLogName)), 0u);
  for (auto& writer : writers) {
    auto contents = ReadJournal(writer->path());
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents.value().tail_status.ok());
    EXPECT_EQ(contents.value().completions.size(), 4u);
    domain.Untrack(writer.get());
  }
}

TEST_F(FsyncDomainTest, LogRungIsOneSyncPerWindowAndRecoversLostWriteback) {
  constexpr int kWriters = 6;  // > per_fd_threshold (4)
  std::vector<std::string> names;
  std::vector<int64_t> baselines;
  std::vector<std::string> full_bytes;
  {
    FsyncDomain domain;
    FsyncDomainOptions options;
    options.commit_log_path = Path(kFleetCommitLogName);
    ASSERT_TRUE(domain.Init(options).ok());

    std::vector<std::unique_ptr<JournalWriter>> writers;
    std::vector<JournalWriter*> batch;
    for (int i = 0; i < kWriters; ++i) {
      names.push_back("j" + std::to_string(i) + ".journal");
      writers.push_back(MakeWriter(names.back()));
      baselines.push_back(writers.back()->size());
      domain.Track(writers.back().get());
      AppendBatch(writers.back().get(), 0, 3 + i);
      batch.push_back(writers.back().get());
    }
    ASSERT_TRUE(domain.Commit(batch).ok());
    // The whole window cost ONE physical fdatasync (of the log).
    EXPECT_EQ(domain.log_commits(), 1);
    EXPECT_EQ(domain.physical_syncs(), 1);
    for (int i = 0; i < kWriters; ++i) {
      full_bytes.push_back(Contents(Path(names[i])));
      ASSERT_GT(static_cast<int64_t>(full_bytes[i].size()), baselines[i]);
      domain.Untrack(writers[i].get());
    }
  }
  // Simulate the crash the log rung defends against: the journals' own
  // files lose everything past their durable baseline (the flushed-but-
  // unsynced window never reached the platter), while the fdatasynced
  // commit log survives.
  for (int i = 0; i < kWriters; ++i) {
    std::filesystem::resize_file(Path(names[i]),
                                 static_cast<uintmax_t>(baselines[i]));
  }
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  EXPECT_FALSE(std::filesystem::exists(Path(kFleetCommitLogName)));
  for (int i = 0; i < kWriters; ++i) {
    EXPECT_EQ(Contents(Path(names[i])), full_bytes[i]) << names[i];
    auto contents = ReadJournal(Path(names[i]));
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents.value().tail_status.ok());
    EXPECT_EQ(contents.value().completions.size(),
              static_cast<size_t>(3 + i));
  }
}

TEST_F(FsyncDomainTest, KillAtEveryLogByteAcrossTwoCommitWindows) {
  constexpr int kWriters = 5;  // > per_fd_threshold (4)
  std::vector<std::string> names;
  std::vector<int64_t> baselines;
  std::vector<std::string> full_bytes;
  std::string log_bytes;
  {
    FsyncDomain domain;
    FsyncDomainOptions options;
    options.commit_log_path = Path(kFleetCommitLogName);
    ASSERT_TRUE(domain.Init(options).ok());
    std::vector<std::unique_ptr<JournalWriter>> writers;
    std::vector<JournalWriter*> batch;
    for (int i = 0; i < kWriters; ++i) {
      names.push_back("j" + std::to_string(i) + ".journal");
      writers.push_back(MakeWriter(names.back()));
      baselines.push_back(writers.back()->size());
      domain.Track(writers.back().get());
      batch.push_back(writers.back().get());
    }
    // Two windows: the second window's patches chain off the first's
    // durable offsets, so a torn log can strand a journal between them.
    for (int i = 0; i < kWriters; ++i) AppendBatch(batch[i], 0, 2);
    ASSERT_TRUE(domain.Commit(batch).ok());
    for (int i = 0; i < kWriters; ++i) AppendBatch(batch[i], 2, 2);
    ASSERT_TRUE(domain.Commit(batch).ok());
    EXPECT_EQ(domain.log_commits(), 2);
    log_bytes = Contents(Path(kFleetCommitLogName));
    ASSERT_GT(log_bytes.size(), 0u);
    for (int i = 0; i < kWriters; ++i) {
      full_bytes.push_back(Contents(Path(names[i])));
      domain.Untrack(writers[i].get());
    }
  }

  // Kill at every byte of the log: for each prefix, recovery must (a)
  // succeed, (b) leave every journal a record-aligned byte-prefix of its
  // final contents, (c) leave every journal readable with a contiguous
  // completion trace. Journals start from their worst-case crash state
  // (truncated to the pre-window durable baseline).
  const std::filesystem::path crash_dir = dir_ / "crash";
  for (size_t cut = 0; cut <= log_bytes.size(); ++cut) {
    std::filesystem::remove_all(crash_dir);
    std::filesystem::create_directories(crash_dir);
    for (int i = 0; i < kWriters; ++i) {
      WriteRaw((crash_dir / names[i]).string(),
               full_bytes[i].substr(0, static_cast<size_t>(baselines[i])));
    }
    WriteRaw((crash_dir / kFleetCommitLogName).string(),
             log_bytes.substr(0, cut));
    ASSERT_TRUE(ApplyCommitLog(crash_dir.string()).ok()) << "cut=" << cut;
    for (int i = 0; i < kWriters; ++i) {
      const std::string got = Contents((crash_dir / names[i]).string());
      ASSERT_LE(got.size(), full_bytes[i].size()) << "cut=" << cut;
      EXPECT_EQ(got, full_bytes[i].substr(0, got.size()))
          << names[i] << " cut=" << cut;
      auto contents = ReadJournal((crash_dir / names[i]).string());
      ASSERT_TRUE(contents.ok()) << names[i] << " cut=" << cut;
      EXPECT_TRUE(contents.value().tail_status.ok())
          << names[i] << " cut=" << cut;
      // Contiguity from seq 0 is ReadJournal's own invariant; the count
      // can only be 0, 2 or 4 (patches apply whole windows).
      const size_t n = contents.value().completions.size();
      EXPECT_TRUE(n == 0 || n == 2 || n == 4)
          << names[i] << " cut=" << cut << " n=" << n;
    }
  }
}

TEST_F(FsyncDomainTest, OnlyNewestGenerationPatchApplies) {
  const std::string base = "0123456789ABCDEF";  // 16 bytes of "journal"
  WriteRaw(Path("a.journal"), base);
  const uint32_t crc = util::Crc32(base);
  // Gen 1 logged before a compaction bumped the journal to gen 2: the
  // gen-1 patch describes a dead incarnation and must not apply even
  // though its context happens to match.
  WriteRaw(Path(kFleetCommitLogName),
           Patch("a.journal", 1, 16, 16, crc, "OLDOLD") +
               Patch("a.journal", 2, 16, 16, crc, "NEWNEW"));
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  EXPECT_EQ(Contents(Path("a.journal")), base + "NEWNEW");
  EXPECT_FALSE(std::filesystem::exists(Path(kFleetCommitLogName)));
}

TEST_F(FsyncDomainTest, ContextMismatchSkipsTheJournalsRemainingPatches) {
  const std::string base = "0123456789ABCDEF";
  WriteRaw(Path("b.journal"), base);
  const uint32_t wrong = util::Crc32(base) + 1;
  const uint32_t right_later = util::Crc32(std::string("XXX"));
  // First patch's context no longer matches the file: benign skip, and
  // the journal's later patches (which chain off it) are dead too.
  WriteRaw(Path(kFleetCommitLogName),
           Patch("b.journal", 1, 16, 16, wrong, "XXX") +
               Patch("b.journal", 1, 19, 3, right_later, "YYY"));
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  EXPECT_EQ(Contents(Path("b.journal")), base);  // untouched
  EXPECT_FALSE(std::filesystem::exists(Path(kFleetCommitLogName)));
}

TEST_F(FsyncDomainTest, MissingJournalIsSkipped) {
  WriteRaw(Path(kFleetCommitLogName),
           Patch("ghost.journal", 1, 0, 0, 0, "data"));
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  EXPECT_FALSE(std::filesystem::exists(Path("ghost.journal")));
  EXPECT_FALSE(std::filesystem::exists(Path(kFleetCommitLogName)));
}

TEST_F(FsyncDomainTest, TornLogTailIsBenignButMidLogDamageIsNot) {
  const std::string base = "0123456789ABCDEF";
  WriteRaw(Path("c.journal"), base);
  const std::string first =
      Patch("c.journal", 1, 16, 16, util::Crc32(base), "TAIL");
  const std::string second =
      Patch("c.journal", 1, 20, 4, util::Crc32(std::string("TAIL")), "MORE");

  // Torn tail: the second frame lost its last 3 bytes (the un-acked
  // window in flight at the crash) — first applies, rest is dropped.
  WriteRaw(Path(kFleetCommitLogName),
           first + second.substr(0, second.size() - 3));
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  EXPECT_EQ(Contents(Path("c.journal")), base + "TAIL");

  // Mid-log damage: an acked patch rotted; recovery must fail loudly
  // and leave the log in place rather than silently dropping it.
  WriteRaw(Path("c.journal"), base);
  std::string damaged = first + second;
  damaged[8 + 2] ^= 0x40;  // flip a bit past frame 1's [len][crc] header
  WriteRaw(Path(kFleetCommitLogName), damaged);
  EXPECT_FALSE(ApplyCommitLog(Dir()).ok());
  EXPECT_TRUE(std::filesystem::exists(Path(kFleetCommitLogName)));
  EXPECT_EQ(Contents(Path("c.journal")), base);
  std::filesystem::remove(Path(kFleetCommitLogName));
}

TEST_F(FsyncDomainTest, CheckpointSyncsJournalsAndTruncatesTheLog) {
  FsyncDomain domain;
  FsyncDomainOptions options;
  options.commit_log_path = Path(kFleetCommitLogName);
  options.checkpoint_bytes = 1;  // every log commit triggers a checkpoint
  ASSERT_TRUE(domain.Init(options).ok());

  std::vector<std::unique_ptr<JournalWriter>> writers;
  std::vector<JournalWriter*> batch;
  for (int i = 0; i < 6; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    domain.Track(writers.back().get());
    AppendBatch(writers.back().get(), 0, 2);
    batch.push_back(writers.back().get());
  }
  ASSERT_TRUE(domain.Commit(batch).ok());
  EXPECT_EQ(domain.log_commits(), 1);
  // The checkpoint fdatasynced every journal and truncated the log; the
  // rung stays available for the next window.
  EXPECT_TRUE(domain.commit_log_active());
  EXPECT_EQ(std::filesystem::file_size(Path(kFleetCommitLogName)), 0u);
  EXPECT_GE(domain.physical_syncs(), 1 + 6);
  for (auto& writer : writers) domain.Untrack(writer.get());
  // Recovery on the truncated log is a no-op: the journals' own files
  // already hold everything.
  writers.clear();
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  for (int i = 0; i < 6; ++i) {
    auto contents = ReadJournal(Path("j" + std::to_string(i) + ".journal"));
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().completions.size(), 2u);
  }
}

TEST_F(FsyncDomainTest, UntrackedWriterFallsBackToPerFdInsideLogWindow) {
  FsyncDomain domain;
  FsyncDomainOptions options;
  options.commit_log_path = Path(kFleetCommitLogName);
  options.per_fd_threshold = 2;
  ASSERT_TRUE(domain.Init(options).ok());
  std::vector<std::unique_ptr<JournalWriter>> writers;
  std::vector<JournalWriter*> batch;
  for (int i = 0; i < 3; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    if (i < 2) domain.Track(writers.back().get());  // before dirtying
    AppendBatch(writers.back().get(), 0, 2);
    batch.push_back(writers.back().get());
  }
  // writers[2] is untracked: no durable baseline, so it must take the
  // per-fd rung even though the window is large enough for the log.
  ASSERT_TRUE(domain.Commit(batch).ok());
  EXPECT_EQ(domain.log_commits(), 1);
  EXPECT_EQ(domain.physical_syncs(), 2);  // log + untracked per-fd
  auto contents = ReadJournal(writers[2]->path());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().completions.size(), 2u);
  domain.Untrack(writers[0].get());
  domain.Untrack(writers[1].get());
}

// Satellite fix: Schedule after Stop syncs inline on the calling thread
// and must feed the same incentag_persist_journal_syncs_total metric as
// the sink's normal passes.
// The guard the generation filter and context CRC both miss: a journal
// is compacted *after* its last logged patch, the log is never
// checkpointed, and the process dies. The log's newest generation for
// that journal is the pre-compaction one, and the patch's 16 context
// bytes are the submit-frame tail — which compaction copies verbatim —
// so only the byte comparison against the file's CRC-valid prefix can
// tell recovery the file is a newer incarnation.
TEST_F(FsyncDomainTest, PatchOlderThanCompactionDoesNotCorruptTheRewrite) {
  constexpr int kWriters = 6;  // > per_fd_threshold (4): log rung
  std::vector<std::string> names;
  std::vector<int64_t> baselines;
  std::vector<std::string> full_bytes;
  std::string compacted_bytes;
  {
    FsyncDomain domain;
    FsyncDomainOptions options;
    options.commit_log_path = Path(kFleetCommitLogName);
    ASSERT_TRUE(domain.Init(options).ok());

    std::vector<std::unique_ptr<JournalWriter>> writers;
    std::vector<JournalWriter*> batch;
    for (int i = 0; i < kWriters; ++i) {
      names.push_back("j" + std::to_string(i) + ".journal");
      writers.push_back(MakeWriter(names.back()));
      baselines.push_back(writers.back()->size());
      domain.Track(writers.back().get());
      AppendBatch(writers.back().get(), 0, 4);
      batch.push_back(writers.back().get());
    }
    ASSERT_TRUE(domain.Commit(batch).ok());
    EXPECT_EQ(domain.log_commits(), 1);
    for (int i = 0; i < kWriters; ++i) {
      full_bytes.push_back(Contents(Path(names[i])));
    }

    // Compact j0 after the log window; no further patches are logged
    // for it, so the log's newest j0 generation stays pre-compaction.
    SubmitRecord submit;
    submit.name = names[0];
    submit.strategy_name = "round_robin";
    SnapshotRecord snapshot;
    snapshot.num_completions = 4;
    snapshot.next_assign_seq = 4;
    snapshot.runtime_state = "post-window-state";
    ASSERT_TRUE(
        writers[0]->Compact(submit, snapshot, writers[0]->size()).ok());
    compacted_bytes = Contents(Path(names[0]));
    ASSERT_NE(compacted_bytes, full_bytes[0]);

    for (auto& writer : writers) domain.Untrack(writer.get());
    // The domain dies without a checkpoint: the log keeps every patch.
  }

  // Crash: the un-compacted journals lose their unsynced window; the
  // compacted one was fully durable before its rename.
  for (int i = 1; i < kWriters; ++i) {
    std::filesystem::resize_file(Path(names[i]),
                                 static_cast<uintmax_t>(baselines[i]));
  }
  ASSERT_TRUE(ApplyCommitLog(Dir()).ok());
  // Live patches replayed, the dead one skipped — the rewrite is
  // byte-identical and still parses.
  EXPECT_EQ(Contents(Path(names[0])), compacted_bytes);
  auto compacted = ReadJournal(Path(names[0]));
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(compacted.value().tail_status.ok());
  EXPECT_TRUE(compacted.value().has_snapshot);
  for (int i = 1; i < kWriters; ++i) {
    EXPECT_EQ(Contents(Path(names[i])), full_bytes[i]) << names[i];
  }
}

// Clean shutdown retires the log: after Stop() every patch describes
// bytes the journals already hold, so the sink checkpoints and the next
// incarnation recovers without replaying anything.
TEST_F(FsyncDomainTest, CleanSinkStopRetiresTheCommitLog) {
  JournalSinkOptions options;
  options.batch_interval_us = 0;
  options.commit_log_path = Path(kFleetCommitLogName);
  options.commit_log_threshold = 0;  // every pass takes the log rung
  JournalSink sink(options);

  std::vector<std::unique_ptr<JournalWriter>> writers;
  for (int i = 0; i < 6; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    sink.Track(writers.back().get());
    AppendBatch(writers.back().get(), 0, 3);
    sink.Schedule(writers.back().get());
  }
  sink.Drain();
  sink.Stop();
  for (auto& writer : writers) sink.Untrack(writer.get());

  ASSERT_TRUE(std::filesystem::exists(Path(kFleetCommitLogName)));
  EXPECT_EQ(std::filesystem::file_size(Path(kFleetCommitLogName)), 0u);
  for (int i = 0; i < 6; ++i) {
    auto contents = ReadJournal(writers[i]->path());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().completions.size(), 3u);
  }
}

TEST_F(FsyncDomainTest, StragglerScheduleAfterStopCountsTowardSyncsMetric) {
  auto writer = MakeWriter("straggler.journal");
  JournalSink sink;
  sink.Stop();
  AppendBatch(writer.get(), 0, 1);
  const int64_t before = JournalSyncsCounter()->Value();
  sink.Schedule(writer.get());
  EXPECT_EQ(JournalSyncsCounter()->Value(), before + 1);
  auto contents = ReadJournal(writer->path());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().completions.size(), 1u);
}

// The log rung's use is visible from /metrics: one
// incentag_persist_log_commits_total increment per window it commits,
// none for a window the per-fd rung takes.
TEST_F(FsyncDomainTest, LogRungCommitsAreExported) {
  FsyncDomain domain;
  FsyncDomainOptions options;
  options.commit_log_path = Path(kFleetCommitLogName);
  ASSERT_TRUE(domain.Init(options).ok());
  const obs::Counter* exported = obs::Registry::Default().GetCounter(
      "incentag_persist_log_commits_total", "");
  const int64_t before = exported->Value();

  std::vector<std::unique_ptr<JournalWriter>> writers;
  std::vector<JournalWriter*> batch;
  for (int i = 0; i < 6; ++i) {  // > per_fd_threshold (4)
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    domain.Track(writers.back().get());
    AppendBatch(writers.back().get(), 0, 2);
    batch.push_back(writers.back().get());
  }
  ASSERT_TRUE(domain.Commit(batch).ok());
  EXPECT_EQ(domain.log_commits(), 1);
  EXPECT_EQ(exported->Value(), before + 1);

  AppendBatch(writers[0].get(), 2, 2);
  ASSERT_TRUE(domain.Commit({writers[0].get()}).ok());  // per-fd rung
  EXPECT_EQ(exported->Value(), before + 1);
  for (auto& writer : writers) domain.Untrack(writer.get());
}

// TSan stress: 16 campaigns appending/compacting on 4 stepper threads
// while the sink's thread group-commits through the fleet log and the
// main thread drains. Exercises Commit vs OnJournalRewritten vs
// CollectUnsynced interleavings.
TEST_F(FsyncDomainTest, ConcurrentScheduleDrainCompactStress) {
  constexpr int kCampaigns = 16;
  constexpr int kThreads = 4;
  constexpr int kBatchesPerWriter = 30;
  constexpr size_t kBatchSize = 4;

  JournalSinkOptions options;
  options.batch_interval_us = 0;  // commit as fast as the dirty set fills
  options.commit_log_path = Path(kFleetCommitLogName);
  options.commit_log_threshold = 4;
  JournalSink sink(options);

  std::vector<std::unique_ptr<JournalWriter>> writers;
  for (int i = 0; i < kCampaigns; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    sink.Track(writers.back().get());
  }

  std::vector<std::thread> steppers;
  for (int t = 0; t < kThreads; ++t) {
    steppers.emplace_back([&, t] {
      // Each thread owns campaigns t, t+kThreads, ... so per-journal
      // appends stay single-threaded (the manager's invariant) while
      // the sink commits concurrently.
      for (int batch = 0; batch < kBatchesPerWriter; ++batch) {
        for (int i = t; i < kCampaigns; i += kThreads) {
          JournalWriter* writer = writers[i].get();
          AppendBatch(writer,
                      static_cast<uint64_t>(batch) * kBatchSize, kBatchSize);
          sink.Schedule(writer);
          if (batch == kBatchesPerWriter / 2 && i % 3 == 0) {
            // Mid-stream compaction: rewrites the file and bumps the
            // commit generation under the domain's feet.
            SubmitRecord submit;
            submit.name = "j" + std::to_string(i) + ".journal";
            submit.strategy_name = "round_robin";
            SnapshotRecord snapshot;
            snapshot.num_completions =
                static_cast<uint64_t>(batch + 1) * kBatchSize;
            snapshot.next_assign_seq = snapshot.num_completions;
            snapshot.runtime_state = "stress-state";
            const int64_t tail = writer->size();
            ASSERT_TRUE(writer->Compact(submit, snapshot, tail).ok());
            sink.Schedule(writer);
          }
        }
      }
    });
  }
  for (int pass = 0; pass < 5; ++pass) sink.Drain();
  for (std::thread& thread : steppers) thread.join();
  sink.Stop();
  for (auto& writer : writers) sink.Untrack(writer.get());

  for (int i = 0; i < kCampaigns; ++i) {
    auto contents = ReadJournal(writers[i]->path());
    ASSERT_TRUE(contents.ok()) << writers[i]->path();
    EXPECT_TRUE(contents.value().tail_status.ok()) << writers[i]->path();
    const auto& journal = contents.value();
    const uint64_t expect_total =
        static_cast<uint64_t>(kBatchesPerWriter) * kBatchSize;
    const uint64_t base =
        journal.has_snapshot ? journal.snapshot.num_completions : 0;
    EXPECT_EQ(base + journal.completions.size(), expect_total)
        << writers[i]->path();
  }
  writers.clear();
  // The survived commit log (if any) must replay cleanly.
  EXPECT_TRUE(ApplyCommitLog(Dir()).ok());
}

}  // namespace
}  // namespace persist
}  // namespace incentag
