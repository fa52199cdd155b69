#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "crash_sweep.h"
#include "src/storage/env.h"
#include "src/storage/persistent_map.h"
#include "src/system/monitor.h"

// The crash-point sweep (DESIGN.md §10): run the seeded workload of
// tests/crash_sweep.h, kill the filesystem at every single I/O operation,
// reopen the monitor from the surviving bytes, and check the recovery
// invariants I1–I5. Nothing here is randomized — a failing crash point
// reproduces by number.

namespace xymon::testing {
namespace {

constexpr char kDir[] = "mon";

/// Pending outbox seqs read straight off the (rebooted) disk image, before
/// any recovery code touches it.
std::set<uint64_t> PendingSeqsOnDisk(storage::MemEnv* env,
                                     const std::string& dir) {
  std::set<uint64_t> seqs;
  storage::LogStore::Options options;
  options.env = env;
  auto store = storage::PersistentMap::Open(dir + "/outbox", options);
  if (!store.ok()) return seqs;
  for (const auto& [key, value] : store->data()) {
    if (key.size() == 9 && key[0] == 'p') {
      uint64_t seq = 0;
      for (size_t i = 1; i < key.size(); ++i) {
        seq = (seq << 8) | static_cast<unsigned char>(key[i]);
      }
      seqs.insert(seq);
    }
  }
  return seqs;
}

std::set<std::string> RecoveredSubs(const system::XylemeMonitor& monitor) {
  auto names = monitor.manager().subscription_names();
  return {names.begin(), names.end()};
}

/// From-scratch control build: a purely in-memory monitor subscribed with
/// exactly `monitor`'s recovered subscriptions, in the same (sorted-name)
/// order recovery replays them.
std::optional<TreeShape> FreshShapeOf(const system::XylemeMonitor& monitor) {
  SimClock clock(1000);
  system::XylemeMonitor fresh(&clock);
  for (const std::string& name : monitor.manager().subscription_names()) {
    const std::string* text = monitor.manager().subscription_text(name);
    if (text == nullptr) return std::nullopt;
    auto sub = fresh.Subscribe(*text, "control@x");
    if (!sub.ok()) return std::nullopt;
  }
  return ShapeOf(fresh);
}

/// One crash point: run the workload crashing at `crash_at`, then recover
/// and check every invariant. Returns false (with ADD_FAILURE context) on
/// any violation.
void CheckCrashPoint(uint64_t crash_at) {
  SCOPED_TRACE("crash at I/O op " + std::to_string(crash_at));
  storage::MemEnv disk;
  storage::FaultyEnv faulty(&disk);
  faulty.CrashAtOp(crash_at);
  CrashTrace trace = RunCrashWorkload(&faulty, kDir);
  ASSERT_TRUE(trace.crashed);

  // Power back on. Recovery runs against the raw MemEnv: the fault window
  // is over, the damage is whatever survived on "disk".
  disk.Reboot();
  std::set<uint64_t> pending = PendingSeqsOnDisk(&disk, kDir);

  SimClock clock(trace.end_time);
  auto options = SweepOptions(kDir, &disk);
  auto monitor = system::XylemeMonitor::Open(&clock, options);
  // I1: power loss never leaves the store unrecoverable.
  ASSERT_TRUE(monitor.ok()) << monitor.status().message();

  // I2: acked ⊆ recovered ⊆ acked ∪ {in-flight}. An acknowledged
  // subscribe/unsubscribe is durable; only the op the crash interrupted
  // may land either way.
  std::set<std::string> recovered = RecoveredSubs(**monitor);
  for (const std::string& name : trace.acked_subs) {
    EXPECT_TRUE(recovered.count(name))
        << "acknowledged subscription lost: " << name;
  }
  for (const std::string& name : recovered) {
    EXPECT_TRUE(trace.acked_subs.count(name) ||
                trace.in_flight_sub == name)
        << "unexpected subscription resurrected: " << name;
  }

  // I3: the rebuilt atomic-event-set hash tree is structurally identical
  // to a from-scratch build over the recovered subscriptions.
  auto rebuilt = ShapeOf(**monitor);
  auto fresh = FreshShapeOf(**monitor);
  ASSERT_TRUE(rebuilt.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(*rebuilt == *fresh) << "hash tree shape diverged from a "
                                     "from-scratch build";

  // I4: the warehouse never invents documents.
  for (const auto& [meta, doc] : (*monitor)->warehouse().DocumentsInDomain("")) {
    EXPECT_TRUE(trace.ingested_urls.count(meta->url))
        << "recovered document never ingested: " << meta->url;
  }

  // I5: at-least-once reporting. Everything still pending on disk is
  // re-queued and delivered once the daemon is reachable again.
  std::set<uint64_t> delivered_after;
  (*monitor)->outbox().set_send_hook([&](const reporter::Email& email) {
    delivered_after.insert(email.seq);
    return true;
  });
  clock.Advance(kDay);
  (*monitor)->Tick();
  for (uint64_t seq : pending) {
    EXPECT_TRUE(delivered_after.count(seq))
        << "pending report seq " << seq << " not redelivered";
  }
}

uint64_t BaselineOpCount() {
  storage::MemEnv disk;
  storage::FaultyEnv faulty(&disk);  // Disarmed: pure op counting.
  CrashTrace trace = RunCrashWorkload(&faulty, kDir);
  EXPECT_FALSE(trace.crashed);
  return faulty.op_count();
}

TEST(CrashSweep, BaselineWorkloadTouchesStorageHard) {
  storage::MemEnv disk;
  storage::FaultyEnv faulty(&disk);
  CrashTrace trace = RunCrashWorkload(&faulty, kDir);
  ASSERT_FALSE(trace.crashed);
  // The workload must genuinely exercise the storage layer, or the sweep
  // below sweeps nothing.
  EXPECT_GE(faulty.op_count(), 100u);
  EXPECT_GE(trace.acked_subs.size(), 6u);
  EXPECT_FALSE(trace.delivered_seqs.empty());
  // A clean (no-crash) reopen recovers the exact subscription set.
  disk.Reboot();
  SimClock clock(trace.end_time);
  auto monitor = system::XylemeMonitor::Open(&clock, SweepOptions(kDir, &disk));
  ASSERT_TRUE(monitor.ok()) << monitor.status().message();
  EXPECT_EQ(RecoveredSubs(**monitor), trace.acked_subs);
  auto rebuilt = ShapeOf(**monitor);
  auto fresh = FreshShapeOf(**monitor);
  ASSERT_TRUE(rebuilt.has_value() && fresh.has_value());
  EXPECT_TRUE(*rebuilt == *fresh);
}

// The full sweep: crash at op 1, 2, 3, ... up to the end of the workload.
// XYMON_CRASH_SWEEP_STRIDE > 1 thins the sweep for slow machines; the
// default ctest run covers every single crash point.
TEST(CrashSweep, EveryCrashPointRecovers) {
  const uint64_t total = BaselineOpCount();
  ASSERT_GT(total, 0u);
  uint64_t stride = 1;
  if (const char* s = std::getenv("XYMON_CRASH_SWEEP_STRIDE")) {
    stride = std::max<uint64_t>(1, std::strtoull(s, nullptr, 10));
  }
  for (uint64_t crash_at = 1; crash_at <= total; crash_at += stride) {
    CheckCrashPoint(crash_at);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Checkpoint atomicity in isolation: a checkpoint never changes logical
// contents, so crashing at ANY I/O op inside Checkpoint() must recover the
// exact pre-checkpoint map — temp files and half-renames included.
TEST(CrashSweep, CheckpointIsAtomicAtEveryOp) {
  // Count the ops one checkpoint needs.
  uint64_t checkpoint_ops = 0;
  {
    storage::MemEnv disk;
    storage::FaultyEnv faulty(&disk);
    storage::LogStore::Options options;
    options.env = &faulty;
    options.fsync_every_n = 1;
    auto map = storage::PersistentMap::Open("m", options);
    ASSERT_TRUE(map.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          map->Put("key" + std::to_string(i), "value" + std::to_string(i))
              .ok());
    }
    const uint64_t before = faulty.op_count();
    ASSERT_TRUE(map->Checkpoint().ok());
    checkpoint_ops = faulty.op_count() - before;
  }
  ASSERT_GT(checkpoint_ops, 3u);  // write + sync + rename + dir sync + ...

  for (uint64_t k = 1; k <= checkpoint_ops; ++k) {
    SCOPED_TRACE("checkpoint crash at relative op " + std::to_string(k));
    storage::MemEnv disk;
    storage::FaultyEnv faulty(&disk);
    storage::LogStore::Options options;
    options.env = &faulty;
    options.fsync_every_n = 1;
    {
      auto map = storage::PersistentMap::Open("m", options);
      ASSERT_TRUE(map.ok());
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(
            map->Put("key" + std::to_string(i), "value" + std::to_string(i))
                .ok());
      }
      faulty.CrashAtOp(faulty.op_count() + k);
      EXPECT_FALSE(map->Checkpoint().ok());
      ASSERT_TRUE(faulty.crashed());
    }
    disk.Reboot();
    storage::LogStore::Options recover_options;
    recover_options.env = &disk;
    auto recovered = storage::PersistentMap::Open("m", recover_options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    ASSERT_EQ(recovered->size(), 20u);
    for (int i = 0; i < 20; ++i) {
      auto value = recovered->Get("key" + std::to_string(i));
      ASSERT_TRUE(value.has_value());
      EXPECT_EQ(*value, "value" + std::to_string(i));
    }
    // The orphaned temp file (if the crash left one) is gone after Open.
    for (const std::string& file : disk.ListFiles()) {
      EXPECT_EQ(file.find(".ckpt.tmp"), std::string::npos)
          << "orphan temp survived recovery: " << file;
    }
  }
}

// A recovered monitor is not read-only: it keeps accepting subscriptions,
// ingesting documents and delivering reports, and the next restart sees
// the post-recovery writes too.
TEST(CrashSweep, RecoveredMonitorKeepsWorking) {
  storage::MemEnv disk;
  const uint64_t total = BaselineOpCount();
  ASSERT_GT(total, 0u);
  // Crash mid-workload, around the first checkpoint.
  storage::FaultyEnv faulty(&disk);
  faulty.CrashAtOp(total / 2);
  CrashTrace trace = RunCrashWorkload(&faulty, kDir);
  ASSERT_TRUE(trace.crashed);
  disk.Reboot();

  SimClock clock(trace.end_time);
  auto monitor = system::XylemeMonitor::Open(&clock, SweepOptions(kDir, &disk));
  ASSERT_TRUE(monitor.ok()) << monitor.status().message();

  auto sub = (*monitor)->Subscribe(SweepSubText(90), "late@x");
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  (*monitor)->ProcessFetch(SweepUrl(0), SweepBody(0, 9));
  clock.Advance(kDay);
  (*monitor)->Tick();
  std::set<std::string> live = RecoveredSubs(**monitor);
  EXPECT_TRUE(live.count("Sub90"));

  // Second restart: the post-recovery subscription is durable.
  monitor->reset();
  SimClock clock2(clock.Now());
  auto again = system::XylemeMonitor::Open(&clock2, SweepOptions(kDir, &disk));
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(RecoveredSubs(**again), live);
}

// The sharded variant of the sweep: the same workload on a 4-shard monitor,
// where warehouse writes happen on shard worker threads and CheckpointStorage
// runs one parallel checkpoint per partition — so crash points land inside
// the parallel checkpoint and inside concurrent per-shard persists. Thread
// interleaving makes the op *numbering* nondeterministic; each crash point
// is still a legitimate power loss, so the recovery invariants must hold at
// every one of them. Points where the workload happened to finish before
// the fatal op are skipped (not failures).
TEST(CrashSweep, ShardedSweepSurvivesCrashMidParallelCheckpoint) {
  uint64_t total = 0;
  {
    storage::MemEnv disk;
    storage::FaultyEnv faulty(&disk);
    auto options = SweepOptions(kDir, &faulty);
    options.num_shards = 4;
    SimClock clock(1000);
    auto monitor = system::XylemeMonitor::Open(&clock, options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().message();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          (*monitor)->Subscribe(SweepSubText(i), "u@x").ok());
    }
    for (int j = 0; j < 6; ++j) {
      (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, 1));
    }
    ASSERT_TRUE((*monitor)->CheckpointStorage().ok());
    total = faulty.op_count();
  }
  ASSERT_GT(total, 50u);

  uint64_t stride = 5;
  if (const char* s = std::getenv("XYMON_CRASH_SWEEP_STRIDE")) {
    stride = std::max<uint64_t>(1, std::strtoull(s, nullptr, 10));
  }
  for (uint64_t crash_at = 1; crash_at <= total; crash_at += stride) {
    SCOPED_TRACE("sharded crash at I/O op " + std::to_string(crash_at));
    storage::MemEnv disk;
    storage::FaultyEnv faulty(&disk);
    faulty.CrashAtOp(crash_at);
    std::set<std::string> acked;
    Timestamp end_time;
    {
      auto options = SweepOptions(kDir, &faulty);
      options.num_shards = 4;
      SimClock clock(1000);
      auto monitor = system::XylemeMonitor::Open(&clock, options);
      if (monitor.ok()) {
        for (int i = 0; i < 4 && !faulty.crashed(); ++i) {
          if ((*monitor)->Subscribe(SweepSubText(i), "u@x").ok()) {
            acked.insert("Sub" + std::to_string(i));
          }
        }
        for (int j = 0; j < 6 && !faulty.crashed(); ++j) {
          (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, 1));
        }
        if (!faulty.crashed()) (void)(*monitor)->CheckpointStorage();
      }
      end_time = clock.Now();
    }
    // Shard-thread interleaving moved the ops around; this run finished
    // before the fatal op. Nothing to recover from.
    if (!faulty.crashed()) continue;

    disk.Reboot();
    SimClock clock(end_time);
    auto options = SweepOptions(kDir, &disk);
    options.num_shards = 4;
    auto monitor = system::XylemeMonitor::Open(&clock, options);
    // I1: recovery always succeeds.
    ASSERT_TRUE(monitor.ok()) << monitor.status().message();
    // I2 (one side): an acknowledged subscription is never lost — every
    // ack rides an fsynced append, serialized under the api mutex even
    // with 4 shards.
    std::set<std::string> recovered = RecoveredSubs(**monitor);
    for (const std::string& name : acked) {
      EXPECT_TRUE(recovered.count(name))
          << "acknowledged subscription lost: " << name;
    }
    // I3: the rebuilt MQP tree matches a from-scratch build.
    auto rebuilt = ShapeOf(**monitor);
    auto fresh = FreshShapeOf(**monitor);
    ASSERT_TRUE(rebuilt.has_value() && fresh.has_value());
    EXPECT_TRUE(*rebuilt == *fresh);
    // I4: no invented documents, across every partition.
    for (const auto& [meta, doc] :
         (*monitor)->pipeline().document_source()->DocumentsInDomain("")) {
      EXPECT_TRUE(meta->url.rfind("http://w", 0) == 0)
          << "recovered document never ingested: " << meta->url;
    }
  }
}

// The durable outbox alone: reports queued behind a dead sendmail daemon
// survive a restart and are delivered afterwards, with their original
// sequence numbers (the receiver's dedup key).
TEST(CrashSweep, OutboxBacklogSurvivesRestart) {
  storage::MemEnv disk;
  storage::LogStore::Options log_options;
  log_options.env = &disk;
  log_options.fsync_every_n = 1;

  std::set<uint64_t> assigned;
  {
    auto store = storage::PersistentMap::Open("outbox", log_options);
    ASSERT_TRUE(store.ok());
    reporter::Outbox outbox;
    ASSERT_TRUE(outbox.AttachStore(&*store).ok());
    outbox.set_send_hook([](const reporter::Email&) { return false; });
    for (int i = 0; i < 5; ++i) {
      outbox.Send({"u@x", "s" + std::to_string(i), "b", 100, 0, 0});
    }
    EXPECT_EQ(outbox.sent_count(), 0u);
    EXPECT_EQ(outbox.queued_count(), 5u);
  }  // Process dies with the daemon still down.

  auto store = storage::PersistentMap::Open("outbox", log_options);
  ASSERT_TRUE(store.ok());
  reporter::Outbox outbox;
  ASSERT_TRUE(outbox.AttachStore(&*store).ok());
  EXPECT_EQ(outbox.queued_count(), 5u);
  std::set<uint64_t> delivered;
  outbox.set_send_hook([&](const reporter::Email& email) {
    delivered.insert(email.seq);
    return true;
  });
  outbox.Drain(200);
  EXPECT_EQ(delivered.size(), 5u);
  EXPECT_EQ(delivered, (std::set<uint64_t>{1, 2, 3, 4, 5}));

  // Seq numbers keep climbing — never reused, even across the restart.
  outbox.Send({"u@x", "s5", "b", 300, 0, 0});
  EXPECT_TRUE(delivered.count(6));
}

}  // namespace
}  // namespace xymon::testing
