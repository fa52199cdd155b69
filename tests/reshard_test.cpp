#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crash_sweep.h"
#include "gate_env.h"
#include "src/common/hash.h"
#include "src/storage/env.h"
#include "src/storage/storage_hub.h"
#include "src/system/monitor.h"

// StorageHub topology tests (DESIGN.md §12): the manifest as the single
// source of truth for storage layout, reshard-on-reopen when the pipeline
// shard count changes, orphan-file sweeping, and the crash-atomicity of the
// whole reshard protocol (generation-named files + one manifest rename).

namespace xymon::testing {
namespace {

using storage::StorageHub;

constexpr char kDir[] = "mon";

/// From-scratch control build: a purely in-memory monitor subscribed with
/// exactly `monitor`'s recovered subscriptions, in recovery replay order.
std::optional<TreeShape> FreshShapeOf(const system::XylemeMonitor& monitor) {
  SimClock clock(1000);
  system::XylemeMonitor fresh(&clock);
  for (const std::string& name : monitor.manager().subscription_names()) {
    const std::string* text = monitor.manager().subscription_text(name);
    if (text == nullptr) return std::nullopt;
    if (!fresh.Subscribe(*text, "control@x").ok()) return std::nullopt;
  }
  return ShapeOf(fresh);
}

// ---------------------------------------------------------------------------
// Hub-level tests: a partitioned store with simple synthetic routing —
// plain keys hash to one partition, the "!all" key replicates to every
// partition and merges by max.

StorageHub::Options HubOptions(storage::Env* env, size_t partitions) {
  StorageHub::Options options;
  options.log.env = env;
  options.log.fsync_every_n = 1;
  options.partitioned_name = "wh";
  options.partitioned_path = "hub/wh";
  options.partitions = partitions;
  options.reshard.route = [](std::string_view key, size_t num_partitions) {
    std::vector<size_t> targets;
    if (key == "!all") {
      for (size_t i = 0; i < num_partitions; ++i) targets.push_back(i);
    } else {
      targets.push_back(static_cast<size_t>(Fnv1a(key) % num_partitions));
    }
    return targets;
  };
  options.reshard.merge = [](std::string_view,
                             const std::vector<std::string>& values) {
    return *std::max_element(values.begin(), values.end());
  };
  return options;
}

std::map<std::string, std::string> SeedData() {
  std::map<std::string, std::string> data;
  for (int i = 0; i < 40; ++i) {
    data["key" + std::to_string(i)] = "value" + std::to_string(i);
  }
  return data;
}

/// Writes the seed data into a fresh N-way hub (placing each key on the
/// partition the route hook owns, as the warehouse does).
void SeedHub(storage::Env* env, size_t partitions) {
  auto options = HubOptions(env, partitions);
  auto hub = StorageHub::Open(options);
  ASSERT_TRUE(hub.ok()) << hub.status().message();
  for (const auto& [key, value] : SeedData()) {
    size_t target = options.reshard.route(key, partitions)[0];
    ASSERT_TRUE((*hub)->partition(target)->Put(key, value).ok());
  }
  for (size_t i = 0; i < partitions; ++i) {
    ASSERT_TRUE((*hub)->partition(i)->Put("!all", "shared7").ok());
  }
  ASSERT_TRUE((*hub)->CheckpointAll().ok());
}

/// Every key present exactly on its routed partition, the replicated key on
/// every partition, nothing else.
void ExpectHubContents(StorageHub* hub) {
  auto options = HubOptions(nullptr, hub->partition_count());
  std::map<std::string, std::string> expected = SeedData();
  for (size_t i = 0; i < hub->partition_count(); ++i) {
    auto shared = hub->partition(i)->Get("!all");
    ASSERT_TRUE(shared.has_value()) << "partition " << i;
    EXPECT_EQ(*shared, "shared7");
  }
  std::map<std::string, std::string> found;
  for (size_t i = 0; i < hub->partition_count(); ++i) {
    for (const auto& [key, value] : hub->partition(i)->data()) {
      if (key == "!all") continue;
      EXPECT_EQ(options.reshard.route(key, hub->partition_count())[0], i)
          << "key " << key << " on the wrong partition";
      EXPECT_TRUE(found.emplace(key, value).second)
          << "key " << key << " duplicated across partitions";
    }
  }
  EXPECT_EQ(found, expected);
}

TEST(StorageHubTest, ManifestRoundTripsLayoutAndEpoch) {
  storage::MemEnv env;
  SeedHub(&env, 4);

  auto hub = StorageHub::Open(HubOptions(&env, 4));
  ASSERT_TRUE(hub.ok()) << hub.status().message();
  EXPECT_EQ((*hub)->partition_count(), 4u);
  EXPECT_EQ((*hub)->generation(), 0u);
  EXPECT_FALSE((*hub)->resharded_on_open());
  EXPECT_EQ((*hub)->last_committed_epoch(), 1u);  // SeedHub's CheckpointAll.

  // Coordinated checkpoint: epoch commits only when told to.
  uint64_t epoch = (*hub)->BeginEpoch();
  EXPECT_EQ(epoch, 2u);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*hub)->partition(i)->Checkpoint().ok());
  }
  ASSERT_TRUE((*hub)->CommitEpoch(epoch).ok());
  EXPECT_EQ((*hub)->last_committed_epoch(), 2u);

  hub->reset();
  auto reopened = StorageHub::Open(HubOptions(&env, 4));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->last_committed_epoch(), 2u);
  ExpectHubContents(reopened->get());
}

TEST(StorageHubTest, StaleEpochCommitIsIgnored) {
  storage::MemEnv env;
  auto hub = StorageHub::Open(HubOptions(&env, 2));
  ASSERT_TRUE(hub.ok());
  uint64_t first = (*hub)->BeginEpoch();
  uint64_t second = (*hub)->BeginEpoch();
  ASSERT_TRUE((*hub)->CommitEpoch(second).ok());
  ASSERT_TRUE((*hub)->CommitEpoch(first).ok());  // no-op, not a regression
  EXPECT_EQ((*hub)->last_committed_epoch(), second);
}

constexpr char kManifest[] = "hub/wh.manifest";

std::string ReadManifest(storage::Env* env) {
  auto file = env->NewSequentialFile(kManifest);
  EXPECT_TRUE(file.ok());
  std::string text;
  char buf[4096];
  for (;;) {
    auto n = (*file)->Read(sizeof(buf), buf);
    EXPECT_TRUE(n.ok());
    if (*n == 0) break;
    text.append(buf, *n);
  }
  return text;
}

void WriteManifest(storage::Env* env, const std::string& text) {
  auto file = env->NewWritableFile(kManifest, /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(text).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

TEST(StorageHubTest, CorruptManifestIsCorruptionNotALayout) {
  storage::MemEnv env;
  SeedHub(&env, 4);

  const std::string content = ReadManifest(&env);
  ASSERT_NE(content.find("partitions 4"), std::string::npos);

  // Flip the partition count without fixing the CRC: the hub must refuse
  // the manifest rather than trust a damaged layout.
  std::string bad = content;
  bad.replace(bad.find("partitions 4"), 12, "partitions 9");
  WriteManifest(&env, bad);

  auto hub = StorageHub::Open(HubOptions(&env, 4));
  ASSERT_FALSE(hub.ok());
  EXPECT_EQ(hub.status().code(), StatusCode::kCorruption);
}

TEST(StorageHubTest, EveryManifestBitFlipAndTruncationIsCaught) {
  // A manifest with a non-zero generation and epoch: seed 4 partitions,
  // reshard to 2, commit another epoch.
  storage::MemEnv env;
  SeedHub(&env, 4);
  uint64_t generation = 0;
  uint64_t epoch = 0;
  {
    auto hub = StorageHub::Open(HubOptions(&env, 2));
    ASSERT_TRUE(hub.ok()) << hub.status().message();
    ASSERT_TRUE((*hub)->CheckpointAll().ok());
    generation = (*hub)->generation();
    epoch = (*hub)->last_committed_epoch();
  }
  ASSERT_GT(generation, 0u);
  ASSERT_GT(epoch, 1u);
  const std::string manifest = ReadManifest(&env);
  ASSERT_FALSE(manifest.empty());

  // Each damaged manifest is refused as Corruption, or read as the same
  // layout: a hub never opens on a layout the manifest did not commit.
  size_t refused = 0;
  auto check = [&](const std::string& damaged, const std::string& what) {
    WriteManifest(&env, damaged);
    auto hub = StorageHub::Open(HubOptions(&env, 2));
    if (!hub.ok()) {
      EXPECT_EQ(hub.status().code(), StatusCode::kCorruption) << what;
      ++refused;
      return;
    }
    EXPECT_EQ((*hub)->generation(), generation) << what;
    EXPECT_EQ((*hub)->partition_count(), 2u) << what;
    EXPECT_EQ((*hub)->last_committed_epoch(), epoch) << what;
    EXPECT_FALSE((*hub)->resharded_on_open()) << what;
  };
  for (size_t i = 0; i < manifest.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = manifest;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      check(damaged, "flip byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
    }
  }
  for (size_t len = 0; len < manifest.size(); ++len) {
    check(manifest.substr(0, len), "truncate to " + std::to_string(len));
  }
  // CRC-32 catches every single-bit error, so at least every flip refuses.
  EXPECT_GE(refused, manifest.size() * 8);

  WriteManifest(&env, manifest);
  auto hub = StorageHub::Open(HubOptions(&env, 2));
  ASSERT_TRUE(hub.ok()) << hub.status().message();
  EXPECT_EQ((*hub)->generation(), generation);
  EXPECT_EQ((*hub)->last_committed_epoch(), epoch);
  ExpectHubContents(hub->get());
}

TEST(StorageHubTest, ReshardMovesEveryKeyAndMergesReplicas) {
  storage::MemEnv env;
  SeedHub(&env, 4);
  for (size_t new_count : {2u, 8u, 3u, 1u}) {
    SCOPED_TRACE("reshard to " + std::to_string(new_count));
    auto hub = StorageHub::Open(HubOptions(&env, new_count));
    ASSERT_TRUE(hub.ok()) << hub.status().message();
    EXPECT_EQ((*hub)->partition_count(), new_count);
    EXPECT_TRUE((*hub)->resharded_on_open());
    ExpectHubContents(hub->get());
  }
}

TEST(StorageHubTest, OrphanScanSweepsStaleLayoutsOnly) {
  storage::MemEnv env;
  SeedHub(&env, 4);

  auto plant = [&env](const std::string& path) {
    auto file = env.NewWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("stale").ok());
    ASSERT_TRUE((*file)->Close().ok());
  };
  // Leftovers of hypothetical interrupted reshards and dead layouts...
  plant("hub/wh.s9");
  plant("hub/wh.g3.s1");
  plant("hub/wh.g2.ckpt");
  plant("hub/wh.s5.ckpt.tmp");
  // ...and innocent bystanders the scan must not touch.
  plant("hub/whale");
  plant("hub/other.s1");

  auto hub = StorageHub::Open(HubOptions(&env, 4));
  ASSERT_TRUE(hub.ok()) << hub.status().message();
  std::set<std::string> files;
  for (const std::string& f : env.ListFiles()) files.insert(f);
  EXPECT_FALSE(files.count("hub/wh.s9"));
  EXPECT_FALSE(files.count("hub/wh.g3.s1"));
  EXPECT_FALSE(files.count("hub/wh.g2.ckpt"));
  EXPECT_FALSE(files.count("hub/wh.s5.ckpt.tmp"));
  EXPECT_TRUE(files.count("hub/whale"));
  EXPECT_TRUE(files.count("hub/other.s1"));
  ExpectHubContents(hub->get());
}

TEST(StorageHubTest, ReopeningWithFewerPartitionsFoldsOrphanedFiles) {
  storage::MemEnv env;
  SeedHub(&env, 4);
  {
    auto hub = StorageHub::Open(HubOptions(&env, 2));
    ASSERT_TRUE(hub.ok()) << hub.status().message();
    EXPECT_EQ((*hub)->generation(), 1u);
    ExpectHubContents(hub->get());
  }
  // Every generation-0 partition file (indices 0–3) is gone; only the two
  // generation-1 partitions and the manifest remain.
  for (const std::string& file : env.ListFiles()) {
    if (file.rfind("hub/wh", 0) != 0) continue;
    EXPECT_TRUE(file == "hub/wh.manifest" || file.rfind("hub/wh.g1", 0) == 0)
        << "stale layout file survived the fold: " << file;
  }
}

// The reshard protocol is crash-atomic: kill the filesystem at every single
// I/O operation of a 4 → 2 reshard, reopen, and the store must come back
// complete — either still 4-way (manifest rename never happened) and then
// resharded cleanly, or already 2-way. Never a mix, never a lost key.
TEST(StorageHubTest, CrashSweepThroughReshardNeverLosesAKey) {
  // Count the ops one reshard takes.
  uint64_t reshard_ops = 0;
  {
    storage::MemEnv disk;
    SeedHub(&disk, 4);
    storage::FaultyEnv faulty(&disk);  // Disarmed: pure op counting.
    auto hub = StorageHub::Open(HubOptions(&faulty, 2));
    ASSERT_TRUE(hub.ok()) << hub.status().message();
    reshard_ops = faulty.op_count();
  }
  ASSERT_GT(reshard_ops, 10u);

  for (uint64_t crash_at = 1; crash_at <= reshard_ops; ++crash_at) {
    SCOPED_TRACE("crash at reshard I/O op " + std::to_string(crash_at));
    storage::MemEnv disk;
    SeedHub(&disk, 4);
    if (::testing::Test::HasFatalFailure()) return;
    storage::FaultyEnv faulty(&disk);
    faulty.CrashAtOp(crash_at);
    auto crashed = StorageHub::Open(HubOptions(&faulty, 2));
    ASSERT_FALSE(crashed.ok());
    ASSERT_TRUE(faulty.crashed());

    disk.Reboot();
    auto recovered = StorageHub::Open(HubOptions(&disk, 2));
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ((*recovered)->partition_count(), 2u);
    ExpectHubContents(recovered->get());
  }
}

TEST(StorageHubTest, AutoCheckpointBoundAppliesToFlatStoresToo) {
  storage::MemEnv env;
  StorageHub::Options options;
  options.log.env = &env;
  options.auto_checkpoint_bytes = 4096;
  options.stores.push_back({"subs", "hub/subs"});
  auto hub = StorageHub::Open(options);
  ASSERT_TRUE(hub.ok()) << hub.status().message();

  // Churn one key far past the threshold: the flat store's log must stay
  // bounded — the hoisted bound, previously warehouse-only.
  storage::PersistentMap* store = (*hub)->store("subs");
  ASSERT_NE(store, nullptr);
  std::string value(128, 'v');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->Put("key", value + std::to_string(i)).ok());
  }
  auto size = env.GetFileSize("hub/subs");
  ASSERT_TRUE(size.ok());
  EXPECT_LT(*size, 8192u);
  EXPECT_EQ(store->Get("key"), value + "999");
}

// ---------------------------------------------------------------------------
// Monitor-level tests: the full system resharding its warehouse between
// runs of the seeded crash-sweep workload.

struct SplitRunResult {
  std::vector<std::pair<std::string, std::string>> mail;  // (to, body)
  uint64_t documents = 0;
  std::optional<TreeShape> rebuilt_shape;
  std::optional<TreeShape> fresh_shape;
};

/// Phase 1 on `shards_before` shards, restart, phase 2 on `shards_after`.
/// The workload is fixed and seeded; the returned mail spans both phases.
SplitRunResult RunSplitWorkload(size_t shards_before, size_t shards_after,
                                storage::MemEnv* env) {
  SplitRunResult out;
  SimClock clock(1000);
  auto options = SweepOptions(kDir, env);

  options.num_shards = shards_before;
  {
    auto monitor = system::XylemeMonitor::Open(&clock, options);
    EXPECT_TRUE(monitor.ok()) << monitor.status().message();
    if (!monitor.ok()) return out;
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(
          (*monitor)->Subscribe(SweepSubText(i), "u" + std::to_string(i) + "@x")
              .ok());
    }
    for (int round = 1; round <= 2; ++round) {
      for (int j = 0; j < 12; ++j) {
        (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, round));
      }
      clock.Advance(kDay);
      (*monitor)->Tick();
    }
    EXPECT_TRUE((*monitor)->CheckpointStorage().ok());
    for (const reporter::Email& email : (*monitor)->outbox().sent()) {
      out.mail.emplace_back(email.to, email.body);
    }
  }

  options.num_shards = shards_after;
  auto monitor = system::XylemeMonitor::Open(&clock, options);
  EXPECT_TRUE(monitor.ok()) << monitor.status().message();
  if (!monitor.ok()) return out;
  for (int round = 3; round <= 4; ++round) {
    for (int j = 0; j < 12; ++j) {
      (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, round));
    }
    clock.Advance(kDay);
    (*monitor)->Tick();
  }
  for (const reporter::Email& email : (*monitor)->outbox().sent()) {
    out.mail.emplace_back(email.to, email.body);
  }
  out.documents = (*monitor)->pipeline().total_document_count();
  out.rebuilt_shape = ShapeOf(**monitor);
  out.fresh_shape = FreshShapeOf(**monitor);
  return out;
}

// The acceptance sweep: reopen an N-shard store as M shards — growing,
// shrinking, prime counts — and the delivered reports must be bit-for-bit
// the 1 → 1 control's, with the MQP hash tree rebuilt identically to a
// from-scratch build.
TEST(MonitorReshardTest, SeededShardSweepDeliversIdenticalReports) {
  storage::MemEnv control_env;
  SplitRunResult control = RunSplitWorkload(1, 1, &control_env);
  ASSERT_FALSE(control.mail.empty());
  ASSERT_GT(control.documents, 0u);

  const std::pair<size_t, size_t> sweep[] = {
      {1, 2}, {2, 4}, {4, 1}, {4, 8}, {2, 3}, {8, 4}, {4, 3}};
  for (const auto& [before, after] : sweep) {
    SCOPED_TRACE("reshard " + std::to_string(before) + " -> " +
                 std::to_string(after));
    storage::MemEnv env;
    SplitRunResult run = RunSplitWorkload(before, after, &env);
    EXPECT_EQ(run.mail, control.mail);
    EXPECT_EQ(run.documents, control.documents);
    ASSERT_TRUE(run.rebuilt_shape.has_value());
    ASSERT_TRUE(run.fresh_shape.has_value());
    EXPECT_TRUE(*run.rebuilt_shape == *run.fresh_shape)
        << "rebuilt MQP tree diverged from a from-scratch build";
  }
}

TEST(MonitorReshardTest, ShrinkingShardCountFoldsPartitionFiles) {
  storage::MemEnv env;
  SimClock clock(1000);
  auto options = SweepOptions(kDir, &env);
  options.num_shards = 4;
  {
    auto monitor = system::XylemeMonitor::Open(&clock, options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().message();
    for (int j = 0; j < 12; ++j) {
      (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, 1));
    }
    ASSERT_TRUE((*monitor)->CheckpointStorage().ok());
  }

  options.num_shards = 2;
  auto monitor = system::XylemeMonitor::Open(&clock, options);
  ASSERT_TRUE(monitor.ok()) << monitor.status().message();
  ASSERT_NE((*monitor)->storage_hub(), nullptr);
  EXPECT_TRUE((*monitor)->storage_hub()->resharded_on_open());
  EXPECT_EQ((*monitor)->pipeline().total_document_count(), 12u);

  // The four generation-0 partition files are folded into two
  // generation-1 ones; no `wh.s<i>` legacy partition survives.
  const std::string base = std::string(kDir) + "/wh";
  for (const std::string& file : env.ListFiles()) {
    if (file.rfind(base, 0) != 0) continue;
    EXPECT_TRUE(file == base + ".manifest" ||
                file.rfind(base + ".g1", 0) == 0)
        << "stale partition file survived the fold: " << file;
  }
}

// Crash-during-reshard at the full-monitor level: seed a 4-shard store,
// crash the 2-shard reopen at a spread of I/O ops, and recovery must come
// back complete with every ingested document.
TEST(MonitorReshardTest, CrashDuringMonitorReshardRecovers) {
  auto seed = [](storage::MemEnv* env) {
    SimClock clock(1000);
    auto options = SweepOptions(kDir, env);
    options.num_shards = 4;
    auto monitor = system::XylemeMonitor::Open(&clock, options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().message();
    ASSERT_TRUE((*monitor)->Subscribe(SweepSubText(0), "u0@x").ok());
    for (int j = 0; j < 8; ++j) {
      (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, 1));
    }
    ASSERT_TRUE((*monitor)->CheckpointStorage().ok());
  };

  uint64_t reshard_ops = 0;
  {
    storage::MemEnv disk;
    seed(&disk);
    storage::FaultyEnv faulty(&disk);
    SimClock clock(5000);
    auto options = SweepOptions(kDir, &faulty);
    options.num_shards = 2;
    auto monitor = system::XylemeMonitor::Open(&clock, options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().message();
    reshard_ops = faulty.op_count();
  }
  ASSERT_GT(reshard_ops, 10u);

  for (uint64_t crash_at = 1; crash_at <= reshard_ops; crash_at += 3) {
    SCOPED_TRACE("crash at reopen I/O op " + std::to_string(crash_at));
    storage::MemEnv disk;
    seed(&disk);
    if (::testing::Test::HasFatalFailure()) return;
    storage::FaultyEnv faulty(&disk);
    faulty.CrashAtOp(crash_at);
    SimClock clock(5000);
    auto options = SweepOptions(kDir, &faulty);
    options.num_shards = 2;
    auto crashed = system::XylemeMonitor::Open(&clock, options);
    EXPECT_FALSE(crashed.ok());

    disk.Reboot();
    SimClock clock2(5000);
    options = SweepOptions(kDir, &disk);
    options.num_shards = 2;
    auto recovered = system::XylemeMonitor::Open(&clock2, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ((*recovered)->pipeline().total_document_count(), 8u);
    std::set<std::string> subs;
    for (const std::string& name :
         (*recovered)->manager().subscription_names()) {
      subs.insert(name);
    }
    EXPECT_TRUE(subs.count("Sub0"));
  }
}

// A checkpoint stuck mid-I/O on one shard must not wedge a caller that asked
// for a bounded wait: WaitFor reports DeadlineExceeded while the marker stays
// queued, and a later Wait still collects the checkpoint once it completes.
TEST(MonitorReshardTest, CheckpointTicketWaitForBoundsTheWait) {
  GateEnv env;
  SimClock clock(1000);
  auto options = SweepOptions(kDir, &env);
  options.num_shards = 4;
  auto monitor = system::XylemeMonitor::Open(&clock, options);
  ASSERT_TRUE(monitor.ok()) << monitor.status().message();
  for (int j = 0; j < 12; ++j) {
    (*monitor)->ProcessFetch(SweepUrl(j), SweepBody(j, 1));
  }

  // Park shard 0's partition checkpoint inside its first temp-file write.
  env.ArmGate(std::string(kDir) + "/wh.ckpt.tmp");
  auto ticket = (*monitor)->pipeline().CheckpointWarehousesAsync();
  env.WaitUntilEntered();

  Status bounded = ticket->WaitFor(/*timeout_ms=*/50);
  EXPECT_TRUE(bounded.IsDeadlineExceeded()) << bounded.ToString();

  env.ReleaseGate();
  EXPECT_TRUE(ticket->Wait().ok());
  // The bounded wait gave up without consuming the completion: a second
  // bounded wait on the now-finished ticket succeeds immediately.
  EXPECT_TRUE(ticket->WaitFor(/*timeout_ms=*/1).ok());
}

}  // namespace
}  // namespace xymon::testing
