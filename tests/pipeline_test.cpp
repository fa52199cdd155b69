// IngestPipeline tests: shard-count determinism (the tentpole acceptance
// criterion — a 4-shard monitor delivers exactly the reports a 1-shard one
// does, in the same order), batch/sequential equivalence, per-stage
// counters, sharded-warehouse recovery, and a Subscribe/Unsubscribe-vs-batch
// hammer meant to run under ThreadSanitizer (-DXYMON_SANITIZE=THREAD).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <random>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gate_env.h"
#include "src/storage/env.h"
#include "src/system/monitor.h"
#include "src/system/stage_faults.h"
#include "src/webstub/crawler.h"

namespace xymon::system {
namespace {

// Fires a notification (and an immediate report e-mail) for every modified
// page anywhere under the synthetic hosts.
constexpr char kWatchAll[] = R"(
subscription WatchAll
monitoring
select default
where URL extends "http://w" and modified self
report when immediate
)";

// Element-level monitoring with payload selection on one host, batched into
// count-triggered reports.
constexpr char kNewItems[] = R"(
subscription NewItems
monitoring
select X
from self//Item X
where URL extends "http://w0." and new X
report
when count >= 2
)";

/// Deterministic multi-round workload, generated independently of any
/// monitor: ~`urls` pages across 5 hosts (so hash(url) spreads over
/// shards), each page re-fetched on a seeded schedule with bodies whose
/// item sets drift version to version (new/deleted/updated elements).
std::vector<std::vector<webstub::FetchedDoc>> GenerateBatches(int rounds,
                                                              int urls) {
  std::mt19937 rng(0xC0FFEE);
  std::vector<int> version(urls, 0);
  std::vector<std::vector<webstub::FetchedDoc>> batches;
  for (int r = 0; r < rounds; ++r) {
    std::vector<webstub::FetchedDoc> batch;
    for (int u = 0; u < urls; ++u) {
      if (r > 0 && rng() % 3 == 0) continue;  // not every page every round
      int v = ++version[u];
      webstub::FetchedDoc doc;
      doc.url = "http://w" + std::to_string(u % 5) + ".example.org/doc" +
                std::to_string(u) + ".xml";
      doc.body = "<Catalog>";
      int items = 1 + (u % 3) + (v % 2);
      for (int k = 0; k < items; ++k) {
        doc.body +=
            "<Item>widget" + std::to_string((u * 7 + v * 3 + k) % 11) +
            "</Item>";
      }
      doc.body += "<rev>" + std::to_string(v) + "</rev></Catalog>";
      batch.push_back(std::move(doc));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct RunResult {
  XylemeMonitor::Stats stats;
  std::vector<std::pair<std::string, std::string>> mail;  // (to, body)

  bool operator==(const RunResult&) const = default;
};

RunResult RunWorkload(size_t num_shards,
                      const std::vector<std::vector<webstub::FetchedDoc>>&
                          batches) {
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = num_shards;
  XylemeMonitor monitor(&clock, options);
  EXPECT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());
  EXPECT_TRUE(monitor.Subscribe(kNewItems, "items@example.org").ok());

  for (const auto& batch : batches) {
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kHour);
    monitor.Tick();
  }
  clock.Advance(kWeek);
  monitor.Tick();

  RunResult out;
  out.stats = monitor.stats();
  for (const reporter::Email& email : monitor.outbox().sent()) {
    out.mail.emplace_back(email.to, email.body);
  }
  return out;
}

TEST(PipelineDeterminismTest, FourShardsDeliverExactlyTheOneShardReports) {
  auto batches = GenerateBatches(/*rounds=*/8, /*urls=*/40);
  RunResult one = RunWorkload(1, batches);
  RunResult four = RunWorkload(4, batches);

  // The workload actually exercised the flow.
  ASSERT_GT(one.stats.documents_processed, 100u);
  ASSERT_GT(one.stats.notifications, 10u);
  ASSERT_FALSE(one.mail.empty());

  // Same stats, same e-mails, same order — bit for bit.
  EXPECT_EQ(one.stats, four.stats);
  ASSERT_EQ(one.mail.size(), four.mail.size());
  for (size_t i = 0; i < one.mail.size(); ++i) {
    EXPECT_EQ(one.mail[i], four.mail[i]) << "mail " << i;
  }
}

TEST(PipelineDeterminismTest, MultiShardActuallyPartitionsTheFlow) {
  auto batches = GenerateBatches(/*rounds=*/4, /*urls=*/40);
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 4;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());
  for (const auto& batch : batches) monitor.ProcessFetchBatch(batch);

  size_t shards_with_documents = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < monitor.pipeline().shard_count(); ++i) {
    uint64_t count = monitor.pipeline().shard(i).warehouse.document_count();
    total += count;
    if (count > 0) ++shards_with_documents;
  }
  EXPECT_EQ(total, 40u);
  EXPECT_GE(shards_with_documents, 2u);
  // Every document's partition is its URL hash.
  for (const auto& batch : batches) {
    for (const webstub::FetchedDoc& doc : batch) {
      size_t owner = monitor.pipeline().ShardFor(doc.url);
      EXPECT_NE(
          monitor.pipeline().shard(owner).warehouse.GetMeta(doc.url),
          nullptr);
    }
  }
}

TEST(PipelineBatchTest, SingleShardBatchMatchesSequentialBitForBit) {
  auto batches = GenerateBatches(/*rounds=*/6, /*urls=*/25);

  SimClock clock_a(1000);
  XylemeMonitor sequential(&clock_a);
  ASSERT_TRUE(sequential.Subscribe(kWatchAll, "all@example.org").ok());
  ASSERT_TRUE(sequential.Subscribe(kNewItems, "items@example.org").ok());

  SimClock clock_b(1000);
  XylemeMonitor batched(&clock_b);
  ASSERT_TRUE(batched.Subscribe(kWatchAll, "all@example.org").ok());
  ASSERT_TRUE(batched.Subscribe(kNewItems, "items@example.org").ok());

  for (const auto& batch : batches) {
    for (const webstub::FetchedDoc& doc : batch) sequential.ProcessFetch(doc);
    batched.ProcessFetchBatch(batch);
    clock_a.Advance(kHour);
    clock_b.Advance(kHour);
    sequential.Tick();
    batched.Tick();
  }

  EXPECT_EQ(sequential.stats(), batched.stats());
  ASSERT_EQ(sequential.outbox().sent().size(), batched.outbox().sent().size());
  for (size_t i = 0; i < sequential.outbox().sent().size(); ++i) {
    EXPECT_EQ(sequential.outbox().sent()[i].body,
              batched.outbox().sent()[i].body)
        << "mail " << i;
  }
}

TEST(PipelineStatsTest, StageCountersTrackTheFlow) {
  SimClock clock(1000);
  XylemeMonitor monitor(&clock);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  auto batches = GenerateBatches(/*rounds=*/3, /*urls=*/10);
  for (const auto& batch : batches) monitor.ProcessFetchBatch(batch);
  // One degraded document: a warehoused-XML page returning garbage.
  monitor.ProcessFetch("http://w0.example.org/doc0.xml", "<broken");

  PipelineStats ps = monitor.pipeline_stats();
  EXPECT_EQ(ps.shards, 1u);
  EXPECT_EQ(ps.batches, static_cast<uint64_t>(batches.size()) + 1);
  EXPECT_EQ(ps.ingest.documents, monitor.stats().documents_processed);
  EXPECT_EQ(ps.detect.documents, monitor.stats().documents_processed -
                                     monitor.stats().degraded_documents);
  EXPECT_EQ(ps.match.documents, monitor.stats().alerts_raised);
  EXPECT_LE(ps.notify.documents, ps.match.documents);
  EXPECT_GT(ps.notify.documents, 0u);
  EXPECT_EQ(monitor.stats().degraded_documents, 1u);

  // The operator report carries the per-stage view.
  std::string status = monitor.StatusReport();
  EXPECT_NE(status.find("<Pipeline"), std::string::npos);
  EXPECT_NE(status.find("\"ingest\""), std::string::npos);
  EXPECT_NE(status.find("\"notify\""), std::string::npos);
}

// The operator report, pinned byte for byte: two thread shards, one
// subscription, four batches and one contained detect-stage throw, so the
// <Shard> rows, the <Stage> rows and both failed_documents attributes carry
// non-trivial values. `micros` and `queue_high_water` depend on thread
// timing and are masked.
TEST(PipelineStatsTest, StatusReportIsPinned) {
  const std::string faulty = "http://w1.example.org/doc1.xml";
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, faulty, 2, StageFaultKind::kThrow}}});
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 2;
  options.stage_faults = &injector;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());
  for (const auto& batch : GenerateBatches(/*rounds=*/4, /*urls=*/10)) {
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kHour);
    monitor.Tick();
  }
  ASSERT_EQ(monitor.stats().failed_documents, 1u);

  const std::string report = std::regex_replace(
      monitor.StatusReport(),
      std::regex(R"re((micros|queue_high_water)="[0-9]+")re"), "$1=\"*\"");
  EXPECT_EQ(report, R"(<XylemeStatus date="1970-01-01 04:16:40">
  <DocumentFlow processed="33" alerts="33" notifications="23"/>
  <Warehouse documents="10" shards="2"/>
  <Subscriptions count="1" atomic_events="2"/>
  <MQP algorithm="aes" complex_events="1" memory_bytes="65604" documents_matched="33"/>
  <TriggerEngine triggers="0" firings="0"/>
  <Reporter received="23" reports="23" dropped="0"/>
  <Outbox sent="23" queued="0"/>
  <WebPortal published="0"/>
  <Pipeline shards="2" batches="4" documents="34" queue_high_water="*" failed_documents="1" stage_failures="1" deadline_exceeded="0" shard_restarts="0" backpressure_waits="0">
    <Shard index="0" health="degraded" restarts="0" stage_failures="1" deadline_failures="0"/>
    <Shard index="1" health="healthy" restarts="0" stage_failures="0" deadline_failures="0"/>
    <Stage name="ingest" documents="34" micros="*"/>
    <Stage name="detect" documents="34" micros="*"/>
    <Stage name="match" documents="33" micros="*"/>
    <Stage name="notify" documents="23" micros="*"/>
  </Pipeline>
  <Health fetch_errors="0" retries="0" quarantined_urls="0" degraded_documents="0" disappeared="0" reappeared="0" failed_documents="1" poison_rejections="0" shard_restarts="0"/>
</XylemeStatus>
)");
}

TEST(PipelineRecoveryTest, ShardedWarehousePartitionsRecoverAcrossReopen) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "xymon_pipeline_recovery";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string wh_path = (dir / "wh.log").string();

  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 4;
  options.warehouse_path = wh_path;

  auto batches = GenerateBatches(/*rounds=*/2, /*urls=*/20);
  const std::string probe_url = batches[0][0].url;
  uint64_t probe_docid = 0;
  {
    XylemeMonitor monitor(&clock, options);
    ASSERT_TRUE(monitor.storage_status().ok())
        << monitor.storage_status().ToString();
    ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());
    for (const auto& batch : batches) monitor.ProcessFetchBatch(batch);
    EXPECT_EQ(monitor.pipeline().total_document_count(), 20u);
    const warehouse::DocMeta* meta =
        monitor.pipeline().WarehouseFor(probe_url).GetMeta(probe_url);
    ASSERT_NE(meta, nullptr);
    probe_docid = meta->docid;
    ASSERT_TRUE(monitor.CheckpointStorage().ok());
  }

  auto reopened = XylemeMonitor::Open(&clock, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  XylemeMonitor& monitor = **reopened;
  EXPECT_EQ(monitor.pipeline().total_document_count(), 20u);

  // The probe URL kept its DOCID (the central map was rebuilt from the
  // partitions) and its recovered version still diffs: a changed body is
  // detected as `modified self` on the owning shard.
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());
  clock.Advance(kDay);
  monitor.ProcessFetch(probe_url, "<Catalog><Item>changed</Item></Catalog>");
  const warehouse::DocMeta* meta =
      monitor.pipeline().WarehouseFor(probe_url).GetMeta(probe_url);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->docid, probe_docid);
  EXPECT_EQ(monitor.stats().notifications, 1u);

  fs::remove_all(dir);
}

// Run under TSan (-DXYMON_SANITIZE=THREAD) this is the registration-quiesce
// race hunt: one thread mutates subscriptions while another pushes batches
// through 4 shard worker threads. The api mutex must serialize them — a
// Subscribe landing mid-batch would race the shard threads' reads of the
// alerter/MQP structures.
TEST(PipelineConcurrencyTest, SubscribeUnsubscribeDuringBatchesIsQuiesced) {
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 4;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  auto batches = GenerateBatches(/*rounds=*/12, /*urls=*/30);

  std::atomic<bool> done{false};
  std::atomic<int> churned{0};
  std::thread churn([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto sub = monitor.Subscribe(kNewItems, "churn@example.org");
      if (sub.ok()) {
        EXPECT_TRUE(monitor.Unsubscribe(sub.value()).ok());
        churned.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (const auto& batch : batches) {
    monitor.ProcessFetchBatch(batch);
  }
  done.store(true);
  churn.join();

  EXPECT_GT(monitor.stats().documents_processed, 100u);
  // The churned subscription is gone: every shard's matcher holds only
  // WatchAll's complex event.
  for (size_t i = 0; i < monitor.pipeline().shard_count(); ++i) {
    EXPECT_EQ(monitor.pipeline().shard(i).mqp.matcher().size(), 1u);
  }
}

using xymon::testing::GateEnv;

// The no-quiesce acceptance criterion: with 4 shards, one partition's
// checkpoint is held open mid-I/O while a batch touching only the other
// three shards runs to completion — the flow never stops for a checkpoint.
TEST(PipelineCheckpointTest, CheckpointOnOneShardDoesNotQuiesceTheFlow) {
  GateEnv env;
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 4;
  options.warehouse_path = "mon/wh";
  options.env = &env;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.storage_status().ok())
      << monitor.storage_status().ToString();
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  auto batches = GenerateBatches(/*rounds=*/1, /*urls=*/40);
  monitor.ProcessFetchBatch(batches[0]);

  // Hold shard 0's partition checkpoint open at its first temp-file write.
  env.ArmGate("mon/wh.ckpt.tmp");
  std::atomic<bool> checkpoint_done{false};
  Status checkpoint_status;
  std::thread checkpoint([&] {
    checkpoint_status = monitor.CheckpointStorage();
    checkpoint_done.store(true);
  });
  env.WaitUntilEntered();

  // A batch owned entirely by shards 1–3 completes while shard 0 is still
  // inside its checkpoint (a full quiesce would deadlock right here).
  std::vector<webstub::FetchedDoc> other_shards;
  for (int u = 0; other_shards.size() < 12; ++u) {
    webstub::FetchedDoc doc;
    doc.url = "http://w" + std::to_string(u % 5) + ".example.org/late" +
              std::to_string(u) + ".xml";
    if (monitor.pipeline().ShardFor(doc.url) == 0) continue;
    doc.body = "<Catalog><Item>late</Item></Catalog>";
    other_shards.push_back(std::move(doc));
  }
  uint64_t before = monitor.stats().documents_processed;
  monitor.ProcessFetchBatch(other_shards);
  EXPECT_EQ(monitor.stats().documents_processed, before + 12);
  EXPECT_FALSE(checkpoint_done.load());

  env.ReleaseGate();
  checkpoint.join();
  ASSERT_TRUE(checkpoint_status.ok()) << checkpoint_status.ToString();
  ASSERT_NE(monitor.storage_hub(), nullptr);
  EXPECT_EQ(monitor.storage_hub()->last_committed_epoch(), 1u);
}

// Epoch-consistent triggers: a notification-raised continuous query
// evaluates at the post-batch barrier, after every document of the batch is
// ingested — for every shard count. The batch updates the products page
// (raising the trigger) *before* the market page it queries; both shard
// counts must still report the market page's post-batch contents.
TEST(PipelineTriggerTest, NotificationTriggersSeeTheWholeBatchOnEveryShardCount) {
  auto run = [](size_t num_shards) {
    SimClock clock(1000);
    XylemeMonitor::Options options;
    options.num_shards = num_shards;
    XylemeMonitor monitor(&clock, options);
    EXPECT_TRUE(monitor
                    .Subscribe(R"(
subscription XylemeCompetitors
monitoring ChangeInMyProducts
select default
where URL = "http://www.xyleme.com/products.xml" and modified self
continuous MyCompetitors
select c from market//competitor c
when XylemeCompetitors.ChangeInMyProducts
report when immediate
)",
                               "ceo@xyleme.com")
                    .ok());
    monitor.AddDomainRule({"market", "", "competitors", ""});
    monitor.ProcessFetchBatch(
        {{"http://scan/market.xml",
          "<competitors><competitor>conquer1</competitor></competitors>"},
         {"http://www.xyleme.com/products.xml", "<p>v1</p>"}});
    // The deciding batch: the modified products page precedes the market
    // update in submission order.
    monitor.ProcessFetchBatch(
        {{"http://www.xyleme.com/products.xml", "<p>v2</p>"},
         {"http://scan/market.xml",
          "<competitors><competitor>conquer2</competitor></competitors>"}});
    std::vector<std::pair<std::string, std::string>> mail;
    for (const reporter::Email& email : monitor.outbox().sent()) {
      mail.emplace_back(email.to, email.body);
    }
    return std::make_pair(monitor.trigger_engine().firings(), mail);
  };

  auto [one_firings, one_mail] = run(1);
  auto [four_firings, four_mail] = run(4);
  EXPECT_EQ(one_firings, 1u);
  EXPECT_EQ(one_firings, four_firings);
  ASSERT_FALSE(one_mail.empty());
  EXPECT_EQ(one_mail, four_mail);
  // The continuous query saw the market page as of the END of the batch.
  bool saw_post_batch = false;
  for (const auto& [to, body] : one_mail) {
    if (body.find("conquer2") != std::string::npos) saw_post_batch = true;
  }
  EXPECT_TRUE(saw_post_batch);
}

}  // namespace
}  // namespace xymon::system
