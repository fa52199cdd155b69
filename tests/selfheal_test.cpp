// Self-healing pipeline tests (DESIGN.md §13): stage-level fault injection
// through the FaultyStage decorators, containment (a stage throw fails one
// document, never the process), the poison tracker, batch deadlines with the
// shard watchdog, bounded-queue backpressure, and shard
// restart-from-storage.
//
// The acceptance sweep faults every stage-call point of a fixed seeded
// workload — at 1 and at 4 shards — and requires: no crash, no barrier
// deadlock, no acked subscription lost, and bit-for-bit report equality for
// the non-faulted documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gate_env.h"
#include "time_scale.h"
#include "src/storage/env.h"
#include "src/system/monitor.h"
#include "src/system/stage_faults.h"
#include "src/webstub/crawler.h"

namespace xymon::system {
namespace {

// Immediate-report subscription only: every sent e-mail carries exactly one
// notification naming one URL, so filtering a faulted URL out of a mail
// stream is a substring test.
constexpr char kWatchAll[] = R"(
subscription WatchAll
monitoring
select default
where URL extends "http://w" and modified self
report when immediate
)";

/// Small seeded workload: `rounds` rounds over `urls` pages across 5 hosts
/// (so 4-shard runs spread the flow), bodies drifting version to version.
std::vector<std::vector<webstub::FetchedDoc>> MakeWorkload(int rounds,
                                                           int urls) {
  std::vector<std::vector<webstub::FetchedDoc>> batches;
  for (int r = 1; r <= rounds; ++r) {
    std::vector<webstub::FetchedDoc> batch;
    for (int u = 0; u < urls; ++u) {
      webstub::FetchedDoc doc;
      doc.url = "http://w" + std::to_string(u % 5) + ".example.org/doc" +
                std::to_string(u) + ".xml";
      doc.body = "<Catalog><Item>widget" +
                 std::to_string((u * 7 + r * 3) % 11) + "</Item><rev>" +
                 std::to_string(r) + "</rev></Catalog>";
      batch.push_back(std::move(doc));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct RunResult {
  XylemeMonitor::Stats stats;
  PipelineStats pipeline;
  std::vector<std::string> mail;  // bodies, in sent order
  size_t subscriptions = 0;
  bool probe_notified = false;
};

/// Drives the workload through a fresh monitor with `injector` installed
/// (nullptr = no decorators at all), then probes liveness: a modified page
/// after the workload must still notify — the "no acked subscription lost"
/// check.
RunResult RunWorkload(size_t num_shards, StageFaultInjector* injector,
                      const std::vector<std::vector<webstub::FetchedDoc>>&
                          batches) {
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = num_shards;
  options.stage_faults = injector;
  XylemeMonitor monitor(&clock, options);
  EXPECT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  for (const auto& batch : batches) {
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kHour);
    monitor.Tick();
  }

  RunResult out;
  out.stats = monitor.stats();
  out.pipeline = monitor.pipeline_stats();
  for (const reporter::Email& email : monitor.outbox().sent()) {
    out.mail.push_back(email.body);
  }
  out.subscriptions = monitor.manager().subscription_count();

  // Probe that detection still works end to end (the sweep never arms a
  // fault on the probe URL — see workload_calls in the sweep test).
  uint64_t before = monitor.stats().notifications;
  monitor.ProcessFetch("http://w0.example.org/probe.xml", "<p>v1</p>");
  monitor.ProcessFetch("http://w0.example.org/probe.xml", "<p>v2</p>");
  out.probe_notified = monitor.stats().notifications > before;
  return out;
}

/// Mail bodies not mentioning `url` — the reports of the non-faulted
/// documents.
std::vector<std::string> WithoutUrl(const std::vector<std::string>& mail,
                                    const std::string& url) {
  std::vector<std::string> out;
  for (const std::string& body : mail) {
    if (body.find(url) == std::string::npos) out.push_back(body);
  }
  return out;
}

// ------------------------------------------------------- acceptance sweep --

TEST(StageFaultSweepTest, EveryCallPointFaultedNeverLosesTheRest) {
  auto batches = MakeWorkload(/*rounds=*/3, /*urls=*/6);

  // Enumerate the clean run's stage-call points (record mode), and pin down
  // that the *set* of call points is shard-count invariant.
  // The record run fetches the probe too; drop its call points — the probe
  // is measurement, not workload (faulting it would fault the very document
  // the probe checks).
  auto workload_calls = [](StageFaultInjector& rec) {
    auto calls = rec.recorded_calls();
    calls.erase(std::remove_if(calls.begin(), calls.end(),
                               [](const StageFaultSpec& s) {
                                 return s.url.find("probe.xml") !=
                                        std::string::npos;
                               }),
                calls.end());
    std::sort(calls.begin(), calls.end(),
              [](const StageFaultSpec& a, const StageFaultSpec& b) {
                return std::tie(a.stage, a.url, a.nth) <
                       std::tie(b.stage, b.url, b.nth);
              });
    return calls;
  };
  StageFaultInjector recorder;
  recorder.set_recording(true);
  RunResult clean1 = RunWorkload(1, &recorder, batches);
  auto call_points = workload_calls(recorder);
  recorder.Reset();
  RunResult clean4 = RunWorkload(4, &recorder, batches);
  auto call_points4 = workload_calls(recorder);
  ASSERT_EQ(call_points, call_points4);
  ASSERT_GT(call_points.size(), 30u);  // ingest+detect+match actually ran
  ASSERT_FALSE(clean1.mail.empty());
  ASSERT_EQ(clean1.mail, clean4.mail);

  // Fault every call point in turn — kThrow everywhere, kCorrupt on every
  // third point for variety — at both shard counts. Each faulted run must
  // keep every non-faulted document's report bit-for-bit and keep the
  // subscription live.
  for (size_t ci = 0; ci < call_points.size(); ++ci) {
    StageFaultSpec spec = call_points[ci];
    spec.kind = ci % 3 == 2 ? StageFaultKind::kCorrupt : StageFaultKind::kThrow;
    SCOPED_TRACE(std::string(StageKindName(spec.stage)) + " #" +
                 std::to_string(spec.nth) + " of " + spec.url + " (" +
                 StageFaultKindName(spec.kind) + ")");
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::to_string(shards) + " shard(s)");
      StageFaultInjector injector(StageFaultPlan{{spec}});
      RunResult run = RunWorkload(shards, &injector, batches);

      EXPECT_EQ(injector.faults_fired(), 1u);
      if (spec.kind == StageFaultKind::kThrow) {
        EXPECT_EQ(run.stats.failed_documents, 1u);
        EXPECT_EQ(run.pipeline.stage_failures, 1u);
      } else {
        // Corruption is silent at the pipeline level: an ingest corruption
        // surfaces as a degraded document, detect/match corruptions as a
        // missing notification — never as a process death.
        EXPECT_EQ(run.stats.failed_documents, 0u);
      }
      EXPECT_EQ(run.subscriptions, 1u);
      EXPECT_TRUE(run.probe_notified);
      EXPECT_EQ(WithoutUrl(run.mail, spec.url),
                WithoutUrl(clean1.mail, spec.url));
    }
  }
}

// ------------------------------------------------------------ containment --

TEST(ContainmentTest, ThrownStageFailsOnlyItsDocument) {
  const std::string faulty = "http://w1.example.org/bad.xml";
  StageFaultInjector injector(
      StageFaultPlan{{{StageKind::kDetect, faulty, 2, StageFaultKind::kThrow}}});
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.stage_faults = &injector;
  options.health_recovery_batches = 2;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  // First versions are `new`, not `modified` — no notifications yet, and
  // detect call #1 for the faulty URL passes clean.
  monitor.ProcessFetch(faulty, "<p>v1</p>");
  monitor.ProcessFetch("http://w2.example.org/ok.xml", "<p>v1</p>");
  EXPECT_EQ(monitor.stats().notifications, 0u);

  // Detect call #2 throws: the faulted document fails contained; its
  // batch-mate still notifies.
  monitor.ProcessFetchBatch({{faulty, "<p>v2</p>"},
                             {"http://w2.example.org/ok.xml", "<p>v2</p>"}});
  EXPECT_EQ(monitor.stats().failed_documents, 1u);
  EXPECT_EQ(monitor.stats().notifications, 1u);
  PipelineStats ps = monitor.pipeline_stats();
  EXPECT_EQ(ps.stage_failures, 1u);
  ASSERT_EQ(ps.shard_status.size(), 1u);
  EXPECT_EQ(ps.shard_status[0].health, ShardHealth::kDegraded);

  // Clean batches recover the shard to healthy.
  monitor.ProcessFetch("http://w2.example.org/ok.xml", "<p>v3</p>");
  monitor.ProcessFetch("http://w2.example.org/ok.xml", "<p>v4</p>");
  EXPECT_EQ(monitor.pipeline_stats().shard_status[0].health,
            ShardHealth::kHealthy);

  // The faulted URL itself keeps working (nth=2 was the only armed call).
  monitor.ProcessFetch(faulty, "<p>v3</p>");
  EXPECT_EQ(monitor.stats().failed_documents, 1u);
  EXPECT_EQ(monitor.stats().notifications, 4u);
}

// --------------------------------------------------------- poison tracker --

TEST(PoisonTest, RepeatOffenderIsQuarantinedAndRestartClearsIt) {
  storage::MemEnv env;
  const std::string poison = "http://w3.example.org/poison.xml";
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, poison, 1, StageFaultKind::kThrow},
       {StageKind::kDetect, poison, 2, StageFaultKind::kThrow}}});
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 4;
  options.warehouse_path = "mon/wh";
  options.env = &env;
  options.stage_faults = &injector;
  options.max_stage_failures_per_url = 2;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.storage_status().ok())
      << monitor.storage_status().ToString();
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  monitor.ProcessFetch("http://w3.example.org/fine.xml", "<p>v1</p>");
  monitor.ProcessFetch(poison, "<p>v1</p>");  // contained failure 1
  monitor.ProcessFetch(poison, "<p>v2</p>");  // contained failure 2 -> poisoned
  PipelineStats ps = monitor.pipeline_stats();
  EXPECT_EQ(ps.stage_failures, 2u);
  EXPECT_EQ(ps.poisoned_urls, 1u);
  EXPECT_EQ(monitor.pipeline().poisoned_urls(),
            std::vector<std::string>{poison});

  // The third fetch is rejected at scatter — no stage ever sees it.
  monitor.ProcessFetch(poison, "<p>v3</p>");
  ps = monitor.pipeline_stats();
  EXPECT_EQ(ps.poison_rejections, 1u);
  EXPECT_EQ(ps.stage_failures, 2u);
  EXPECT_EQ(injector.faults_fired(), 2u);

  // The quarantine is operator-visible.
  std::string report = monitor.StatusReport();
  EXPECT_NE(report.find("<PoisonedUrl"), std::string::npos);
  EXPECT_NE(report.find(poison), std::string::npos);

  // Restarting the owning shard clears its poison verdicts and rebuilds the
  // warehouse from the partition: the document ingested before quarantine
  // survives, and the URL flows again.
  size_t owner = monitor.pipeline().ShardFor(poison);
  uint64_t docs_before = monitor.pipeline().total_document_count();
  ASSERT_TRUE(monitor.pipeline().RestartShard(owner).ok());
  EXPECT_EQ(monitor.pipeline().total_document_count(), docs_before);
  EXPECT_EQ(monitor.pipeline_stats().poisoned_urls, 0u);
  EXPECT_EQ(monitor.pipeline_stats().shard_restarts, 1u);

  uint64_t notifications = monitor.stats().notifications;
  monitor.ProcessFetch(poison, "<p>v4</p>");
  EXPECT_GT(monitor.stats().notifications, notifications);
}

TEST(PoisonTest, CleanPassResetsTheConsecutiveFailureCount) {
  const std::string flaky = "http://w1.example.org/flaky.xml";
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, flaky, 1, StageFaultKind::kThrow},
       {StageKind::kDetect, flaky, 3, StageFaultKind::kThrow}}});
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.stage_faults = &injector;
  options.max_stage_failures_per_url = 2;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());

  monitor.ProcessFetch(flaky, "<p>v1</p>");  // fail (count 1)
  monitor.ProcessFetch(flaky, "<p>v2</p>");  // clean -> count reset
  monitor.ProcessFetch(flaky, "<p>v3</p>");  // fail (count 1 again)
  PipelineStats ps = monitor.pipeline_stats();
  EXPECT_EQ(ps.stage_failures, 2u);
  EXPECT_EQ(ps.poisoned_urls, 0u);  // never reached the cap of 2
  EXPECT_EQ(ps.poison_rejections, 0u);
}

// ------------------------------------------- watchdog + restart-from-storage

TEST(WatchdogTest, StuckShardIsQuarantinedRestartedAndRebuiltFromStorage) {
  auto batches = MakeWorkload(/*rounds=*/3, /*urls=*/10);
  const std::string stuck = batches[0][0].url;

  auto run = [&](StageFaultInjector* injector, storage::MemEnv* env,
                 std::vector<std::string>* round3_mail) {
    SimClock clock(1000);
    XylemeMonitor::Options options;
    options.num_shards = 4;
    options.warehouse_path = "mon/wh";
    options.env = env;
    options.stage_faults = injector;
    options.batch_deadline_ms = ScaledMs(500);  // XYMON_TEST_TIME_SCALE
    auto monitor = XylemeMonitor::Open(&clock, options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
    ASSERT_TRUE((*monitor)->Subscribe(kWatchAll, "all@example.org").ok());

    // Round 1: establish every document. Round 2: only the stuck URL's
    // shard-mates stay home — the watchdog verdict must name exactly one
    // shard.
    (*monitor)->ProcessFetchBatch(batches[0]);
    ASSERT_TRUE((*monitor)->CheckpointStorage().ok());
    size_t stuck_shard = (*monitor)->pipeline().ShardFor(stuck);
    std::vector<webstub::FetchedDoc> round2;
    for (const webstub::FetchedDoc& doc : batches[1]) {
      if (doc.url == stuck ||
          (*monitor)->pipeline().ShardFor(doc.url) != stuck_shard) {
        round2.push_back(doc);
      }
    }
    ASSERT_GT(round2.size(), 1u);
    (*monitor)->ProcessFetchBatch(round2);

    size_t sent_before = (*monitor)->outbox().sent().size();
    (*monitor)->ProcessFetchBatch(batches[2]);
    for (size_t i = sent_before; i < (*monitor)->outbox().sent().size();
         ++i) {
      round3_mail->push_back((*monitor)->outbox().sent()[i].body);
    }

    PipelineStats ps = (*monitor)->pipeline_stats();
    if (injector != nullptr) {
      // The deadline fired, the wedged shard was quarantined, auto-restart
      // rebuilt it from its partition, and the flow is healthy again.
      EXPECT_GE(ps.deadline_exceeded, 1u);
      EXPECT_EQ(ps.shard_restarts, 1u);
      EXPECT_TRUE((*monitor)->restart_status().ok())
          << (*monitor)->restart_status().ToString();
      std::string report = (*monitor)->StatusReport();
      EXPECT_NE(report.find("restarts=\"1\""), std::string::npos);
    } else {
      EXPECT_EQ(ps.deadline_exceeded, 0u);
      EXPECT_EQ(ps.shard_restarts, 0u);
    }
    for (const ShardStatus& ss : ps.shard_status) {
      EXPECT_EQ(ss.health, ShardHealth::kHealthy);
    }
    EXPECT_EQ((*monitor)->pipeline().total_document_count(), 10u);
  };

  // The stall outlives the deadline by a wide margin: the stage is wedged,
  // not slow. It sits at detect, after the ingest wrote through to the
  // partition — so the restarted shard recovers the stalled document's
  // version too, and round 3 diffs identically to the never-faulted run.
  // Both bounds stretch together under XYMON_TEST_TIME_SCALE, so the margin
  // survives sanitizer slowdowns.
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kDetect, stuck, 2, StageFaultKind::kStall,
        ScaledMs(2500)}}});
  storage::MemEnv faulted_env;
  std::vector<std::string> faulted_round3;
  run(&injector, &faulted_env, &faulted_round3);
  if (::testing::Test::HasFatalFailure()) return;

  storage::MemEnv clean_env;
  std::vector<std::string> clean_round3;
  run(nullptr, &clean_env, &clean_round3);

  // Restart-from-storage acceptance: after the watchdog-triggered rebuild,
  // the next batch is bit-for-bit the never-faulted run's.
  ASSERT_FALSE(clean_round3.empty());
  EXPECT_EQ(faulted_round3, clean_round3);
}

// ----------------------------------------------------------- backpressure --

TEST(BackpressureTest, BoundedQueueDeliversUnboundedResultsBitForBit) {
  auto batches = MakeWorkload(/*rounds=*/2, /*urls=*/40);
  RunResult unbounded = RunWorkload(4, nullptr, batches);
  ASSERT_FALSE(unbounded.mail.empty());

  // A 40ms stall on the first document keeps its shard's worker busy while
  // the scatter keeps pushing that shard's remaining documents into a
  // 2-deep queue — the scatter must block (and be released), not grow the
  // queue or drop work. The stall delegates afterwards, so the results are
  // the unbounded run's exactly.
  StageFaultInjector injector(StageFaultPlan{
      {{StageKind::kIngest, batches[0][0].url, 1, StageFaultKind::kStall,
        40}}});
  SimClock clock(1000);
  XylemeMonitor::Options options;
  options.num_shards = 4;
  options.stage_faults = &injector;
  options.queue_high_water_limit = 2;
  XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor.Subscribe(kWatchAll, "all@example.org").ok());
  for (const auto& batch : batches) {
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kHour);
    monitor.Tick();
  }

  std::vector<std::string> mail;
  for (const reporter::Email& email : monitor.outbox().sent()) {
    mail.push_back(email.body);
  }
  EXPECT_EQ(mail, unbounded.mail);
  EXPECT_EQ(monitor.stats(), unbounded.stats);
  EXPECT_GE(monitor.pipeline_stats().backpressure_waits, 1u);
  EXPECT_EQ(monitor.stats().failed_documents, 0u);
}

}  // namespace
}  // namespace xymon::system
