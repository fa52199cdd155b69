// Failure injection across the stack: hostile XML from the "web", storage
// corruption, malformed subscriptions, resource-limit behaviour. The
// monitoring system cannot choose its inputs — the crawler feeds it
// whatever a server returns — so every layer must degrade, not die.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/reporter/outbox.h"
#include "src/storage/persistent_map.h"
#include "src/system/monitor.h"
#include "src/system/stage_faults.h"
#include "src/webstub/crawler.h"
#include "src/webstub/synthetic_web.h"
#include "src/xml/parser.h"

namespace xymon {
namespace {

// ------------------------------------------------------------ hostile XML --

TEST(HostileXmlTest, DepthLimitStopsPathologicalNesting) {
  std::string bomb;
  for (int i = 0; i < 100'000; ++i) bomb += "<d>";
  auto st = xml::Parse(bomb).status();
  // Either a parse error (truncated) or the depth guard — never a crash.
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();

  xml::ParseOptions options;
  options.max_depth = 16;
  std::string shallow = "<a><b><c/></b></a>";
  EXPECT_TRUE(xml::Parse(shallow, options).ok());
  std::string deep;
  for (int i = 0; i < 20; ++i) deep += "<d>";
  for (int i = 0; i < 20; ++i) deep += "</d>";
  EXPECT_TRUE(xml::Parse(deep, options).status().IsResourceExhausted());
}

TEST(HostileXmlTest, InputSizeLimit) {
  xml::ParseOptions options;
  options.max_input_bytes = 64;
  std::string big = "<a>" + std::string(100, 'x') + "</a>";
  EXPECT_TRUE(xml::Parse(big, options).status().IsResourceExhausted());
  EXPECT_TRUE(xml::Parse("<a>ok</a>", options).ok());
}

TEST(HostileXmlTest, TruncationsAtEveryPrefixNeverCrash) {
  constexpr char kDoc[] =
      "<!DOCTYPE c SYSTEM \"http://e/c.dtd\">"
      "<c a=\"v&amp;\"><p>text &#65; <![CDATA[raw]]><!-- c --></p></c>";
  std::string doc(kDoc);
  for (size_t len = 0; len < doc.size(); ++len) {
    auto result = xml::Parse(doc.substr(0, len));
    // Prefixes must parse or fail cleanly — either way, no crash, and an
    // error Status carries a message.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  EXPECT_TRUE(xml::Parse(doc).ok());
}

TEST(HostileXmlTest, RandomByteMutationsNeverCrash) {
  constexpr char kDoc[] =
      "<catalog><Product id=\"1\"><name>cam &amp; co</name>"
      "<price>99</price></Product></catalog>";
  Rng rng(13);
  for (int round = 0; round < 500; ++round) {
    std::string mutated(kDoc);
    size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto result = xml::Parse(mutated);  // Must not crash or hang.
    (void)result;
  }
}

TEST(HostileXmlTest, SystemSurvivesGarbagePages) {
  SimClock clock(0);
  system::XylemeMonitor monitor(&clock);
  ASSERT_TRUE(monitor
                  .Subscribe(R"(
subscription S
monitoring
select default
where URL extends "http://evil.example.org/" and new Product
report when immediate
)",
                             "u@x")
                  .ok());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string body;
    size_t len = rng.Uniform(300);
    for (size_t b = 0; b < len; ++b) {
      body += static_cast<char>(rng.Uniform(256));
    }
    monitor.ProcessFetch("http://evil.example.org/p" + std::to_string(i),
                         body);
  }
  // Garbage parses as non-XML: tracked by signature, no elements, no crash.
  EXPECT_EQ(monitor.stats().documents_processed, 200u);
  // A legitimate page afterwards still works.
  monitor.ProcessFetch("http://evil.example.org/ok.xml",
                       "<c><Product/></c>");
  EXPECT_EQ(monitor.stats().notifications, 1u);
}

TEST(HostileXmlTest, PageFlappingBetweenXmlAndGarbage) {
  SimClock clock(0);
  system::XylemeMonitor monitor(&clock);  // Default parse-failure cap: 3.
  ASSERT_TRUE(monitor
                  .Subscribe(R"(
subscription S
monitoring
select default
where URL extends "http://flap.example.org/" and new Product
report when immediate
)",
                             "u@x")
                  .ok());
  const std::string url = "http://flap.example.org/p.xml";
  monitor.ProcessFetch(url, "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(monitor.stats().notifications, 1u);
  // A transient garbage body is absorbed (degrade-don't-die): the last good
  // version stays warehoused, so the returning identical XML is `unchanged`
  // and does NOT re-fire `new Product`.
  monitor.ProcessFetch(url, "%%% broken <<<");
  EXPECT_EQ(monitor.stats().degraded_documents, 1u);
  monitor.ProcessFetch(url, "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(monitor.stats().notifications, 1u);
}

TEST(HostileXmlTest, ParseFailureCapAcceptsARealTypeChange) {
  SimClock clock(0);
  system::XylemeMonitor monitor(&clock);  // Default parse-failure cap: 3.
  ASSERT_TRUE(monitor
                  .Subscribe(R"(
subscription S
monitoring
select default
where URL extends "http://flap.example.org/" and new Product
report when immediate
)",
                             "u@x")
                  .ok());
  const std::string url = "http://flap.example.org/p.xml";
  monitor.ProcessFetch(url, "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(monitor.stats().notifications, 1u);
  // Three consecutive malformed bodies are absorbed...
  for (int i = 0; i < 3; ++i) monitor.ProcessFetch(url, "%%% broken <<<");
  EXPECT_EQ(monitor.stats().degraded_documents, 3u);
  // ...the fourth crosses the cap: the page really stopped being XML.
  monitor.ProcessFetch(url, "%%% broken <<<");
  EXPECT_EQ(monitor.stats().degraded_documents, 3u);
  // Now XML again: the warehouse dropped the old version at the type change,
  // so the whole tree counts as new and the subscription re-fires.
  monitor.ProcessFetch(url, "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(monitor.stats().notifications, 2u);
}

TEST(HostileXmlTest, ZeroCapRestoresEagerTypeChanges) {
  SimClock clock(0);
  system::XylemeMonitor::Options options;
  options.max_parse_failures_per_url = 0;  // Accept every type flip at once.
  system::XylemeMonitor monitor(&clock, options);
  ASSERT_TRUE(monitor
                  .Subscribe(R"(
subscription S
monitoring
select default
where URL extends "http://flap.example.org/" and new Product
report when immediate
)",
                             "u@x")
                  .ok());
  const std::string url = "http://flap.example.org/p.xml";
  monitor.ProcessFetch(url, "<c><Product id=\"1\"/></c>");
  monitor.ProcessFetch(url, "%%% broken <<<");
  monitor.ProcessFetch(url, "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(monitor.stats().degraded_documents, 0u);
  EXPECT_EQ(monitor.stats().notifications, 2u);
}

// --------------------------------------------------------- outbox retries --

TEST(OutboxRetryTest, FailedSendsRetryThenDropAfterBoundedAttempts) {
  reporter::Outbox::Options options;
  options.max_send_attempts = 3;
  reporter::Outbox outbox(options);
  outbox.set_send_hook([](const reporter::Email&) { return false; });

  outbox.Send(reporter::Email{"u@x", "s", "b", 0});
  // Attempt 1 failed: re-queued, nothing sent, nothing dropped yet.
  EXPECT_EQ(outbox.sent_count(), 0u);
  EXPECT_EQ(outbox.queued_count(), 1u);
  EXPECT_EQ(outbox.send_failures(), 1u);
  EXPECT_EQ(outbox.dropped_after_retries(), 0u);

  outbox.Drain(kMinute);  // Attempt 2.
  EXPECT_EQ(outbox.queued_count(), 1u);
  EXPECT_EQ(outbox.send_failures(), 2u);

  outbox.Drain(2 * kMinute);  // Attempt 3: the retry budget is exhausted.
  EXPECT_EQ(outbox.queued_count(), 0u);
  EXPECT_EQ(outbox.send_failures(), 3u);
  EXPECT_EQ(outbox.dropped_after_retries(), 1u);
  EXPECT_EQ(outbox.sent_count(), 0u);

  outbox.Drain(3 * kMinute);  // Nothing left; counters hold.
  EXPECT_EQ(outbox.send_failures(), 3u);
  EXPECT_EQ(outbox.dropped_after_retries(), 1u);
}

TEST(OutboxRetryTest, RecoveredDaemonDeliversRequeuedMail) {
  reporter::Outbox outbox;  // Default max_send_attempts: 3.
  int failures_left = 2;
  outbox.set_send_hook(
      [&failures_left](const reporter::Email&) { return --failures_left < 0; });

  outbox.Send(reporter::Email{"u@x", "s", "body", 0});
  outbox.Drain(kMinute);
  EXPECT_EQ(outbox.sent_count(), 0u);
  outbox.Drain(2 * kMinute);  // Third attempt succeeds.
  EXPECT_EQ(outbox.sent_count(), 1u);
  EXPECT_EQ(outbox.queued_count(), 0u);
  EXPECT_EQ(outbox.dropped_after_retries(), 0u);
  EXPECT_EQ(outbox.send_failures(), 2u);
  ASSERT_NE(outbox.last(), nullptr);
  EXPECT_EQ(outbox.last()->body, "body");
  EXPECT_EQ(outbox.last()->attempts, 3u);
}

TEST(OutboxRetryTest, FailuresWaitForTheNextDrain) {
  // A failed e-mail must not be retried within the same Drain call — the
  // daemon stays broken for the rest of the tick.
  uint64_t calls = 0;
  reporter::Outbox outbox;
  outbox.set_send_hook([&calls](const reporter::Email&) {
    ++calls;
    return false;
  });
  outbox.Send(reporter::Email{"u@x", "s", "b", 0});
  EXPECT_EQ(calls, 1u);
  outbox.Drain(kMinute);
  EXPECT_EQ(calls, 2u);  // Exactly one more attempt, not a spin.
}

TEST(OutboxRetryTest, NoHookMeansEverySendDelivers) {
  reporter::Outbox outbox;
  outbox.Send(reporter::Email{"u@x", "s", "b", 0});
  EXPECT_EQ(outbox.sent_count(), 1u);
  EXPECT_EQ(outbox.send_failures(), 0u);
}

// ----------------------------------------------------- unreliable-web soak --

// ISSUE acceptance scenario: >= 10k ticks against a web where >= 20% of the
// pages are fault-prone. The full pipeline (crawler -> warehouse -> alerters
// -> MQP -> reporter -> outbox, with a flaky send daemon on top) must
// degrade, never die, and two runs from the same seed must be bit-identical.
struct SoakResult {
  system::XylemeMonitor::Stats stats;
  webstub::CrawlerStats crawler;
  std::vector<std::string> events;  // "disappeared|reappeared url @t"
  uint64_t sent = 0;
  uint64_t send_failures = 0;
  uint64_t dropped = 0;
  size_t quarantined_at_end = 0;
  size_t missing_at_end = 0;
  // Self-healing observations (DESIGN.md §13): did any shard ever leave
  // healthy, did it come back, and the final warehoused state per URL
  // ("docid:signature:status", or "absent") for fault-free comparison.
  bool saw_degraded = false;
  bool healthy_at_end = true;
  std::map<std::string, std::string> final_meta;

  bool operator==(const SoakResult&) const = default;
};

SoakResult RunUnreliableWebSoak(int ticks,
                                system::StageFaultInjector* faults = nullptr) {
  webstub::SyntheticWeb web(2026);
  std::vector<std::string> population;
  for (int i = 0; i < 8; ++i) {
    population.push_back("http://cat.example.org/c" + std::to_string(i) +
                         ".xml");
    web.AddCatalogPage(population.back(), "http://cat.example.org/c.dtd", 6,
                       /*change_rate=*/0.4);
  }
  for (int i = 0; i < 6; ++i) {
    population.push_back("http://news.example.org/n" + std::to_string(i) +
                         ".xml");
    web.AddNewsPage(population.back(), {"camera"}, /*change_rate=*/0.6);
  }
  for (int i = 0; i < 4; ++i) {
    population.push_back("http://members.example.org/m" + std::to_string(i) +
                         ".xml");
    web.AddMembersPage(population.back(), 3, /*change_rate=*/0.3);
  }
  for (int i = 0; i < 6; ++i) {
    population.push_back("http://html.example.org/p" + std::to_string(i) +
                         ".html");
    web.AddHtmlPage(population.back(), {"xyleme"}, /*change_rate=*/0.4);
  }

  webstub::FaultPlan plan;
  plan.seed = 17;
  plan.fault_fraction = 0.35;
  plan.episode_rate = 0.2;
  plan.episode_min_steps = 1;
  plan.episode_max_steps = 4;
  plan.permanent_disappear_rate = 0.05;
  web.SetFaultPlan(plan);
  // The ISSUE floor: at least 20% of the population is faulty.
  EXPECT_GE(web.fault_prone_count() * 5, web.page_count());

  SimClock clock(0);
  system::XylemeMonitor::Options options;
  options.stage_faults = faults;
  // Stretch the heal window past a single tick's worth of batches so the
  // per-tick health poll below reliably observes the degraded state (a
  // fault-free run never leaves healthy, so this is inert without faults).
  options.health_recovery_batches = 10;
  system::XylemeMonitor monitor(&clock, options);
  EXPECT_TRUE(monitor
                  .Subscribe(R"(
subscription Cat
monitoring
select default
where URL extends "http://cat.example.org/" and new Product
report when immediate
)",
                             "cat@x")
                  .ok());
  EXPECT_TRUE(monitor
                  .Subscribe(R"(
subscription Gone
monitoring
select default
where URL extends "http://news.example.org/" and deleted self
report when immediate
)",
                             "gone@x")
                  .ok());

  // A send daemon with deterministic outage windows long enough to exhaust
  // the per-mail retry budget (so dropped_after_retries is exercised too).
  int tick_now = 0;
  monitor.outbox().set_send_hook([&tick_now](const reporter::Email&) {
    return tick_now % 401 >= 24;  // 24-tick outage every 401 ticks.
  });

  webstub::CrawlerOptions crawler_options;
  crawler_options.default_period = kHour;
  crawler_options.retry_base_delay = 2 * kMinute;
  crawler_options.retry_max_delay = 30 * kMinute;
  crawler_options.quarantine_threshold = 3;
  crawler_options.quarantine_probe_period = 2 * kHour;
  crawler_options.forget_after_missing_probes = 12;
  webstub::Crawler crawler(&web, crawler_options);

  SoakResult out;
  std::map<std::string, bool> missing;  // Alternation check per URL.
  webstub::CrawlerStats prev;
  uint64_t prev_docs = 0;
  for (int tick = 0; tick < ticks; ++tick) {
    tick_now = tick;
    if (tick % 3 == 0) web.Step();
    crawler.DiscoverAll(clock.Now());  // Pick up no-longer-gone URLs.
    monitor.ApplyRefreshHints(&crawler);
    for (const auto& doc : crawler.FetchAllDue(clock.Now())) {
      monitor.ProcessFetch(doc);
    }
    auto events = crawler.TakeEvents();
    for (const auto& event : events) {
      bool disappeared =
          event.kind == webstub::DocStatusEvent::Kind::kDisappeared;
      // Exactly one alert per transition: episodes strictly alternate.
      EXPECT_NE(missing[event.url], disappeared) << event.url;
      missing[event.url] = disappeared;
      out.events.push_back((disappeared ? "disappeared " : "reappeared ") +
                           event.url + " @" + std::to_string(event.time));
    }
    monitor.ProcessDocStatusEvents(events);
    monitor.Tick();

    // Monotonicity: every counter only moves forward.
    const webstub::CrawlerStats& cs = crawler.stats();
    EXPECT_GE(cs.fetch_attempts, prev.fetch_attempts);
    EXPECT_GE(cs.fetch_successes, prev.fetch_successes);
    EXPECT_GE(cs.fetch_errors, prev.fetch_errors);
    EXPECT_GE(cs.retries_scheduled, prev.retries_scheduled);
    EXPECT_GE(cs.quarantines_opened, prev.quarantines_opened);
    EXPECT_GE(cs.quarantines_closed, prev.quarantines_closed);
    EXPECT_GE(cs.disappeared_events, prev.disappeared_events);
    EXPECT_GE(cs.reappeared_events, prev.reappeared_events);
    prev = cs;
    EXPECT_GE(monitor.stats().documents_processed, prev_docs);
    prev_docs = monitor.stats().documents_processed;

    // Shard health: remember whether containment ever degraded a shard —
    // and at the end, whether the recovery window healed it again.
    system::PipelineStats ps = monitor.pipeline_stats();
    out.healthy_at_end = true;
    for (const system::ShardStatus& shard : ps.shard_status) {
      if (shard.health != system::ShardHealth::kHealthy) {
        out.saw_degraded = true;
        out.healthy_at_end = false;
      }
    }

    clock.Advance(10 * kMinute);
  }

  for (const std::string& url : population) {
    const warehouse::DocMeta* meta =
        monitor.pipeline().WarehouseFor(url).GetMeta(url);
    out.final_meta[url] =
        meta == nullptr
            ? "absent"
            : std::to_string(meta->docid) + ":" +
                  std::to_string(meta->signature) + ":" +
                  warehouse::DocStatusName(meta->status);
  }
  out.stats = monitor.stats();
  out.crawler = crawler.stats();
  out.sent = monitor.outbox().sent_count();
  out.send_failures = monitor.outbox().send_failures();
  out.dropped = monitor.outbox().dropped_after_retries();
  out.quarantined_at_end = crawler.quarantined_count();
  out.missing_at_end = crawler.missing_count();
  return out;
}

TEST(UnreliableWebSoakTest, TenThousandTicksDegradeWithoutDying) {
  SoakResult r = RunUnreliableWebSoak(10'000);

  // The pipeline kept moving: real volume, real faults, real recoveries.
  EXPECT_GT(r.stats.documents_processed, 1000u);
  EXPECT_GT(r.stats.notifications, 0u);
  EXPECT_GT(r.crawler.timeouts, 0u);
  EXPECT_GT(r.crawler.server_errors, 0u);
  EXPECT_GT(r.crawler.not_found, 0u);
  EXPECT_GT(r.crawler.retries_scheduled, 0u);
  // Malformed (truncated/garbage) bodies were absorbed, not fatal.
  EXPECT_GT(r.stats.degraded_documents, 0u);
  // The circuit breaker opened under fire and closed again on recovery —
  // quarantined pages really are probed and come back.
  EXPECT_GT(r.crawler.quarantines_opened, 0u);
  EXPECT_GT(r.crawler.quarantines_closed, 0u);
  // Disappearance episodes flowed through to the monitor 1:1.
  EXPECT_EQ(r.stats.disappeared_documents, r.crawler.disappeared_events);
  EXPECT_EQ(r.stats.reappeared_documents, r.crawler.reappeared_events);
  EXPECT_GE(r.crawler.disappeared_events, r.crawler.reappeared_events);
  EXPECT_GT(r.crawler.reappeared_events, 0u);
  // Permanently gone pages were eventually dropped from the schedule.
  EXPECT_GT(r.crawler.urls_forgotten, 0u);
  // The flaky send daemon forced retries and (during long outages) drops.
  EXPECT_GT(r.sent, 0u);
  EXPECT_GT(r.send_failures, 0u);
  EXPECT_GT(r.dropped, 0u);
}

TEST(UnreliableWebSoakTest, SoakIsDeterministic) {
  // Two runs from the same seed: identical stats, alert streams and outbox
  // accounting, bit for bit.
  SoakResult a = RunUnreliableWebSoak(2'000);
  SoakResult b = RunUnreliableWebSoak(2'000);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(a == b);
}

TEST(UnreliableWebSoakTest, StageFaultsMidSoakHealAndMatchFaultFreeReplay) {
  // Arm stage faults on two frequently-fetched pages mid-soak, on top of
  // the web-level fault plan. Containment must absorb them (health degrades
  // and recovers), the run must stay deterministic, and every *unaffected*
  // page's final warehoused state must be identical to a fault-free replay.
  const std::string cat = "http://cat.example.org/c0.xml";
  const std::string news = "http://news.example.org/n1.xml";
  system::StageFaultPlan plan{{
      {system::StageKind::kDetect, cat, 50, system::StageFaultKind::kThrow},
      {system::StageKind::kIngest, cat, 120, system::StageFaultKind::kThrow},
      {system::StageKind::kDetect, news, 40, system::StageFaultKind::kThrow},
  }};
  system::StageFaultInjector faults(plan);
  SoakResult faulted = RunUnreliableWebSoak(2'000, &faults);

  EXPECT_EQ(faults.faults_fired(), 3u);
  EXPECT_EQ(faulted.stats.failed_documents, 3u);
  EXPECT_TRUE(faulted.saw_degraded);
  EXPECT_TRUE(faulted.healthy_at_end);

  // Determinism holds under stage faults too.
  system::StageFaultInjector faults_again(plan);
  SoakResult again = RunUnreliableWebSoak(2'000, &faults_again);
  EXPECT_TRUE(faulted == again);

  // Fault-free replay: identical final state for the rest of the web.
  SoakResult clean = RunUnreliableWebSoak(2'000);
  EXPECT_FALSE(clean.saw_degraded);
  EXPECT_EQ(clean.stats.failed_documents, 0u);
  auto without_faulted = [&](std::map<std::string, std::string> meta) {
    meta.erase(cat);
    meta.erase(news);
    return meta;
  };
  EXPECT_EQ(without_faulted(faulted.final_meta),
            without_faulted(clean.final_meta));
}

TEST(UnreliableWebSoakTest, ProcessCrawlMirrorsCrawlerHealth) {
  webstub::SyntheticWeb web(77);
  web.AddCatalogPage("http://cat.example.org/c.xml",
                     "http://cat.example.org/c.dtd", 5);
  for (int i = 0; i < 5; ++i) {
    web.AddHtmlPage("http://html.example.org/p" + std::to_string(i) + ".html");
  }
  webstub::FaultPlan plan;
  plan.seed = 5;
  plan.fault_fraction = 0.5;
  plan.episode_rate = 0.3;
  web.SetFaultPlan(plan);

  SimClock clock(0);
  system::XylemeMonitor monitor(&clock);
  webstub::CrawlerOptions options;
  options.default_period = kHour;
  options.retry_base_delay = 5 * kMinute;
  options.quarantine_threshold = 2;
  options.quarantine_probe_period = kHour;
  webstub::Crawler crawler(&web, options);
  crawler.DiscoverAll(0);

  for (int tick = 0; tick < 600; ++tick) {
    if (tick % 2 == 0) web.Step();
    monitor.ProcessCrawl(&crawler);
    monitor.Tick();
    clock.Advance(10 * kMinute);
  }

  // The status report's <Health> element reflects the driving crawler
  // exactly.
  auto report = xml::Parse(monitor.StatusReport());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const xml::Node* health = report->root->FindChild("Health");
  ASSERT_NE(health, nullptr);
  auto attribute = [health](const char* key) {
    const std::string* value = health->GetAttribute(key);
    return value != nullptr ? *value : std::string("<missing>");
  };
  EXPECT_EQ(attribute("fetch_errors"),
            std::to_string(crawler.stats().fetch_errors));
  EXPECT_EQ(attribute("retries"),
            std::to_string(crawler.stats().retries_scheduled));
  EXPECT_EQ(attribute("quarantined_urls"),
            std::to_string(crawler.quarantined_count()));
  EXPECT_GT(crawler.stats().fetch_errors, 0u);
}

// -------------------------------------------------------- storage failures --

class StorageFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("xymon_failure_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(StorageFailureTest, RandomizedOpsMatchReferenceAcrossReopen) {
  // Property: a PersistentMap behaves like std::map across arbitrary
  // op sequences interleaved with checkpoints and crashes (reopen).
  std::string path = dir_ / "map";
  std::map<std::string, std::string> reference;
  Rng rng(21);
  for (int session = 0; session < 10; ++session) {
    auto map = storage::PersistentMap::Open(path);
    ASSERT_TRUE(map.ok());
    ASSERT_EQ(map->data(), reference) << "session " << session;
    for (int op = 0; op < 100; ++op) {
      std::string key = "k" + std::to_string(rng.Uniform(20));
      switch (rng.Uniform(3)) {
        case 0: {
          std::string value = "v" + std::to_string(rng.Next());
          ASSERT_TRUE(map->Put(key, value).ok());
          reference[key] = value;
          break;
        }
        case 1:
          ASSERT_TRUE(map->Delete(key).ok());
          reference.erase(key);
          break;
        case 2:
          if (rng.Bernoulli(0.1)) {
            ASSERT_TRUE(map->Checkpoint().ok());
          }
          break;
      }
    }
    // "Crash": map destructor without further ceremony; next session
    // replays the log.
  }
}

TEST_F(StorageFailureTest, ManagerStorageWithTornTailRecovers) {
  std::string path = dir_ / "subs";
  {
    SimClock clock(0);
    system::XylemeMonitor::Options options;
    options.storage_path = path;
    system::XylemeMonitor monitor(&clock, options);
    ASSERT_TRUE(monitor
                    .Subscribe("subscription A\nmonitoring\nselect default\n"
                               "where URL extends \"http://a.example.org/\"\n"
                               "report when immediate\n",
                               "a@x")
                    .ok());
  }
  {
    // Torn write at the tail (simulated crash mid-append).
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\xff\x00\x00\x00half", 8);
  }
  SimClock clock(0);
  system::XylemeMonitor::Options options;
  options.storage_path = path;
  system::XylemeMonitor monitor(&clock, options);
  // Subscription A survived; system is live.
  monitor.ProcessFetch("http://a.example.org/x", "<p/>");
  EXPECT_EQ(monitor.stats().notifications, 1u);
}

TEST_F(StorageFailureTest, FsyncedSubscriptionLogSurvivesSimulatedCrash) {
  std::string path = dir_ / "subs";
  std::string snapshot = dir_ / "subs_after_crash";
  {
    SimClock clock(0);
    system::XylemeMonitor::Options options;
    options.storage_path = path;
    options.storage_fsync_every_n = 1;  // Every Subscribe is crash-proof.
    system::XylemeMonitor monitor(&clock, options);
    ASSERT_TRUE(monitor
                    .Subscribe("subscription A\nmonitoring\nselect default\n"
                               "where URL extends \"http://a.example.org/\"\n"
                               "report when immediate\n",
                               "a@x")
                    .ok());
    // Simulated crash: snapshot the on-disk log while the monitor is still
    // alive — no destructor, no clean close. With fsync_every_n = 1 the
    // subscription record must already be on stable storage.
    ASSERT_TRUE(std::filesystem::copy_file(path, snapshot));
  }
  SimClock clock(0);
  system::XylemeMonitor::Options options;
  options.storage_path = snapshot;
  system::XylemeMonitor monitor(&clock, options);
  EXPECT_EQ(monitor.manager().subscription_count(), 1u);
  monitor.ProcessFetch("http://a.example.org/x", "<p/>");
  EXPECT_EQ(monitor.stats().notifications, 1u);
}

// ------------------------------------------------- subscription rejection --

TEST(SubscriptionFailureTest, RejectionsAreCleanAndSystemStaysUsable) {
  SimClock clock(0);
  system::XylemeMonitor monitor(&clock);
  const char* bad_subscriptions[] = {
      "",                                     // empty
      "subscription",                         // truncated
      "subscription X",                       // nothing monitored
      "subscription X monitoring",            // no select
      "subscription X monitoring select default",  // no where
      "subscription X monitoring select default where modified self "
      "report when immediate",                // weak-only
      "subscription X monitoring select default where URL extends \"x\" "
      "report when immediate",                // prefix too short
      "subscription X monitoring select default where nonsense ~~~",
      "subscription X virtual Missing.Query",  // dangling virtual
      "subscription X continuous Q select broken ~~ when daily "
      "report when immediate",                // broken continuous query
  };
  for (const char* text : bad_subscriptions) {
    auto result = monitor.Subscribe(text, "u@x");
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
  // Nothing leaked into the live structures.
  EXPECT_EQ(monitor.manager().subscription_count(), 0u);
  EXPECT_EQ(monitor.manager().atomic_event_count(), 0u);
  EXPECT_EQ(monitor.mqp().matcher().size(), 0u);

  // And a good subscription still registers.
  EXPECT_TRUE(monitor
                  .Subscribe("subscription OK\nmonitoring\nselect default\n"
                             "where URL extends \"http://fine.example.org/\"\n"
                             "report when immediate\n",
                             "u@x")
                  .ok());
}

}  // namespace
}  // namespace xymon
