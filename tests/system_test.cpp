#include <gtest/gtest.h>

#include <filesystem>

#include "stream_golden.h"
#include "src/system/monitor.h"
#include "src/xml/parser.h"
#include "src/webstub/crawler.h"
#include "src/webstub/synthetic_web.h"

namespace xymon::system {
namespace {

// The paper's MyXyleme subscription (§2.2), with reporting tuned small so a
// test exercises the full loop quickly.
constexpr char kMyXyleme[] = R"(
subscription MyXyleme
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml" and new X
report
when count >= 5
)";

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : clock_(1000), monitor_(&clock_) {}

  SimClock clock_;
  XylemeMonitor monitor_;
};

TEST_F(SystemTest, MyXylemeEndToEnd) {
  auto sub = monitor_.Subscribe(kMyXyleme, "benjamin@inria.fr");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  // First crawl: pages are new, not modified — only `new Member` can fire,
  // and it needs the members page.
  monitor_.ProcessFetch("http://inria.fr/Xy/index.html", "<page>v1</page>");
  monitor_.ProcessFetch(
      "http://inria.fr/Xy/members.xml",
      "<Members><Member><name>jouglet</name></Member></Members>");
  // New document => every Member is new => 1 notification so far.
  EXPECT_EQ(monitor_.stats().notifications, 1u);

  // Second crawl: index page modified, two new members.
  clock_.Advance(kDay);
  monitor_.ProcessFetch("http://inria.fr/Xy/index.html", "<page>v2</page>");
  monitor_.ProcessFetch(
      "http://inria.fr/Xy/members.xml",
      "<Members><Member><name>jouglet</name></Member>"
      "<Member><name>nguyen</name></Member>"
      "<Member><name>preda</name></Member></Members>");

  // UpdatedPage for both pages + 2 new Members = 4 more notifications,
  // reaching the count >= 5 report threshold exactly.
  EXPECT_EQ(monitor_.stats().notifications, 5u);
  EXPECT_GE(monitor_.reporter().reports_generated(), 1u);
  ASSERT_GE(monitor_.outbox().sent_count(), 1u);

  const reporter::Email* mail = monitor_.outbox().last();
  ASSERT_NE(mail, nullptr);
  EXPECT_EQ(mail->to, "benjamin@inria.fr");
  // Report shape per §2.2: UpdatedPage elements with url attributes and the
  // new Member payloads.
  EXPECT_NE(mail->body.find("UpdatedPage"), std::string::npos);
  EXPECT_NE(mail->body.find("url=\"http://inria.fr/Xy/index.html\""),
            std::string::npos);
  EXPECT_NE(mail->body.find("<Member>"), std::string::npos);
  EXPECT_NE(mail->body.find("nguyen"), std::string::npos);
}

TEST_F(SystemTest, UninterestingPagesRaiseNoAlerts) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "u@x").ok());
  monitor_.ProcessFetch("http://elsewhere.org/", "<doc>hello</doc>");
  EXPECT_EQ(monitor_.stats().documents_processed, 1u);
  EXPECT_EQ(monitor_.stats().alerts_raised, 0u);
  EXPECT_EQ(monitor_.stats().notifications, 0u);
}

TEST_F(SystemTest, CatalogMonitoringWithContains) {
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Cameras
monitoring
select default
where URL extends "http://shop.example.com/"
  and updated Product contains "camera"
report when immediate
)",
                             "buyer@x")
                  .ok());

  monitor_.ProcessFetch(
      "http://shop.example.com/cat.xml",
      "<catalog><Product><name>camera z1</name><price>100</price></Product>"
      "<Product><name>tv</name><price>500</price></Product></catalog>");
  EXPECT_EQ(monitor_.stats().notifications, 0u);  // New, not updated.

  // Reprice the camera: fires.
  monitor_.ProcessFetch(
      "http://shop.example.com/cat.xml",
      "<catalog><Product><name>camera z1</name><price>90</price></Product>"
      "<Product><name>tv</name><price>500</price></Product></catalog>");
  EXPECT_EQ(monitor_.stats().notifications, 1u);

  // Reprice the tv: does not fire.
  monitor_.ProcessFetch(
      "http://shop.example.com/cat.xml",
      "<catalog><Product><name>camera z1</name><price>90</price></Product>"
      "<Product><name>tv</name><price>450</price></Product></catalog>");
  EXPECT_EQ(monitor_.stats().notifications, 1u);
}

TEST_F(SystemTest, ContinuousQueryOverWarehouse) {
  monitor_.AddDomainRule({"culture", "", "museum", ""});
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Art
continuous Paintings
select p/title from culture//painting p
when daily
report when immediate
)",
                             "curator@x")
                  .ok());

  monitor_.ProcessFetch(
      "http://art/rijks.xml",
      "<museum><painting><title>NightWatch</title></painting></museum>");

  clock_.Advance(kDay + 1);
  monitor_.Tick();
  ASSERT_GE(monitor_.reporter().reports_generated(), 1u);
  EXPECT_NE(monitor_.outbox().last()->body.find("NightWatch"),
            std::string::npos);
}

TEST_F(SystemTest, DeltaContinuousQueryReportsOnlyChanges) {
  monitor_.AddDomainRule({"culture", "", "museum", ""});
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription ArtDelta
continuous delta Paintings
select p/title from culture//painting p
when daily
report when immediate
)",
                             "curator@x")
                  .ok());

  monitor_.ProcessFetch(
      "http://art/m.xml",
      "<museum><painting><title>A</title></painting></museum>");
  clock_.Advance(kDay + 1);
  monitor_.Tick();
  uint64_t after_first = monitor_.reporter().reports_generated();
  EXPECT_GE(after_first, 1u);  // Initial full result.

  // No change: next evaluation must NOT notify.
  clock_.Advance(kDay);
  monitor_.Tick();
  EXPECT_EQ(monitor_.reporter().reports_generated(), after_first);

  // Change: a delta notification arrives.
  monitor_.ProcessFetch(
      "http://art/m.xml",
      "<museum><painting><title>A</title></painting>"
      "<painting><title>B</title></painting></museum>");
  clock_.Advance(kDay);
  monitor_.Tick();
  EXPECT_GT(monitor_.reporter().reports_generated(), after_first);
  EXPECT_NE(monitor_.outbox().last()->body.find("Paintings-delta"),
            std::string::npos);
}

TEST_F(SystemTest, NotificationTriggeredContinuousQuery) {
  // §5.2's XylemeCompetitors: a monitoring query whose notifications
  // re-evaluate a continuous query.
  ASSERT_TRUE(monitor_
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
  monitor_.AddDomainRule({"market", "", "competitors", ""});
  monitor_.ProcessFetch("http://scan/market.xml",
                        "<competitors><competitor>conquer</competitor>"
                        "</competitors>");
  uint64_t before = monitor_.trigger_engine().firings();

  monitor_.ProcessFetch("http://www.xyleme.com/products.xml", "<p>v1</p>");
  EXPECT_EQ(monitor_.trigger_engine().firings(), before);  // New, not modified.
  monitor_.ProcessFetch("http://www.xyleme.com/products.xml", "<p>v2</p>");
  EXPECT_EQ(monitor_.trigger_engine().firings(), before + 1);
  EXPECT_NE(monitor_.outbox().last()->body.find("conquer"), std::string::npos);
}

TEST_F(SystemTest, ContinuousQueryFiresOnAnotherSubscriptionsQuery) {
  // B's continuous query waits on A's monitoring query, whichever of the
  // two registers first.
  constexpr char kA[] = R"(
subscription A
monitoring Q
select default
where URL = "http://www.xyleme.com/products.xml" and modified self
report when immediate
)";
  constexpr char kB[] = R"(
subscription B
continuous Competitors
select c from market//competitor c
when A.Q
report when immediate
)";
  monitor_.AddDomainRule({"market", "", "competitors", ""});
  monitor_.ProcessFetch("http://scan/market.xml",
                        "<competitors><competitor>conquer</competitor>"
                        "</competitors>");
  int version = 0;
  auto modify = [&] {
    const std::string number = std::to_string(++version);
    monitor_.ProcessFetch("http://www.xyleme.com/products.xml",
                          "<p>v" + number + "</p>");
  };
  auto mails_to_b = [&] {
    size_t n = 0;
    for (const auto& mail : monitor_.outbox().sent()) {
      if (mail.to == "b@x") {
        EXPECT_NE(mail.body.find("conquer"), std::string::npos);
        ++n;
      }
    }
    return n;
  };
  modify();  // The first version is new, not modified.
  const uint64_t base = monitor_.trigger_engine().firings();

  // B before A: nothing to wait on yet, then A's matches wake it.
  ASSERT_TRUE(monitor_.Subscribe(kB, "b@x").ok());
  modify();
  EXPECT_EQ(monitor_.trigger_engine().firings(), base);
  ASSERT_TRUE(monitor_.Subscribe(kA, "a@x").ok());
  modify();
  EXPECT_EQ(monitor_.trigger_engine().firings(), base + 1);
  EXPECT_EQ(mails_to_b(), 1u);

  // A unsubscribed and subscribed again: B still listens.
  ASSERT_TRUE(monitor_.Unsubscribe("A").ok());
  modify();
  EXPECT_EQ(monitor_.trigger_engine().firings(), base + 1);
  ASSERT_TRUE(monitor_.Subscribe(kA, "a@x").ok());
  modify();
  EXPECT_EQ(monitor_.trigger_engine().firings(), base + 2);
  EXPECT_EQ(mails_to_b(), 2u);

  // B unsubscribed: A's matches wake nothing.
  ASSERT_TRUE(monitor_.Unsubscribe("B").ok());
  modify();
  EXPECT_EQ(monitor_.trigger_engine().firings(), base + 2);

  // B after A.
  ASSERT_TRUE(monitor_.Subscribe(kB, "b@x").ok());
  modify();
  EXPECT_EQ(monitor_.trigger_engine().firings(), base + 3);
  EXPECT_EQ(mails_to_b(), 3u);
}

TEST_F(SystemTest, VirtualSubscriptionSharesQueries) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "owner@x").ok());
  ASSERT_TRUE(monitor_
                  .Subscribe("subscription MyVirtual\n"
                             "virtual MyXyleme.UpdatedPage\n",
                             "guest@x")
                  .ok());
  // Virtual subscriptions add no monitoring machinery (the paper's cost
  // argument §5.4): still 2 complex events and 3 atomic events.
  EXPECT_EQ(monitor_.mqp().matcher().size(), 2u);

  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");
  // Virtual delivery is immediate (default report spec).
  bool guest_got_mail = false;
  for (const auto& mail : monitor_.outbox().sent()) {
    if (mail.to == "guest@x") guest_got_mail = true;
  }
  EXPECT_TRUE(guest_got_mail);
}

TEST_F(SystemTest, UnsubscribeStopsNotifications) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "u@x").ok());
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");
  uint64_t before = monitor_.stats().notifications;
  EXPECT_GT(before, 0u);
  ASSERT_TRUE(monitor_.Unsubscribe("MyXyleme").ok());
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>3</p>");
  EXPECT_EQ(monitor_.stats().notifications, before);
}

TEST_F(SystemTest, ExplicitDeletionRaisesDeletedEvents) {
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Del
monitoring
select default
where URL extends "http://gone.org/" and deleted self
report when immediate
)",
                             "u@x")
                  .ok());
  monitor_.ProcessFetch("http://gone.org/x.xml", "<a/>");
  EXPECT_EQ(monitor_.stats().notifications, 0u);
  ASSERT_TRUE(monitor_.ProcessDeletion("http://gone.org/x.xml").ok());
  EXPECT_EQ(monitor_.stats().notifications, 1u);
}

TEST_F(SystemTest, CrawlerDrivenScenario) {
  webstub::SyntheticWeb web(42);
  web.AddCatalogPage("http://shop.example.com/cat.xml",
                     "http://shop.example.com/dtd/catalog.dtd", 10);
  web.AddMembersPage("http://inria.fr/Xy/members.xml", 4);
  for (int i = 0; i < 5; ++i) {
    web.AddHtmlPage("http://misc.org/p" + std::to_string(i) + ".html");
  }

  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Watch
monitoring
select default
where URL extends "http://shop.example.com/" and new Product
refresh "http://shop.example.com/cat.xml" hourly
report when count >= 1
)",
                             "u@x")
                  .ok());

  webstub::Crawler crawler(&web, /*default_period=*/kDay);
  monitor_.ApplyRefreshHints(&crawler);
  crawler.DiscoverAll(clock_.Now());

  // Day 0: full crawl — catalog is new, so new Product fires.
  for (const auto& doc : crawler.FetchAllDue(clock_.Now())) {
    monitor_.ProcessFetch(doc);
  }
  monitor_.Tick();
  EXPECT_GE(monitor_.reporter().reports_generated(), 1u);

  // A week of evolution, crawling every hour.
  uint64_t fetches_before = crawler.fetch_count();
  for (int day = 1; day <= 7; ++day) {
    web.Step();
    for (int hour = 0; hour < 24; ++hour) {
      clock_.Advance(kHour);
      for (const auto& doc : crawler.FetchAllDue(clock_.Now())) {
        monitor_.ProcessFetch(doc);
      }
    }
    monitor_.Tick();
  }
  // The hourly refresh hint makes the catalog page fetched far more often
  // than the pages on the daily default (24x vs 1x per day).
  EXPECT_GT(crawler.fetch_count(), fetches_before + 7 * web.page_count());
}

TEST_F(SystemTest, RecoveryAcrossRestart) {
  std::string path = std::filesystem::temp_directory_path() /
                     ("xymon_system_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove(path);
  {
    SimClock clock(0);
    XylemeMonitor::Options options;
    options.storage_path = path;
    XylemeMonitor m1(&clock, options);
    ASSERT_TRUE(m1.Subscribe(kMyXyleme, "u@x").ok());
  }
  SimClock clock(0);
  XylemeMonitor::Options options;
  options.storage_path = path;
  XylemeMonitor m2(&clock, options);
  // Recovered subscription is fully live.
  m2.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  m2.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");
  EXPECT_GT(m2.stats().notifications, 0u);
  std::filesystem::remove(path);
}

TEST_F(SystemTest, DisjunctiveSubscriptionNotifiesOncePerDocument) {
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Either
monitoring
select default
where URL extends "http://a.example.org/" and modified self
   or URL extends "http://overlap.example.org/" and modified self
   or self contains "xyleme"
report when immediate
)",
                             "u@x")
                  .ok());
  // Three disjuncts => three complex events for one query.
  EXPECT_EQ(monitor_.mqp().matcher().size(), 3u);

  // Site A page modified: one notification.
  monitor_.ProcessFetch("http://a.example.org/p.xml", "<p>1</p>");
  EXPECT_EQ(monitor_.stats().notifications, 0u);  // New, not modified.
  monitor_.ProcessFetch("http://a.example.org/p.xml", "<p>2</p>");
  EXPECT_EQ(monitor_.stats().notifications, 1u);

  // A page matching TWO disjuncts (overlap URL + xyleme keyword) must
  // still notify the query only once.
  monitor_.ProcessFetch("http://overlap.example.org/q.xml",
                        "<p>about xyleme</p>");
  EXPECT_EQ(monitor_.stats().notifications, 2u);  // keyword disjunct (new doc)
  monitor_.ProcessFetch("http://overlap.example.org/q.xml",
                        "<p>more about xyleme v2</p>");
  EXPECT_EQ(monitor_.stats().notifications, 3u);  // both disjuncts, one notif
}

TEST_F(SystemTest, WarehousePersistenceKeepsChangeSemanticsAcrossRestart) {
  auto dir = std::filesystem::temp_directory_path();
  std::string subs_path = dir / ("xymon_subs_" + std::to_string(::getpid()));
  std::string wh_path = dir / ("xymon_wh_" + std::to_string(::getpid()));
  std::filesystem::remove(subs_path);
  std::filesystem::remove(wh_path);

  XylemeMonitor::Options options;
  options.storage_path = subs_path;
  options.warehouse_path = wh_path;
  {
    SimClock clock(0);
    XylemeMonitor m1(&clock, options);
    ASSERT_TRUE(m1
                    .Subscribe(R"(
subscription P
monitoring
select default
where URL extends "http://shop.example.org/" and new Product
report when immediate
)",
                               "u@x")
                    .ok());
    m1.ProcessFetch("http://shop.example.org/c.xml",
                    "<c><Product id=\"1\"/></c>");
    EXPECT_EQ(m1.stats().notifications, 1u);
  }
  // Restart: the same page refetched unchanged must NOT count as new —
  // without warehouse persistence it would re-notify.
  SimClock clock(10);
  XylemeMonitor m2(&clock, options);
  m2.ProcessFetch("http://shop.example.org/c.xml",
                  "<c><Product id=\"1\"/></c>");
  EXPECT_EQ(m2.stats().notifications, 0u);
  // A genuinely new product after restart notifies exactly once.
  m2.ProcessFetch("http://shop.example.org/c.xml",
                  "<c><Product id=\"1\"/><Product id=\"2\"/></c>");
  EXPECT_EQ(m2.stats().notifications, 1u);
  std::filesystem::remove(subs_path);
  std::filesystem::remove(wh_path);
}

TEST_F(SystemTest, StatusReportDescribesEveryModule) {
  ASSERT_TRUE(monitor_.Subscribe(kMyXyleme, "u@x").ok());
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>1</p>");
  monitor_.ProcessFetch("http://inria.fr/Xy/i.html", "<p>2</p>");

  std::string status = monitor_.StatusReport();
  auto doc = xml::Parse(status);
  ASSERT_TRUE(doc.ok()) << status;
  EXPECT_EQ(doc->root->name(), "XylemeStatus");
  for (const char* section :
       {"DocumentFlow", "Warehouse", "Subscriptions", "MQP", "TriggerEngine",
        "Reporter", "Outbox", "WebPortal"}) {
    EXPECT_NE(doc->root->FindChild(section), nullptr) << section;
  }
  EXPECT_EQ(*doc->root->FindChild("DocumentFlow")->GetAttribute("processed"),
            "2");
  EXPECT_EQ(*doc->root->FindChild("Subscriptions")->GetAttribute("count"),
            "1");
  EXPECT_EQ(*doc->root->FindChild("MQP")->GetAttribute("algorithm"), "aes");
}

// ---------------------------------------------------- Fan-out by reference --

/// A BindingResolver that keeps the actions of the last document it resolved
/// (copies of the handles: they share the resolver's payload objects).
class RecordingResolver : public NotifyResolver {
 public:
  explicit RecordingResolver(const manager::SubscriptionManager* manager)
      : manager_(manager), inner_(manager) {}

  void Resolve(const warehouse::IngestResult& ingest,
               const std::vector<mqp::MqpNotification>& matches,
               DocOutcome* out) const override {
    inner_.Resolve(ingest, matches, out);
    actions = out->actions;
  }

  /// The notification payloads resolved for `subscription`.
  std::vector<reporter::Payload> PayloadsOf(const std::string& subscription) const {
    std::vector<reporter::Payload> out;
    for (const DeliveryAction& action : actions) {
      if (manager_->binding(action.binding)->subscription == subscription) {
        out.push_back(action.payload);
      }
    }
    return out;
  }

  mutable std::vector<DeliveryAction> actions;

 private:
  const manager::SubscriptionManager* manager_;
  BindingResolver inner_;
};

std::string ShopSub(const std::string& name, const std::string& query) {
  return "subscription " + name + "\nmonitoring\n" + query +
         "\nreport when immediate\n";
}

bool AllShared(const std::vector<reporter::Payload>& a,
               const std::vector<reporter::Payload>& b) {
  if (a.size() != b.size() || a.empty()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SharesWith(b[i])) return false;
  }
  return true;
}

bool AnyShared(const std::vector<reporter::Payload>& a,
               const std::vector<reporter::Payload>& b) {
  for (const reporter::Payload& x : a) {
    for (const reporter::Payload& y : b) {
      if (x.SharesWith(y)) return true;
    }
  }
  return false;
}

TEST_F(SystemTest, SubscribersSharingARecipeShareOnePayloadPerDocument) {
  const std::string where = "where URL extends \"http://shop.example/\" and ";
  const std::vector<std::pair<std::string, std::string>> subs = {
      // Equal recipes: each pair must share.
      {"NewA", "select X from self//Product X\n" + where + "new X"},
      {"NewB", "select X from self//Product X\n" + where + "new X"},
      {"HitA", "select <Hit url=URL/>\n" + where + "self contains \"stereo\""},
      {"HitB", "select <Hit url=URL/>\n" + where + "self contains \"stereo\""},
      {"DefA", "select default\n" + where + "self contains \"stereo\""},
      {"DefB", "select default\n" + where + "self contains \"stereo\""},
      // Nothing bound: falls back to the default payload, and shares it.
      {"Missing",
       "select X from self//Missing X\n" + where + "self contains \"stereo\""},
      // Each differs from a recipe above in one field only: never shared.
      {"Camera", "select X from self//Product X\n" + where +
                     "new X contains \"camera\""},
      {"Stereo", "select X from self//Product X\n" + where +
                     "new X contains \"stereo\""},                    // word
      {"StrictCamera", "select X from self//Product X\n" + where +
                           "new X strict contains \"camera\""},      // strict
      {"UpdatedCamera", "select X from self//Product X\n" + where +
                            "updated X contains \"camera\""},        // op
      {"FromProduct", "select X from self//Product X\n" + where +
                          "self contains \"stereo\""},
      {"FromPrice", "select X from self//price X\n" + where +
                        "self contains \"stereo\""},                 // tag
      {"HitStatus", "select <Hit url=URL status=STATUS/>\n" + where +
                        "self contains \"stereo\""},                 // template
  };
  for (const auto& [name, query] : subs) {
    ASSERT_TRUE(monitor_.Subscribe(ShopSub(name, query), "u@x").ok()) << name;
  }
  RecordingResolver recorder(&monitor_.manager());
  monitor_.pipeline().set_resolver(&recorder);

  const std::string url = "http://shop.example/catalog.xml";
  monitor_.ProcessFetch(url,
                        "<catalog><Product>camera one<price>1</price></Product>"
                        "</catalog>");
  clock_.Advance(kDay);
  monitor_.ProcessFetch(url,
                        "<catalog><Product>camera one<price>2</price></Product>"
                        "<Product>camera two<price>5</price></Product>"
                        "<Product>stereo three<price>7</price></Product>"
                        "</catalog>");
  auto of = [&](const char* sub) { return recorder.PayloadsOf(sub); };

  // One object per recipe, whoever subscribes to it.
  EXPECT_EQ(of("NewA").size(), 2u);
  EXPECT_TRUE(AllShared(of("NewA"), of("NewB")));
  EXPECT_TRUE(AllShared(of("HitA"), of("HitB")));
  EXPECT_TRUE(AllShared(of("DefA"), of("DefB")));
  EXPECT_TRUE(AllShared(of("DefA"), of("Missing")));

  // Different recipes never share, even where their bytes agree.
  for (const char* sub : {"Camera", "Stereo", "StrictCamera", "UpdatedCamera",
                          "FromProduct", "FromPrice", "HitStatus"}) {
    EXPECT_FALSE(of(sub).empty()) << sub;
  }
  EXPECT_FALSE(AnyShared(of("Camera"), of("Stereo")));
  EXPECT_FALSE(AnyShared(of("Camera"), of("StrictCamera")));
  EXPECT_FALSE(AnyShared(of("Camera"), of("UpdatedCamera")));
  EXPECT_FALSE(AnyShared(of("Camera"), of("NewA")));
  EXPECT_FALSE(AnyShared(of("FromProduct"), of("FromPrice")));
  EXPECT_FALSE(AnyShared(of("HitA"), of("HitStatus")));

  // And each carries what its own recipe selects.
  ASSERT_EQ(of("Camera").size(), 1u);
  EXPECT_NE(of("Camera")[0].xml().find("camera two"), std::string::npos);
  ASSERT_EQ(of("Stereo").size(), 1u);
  EXPECT_NE(of("Stereo")[0].xml().find("stereo three"), std::string::npos);
  EXPECT_EQ(of("StrictCamera")[0].xml(), of("Camera")[0].xml());
  ASSERT_EQ(of("UpdatedCamera").size(), 1u);
  EXPECT_NE(of("UpdatedCamera")[0].xml().find("camera one"), std::string::npos);
  EXPECT_EQ(of("FromProduct").size(), 3u);
  ASSERT_EQ(of("FromPrice").size(), 3u);
  EXPECT_EQ(of("FromPrice")[0].xml(), "<price>2</price>");
  EXPECT_NE(of("HitStatus")[0].xml().find("status="), std::string::npos);
  EXPECT_EQ(of("HitA")[0].xml().find("status="), std::string::npos);
}

TEST_F(SystemTest, SameNamedQueriesStillNotifyOncePerDocument) {
  // Two template queries with one root tag are both named after it.
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Twice
monitoring
select <Hit url=URL/>
where URL extends "http://shop.example/" and self contains "stereo"
monitoring
select <Hit status=STATUS/>
where URL extends "http://shop.example/" and self contains "camera"
report when immediate
)",
                             "u@x")
                  .ok());
  // A continuous query waiting on the shared name: one trigger event per
  // document, not one per matched query.
  ASSERT_TRUE(monitor_
                  .Subscribe(R"(
subscription Listener
continuous Hits
select m from any/museum m
when Twice.Hit
report when immediate
)",
                             "l@x")
                  .ok());
  RecordingResolver recorder(&monitor_.manager());
  monitor_.pipeline().set_resolver(&recorder);

  monitor_.ProcessFetch("http://shop.example/c.xml", "<c>stereo camera</c>");
  EXPECT_EQ(recorder.PayloadsOf("Twice").size(), 1u);
  ASSERT_EQ(recorder.actions.size(), 1u);
  const manager::QueryBinding* binding =
      monitor_.manager().binding(recorder.actions[0].binding);
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->trigger_key, "Twice.Hit");
  EXPECT_EQ(monitor_.trigger_engine().firings(), 1u);
  EXPECT_EQ(monitor_.stats().notifications, 1u);
}

// ----------------------------------------------------- Stream golden --

/// The notification stream of tests/stream_golden.h's population: every
/// mail's (to, subject, body, seq) in outbox order, and the reporter's
/// received count. A change to match order, dedup, payload sharing or
/// report order moves it.
constexpr char kGoldenStream[] =
    "mails=824 received=1273 digest=9413162cc5b6eb43";

TEST(NotificationStreamTest, GoldenDigestAtOneAndTwoThreadShards) {
  for (size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    XylemeMonitor::Options options;
    options.num_shards = shards;
    EXPECT_EQ(testing::RunGoldenStream(options), kGoldenStream);
  }
}

}  // namespace
}  // namespace xymon::system
