#include <gtest/gtest.h>

#include "src/reporter/outbox.h"
#include "src/reporter/reporter.h"
#include "src/trigger/trigger_engine.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace xymon {
namespace {

using reporter::Notification;
using reporter::Outbox;
using reporter::Payload;
using reporter::Reporter;
using sublang::Frequency;
using sublang::ReportCondition;
using sublang::ReportSpec;
using trigger::TriggerEngine;

// ----------------------------------------------------------- TriggerEngine --

TEST(TriggerEngineTest, PeriodicFiresOnSchedule) {
  TriggerEngine engine;
  int fired = 0;
  engine.AddPeriodic(0, 100, [&](Timestamp) { ++fired; });
  engine.Tick(50);
  EXPECT_EQ(fired, 0);
  engine.Tick(100);
  EXPECT_EQ(fired, 1);
  engine.Tick(150);
  EXPECT_EQ(fired, 1);
  engine.Tick(200);
  EXPECT_EQ(fired, 2);
}

TEST(TriggerEngineTest, CatchUpFiresOncePerTick) {
  TriggerEngine engine;
  int fired = 0;
  engine.AddPeriodic(0, 100, [&](Timestamp) { ++fired; });
  engine.Tick(1000);  // Ten periods elapsed.
  EXPECT_EQ(fired, 1);
  engine.Tick(1100);
  EXPECT_EQ(fired, 2);
}

TEST(TriggerEngineTest, NotificationTriggersFireByKey) {
  TriggerEngine engine;
  int a = 0, b = 0;
  engine.AddNotificationTrigger("Sub.Q1", [&](Timestamp) { ++a; });
  engine.AddNotificationTrigger("Sub.Q2", [&](Timestamp) { ++b; });
  engine.NotifyEvent("Sub.Q1", 1);
  engine.NotifyEvent("Sub.Q1", 2);
  engine.NotifyEvent("Other", 3);
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(engine.firings(), 2u);
}

TEST(TriggerEngineTest, RemoveStopsFiring) {
  TriggerEngine engine;
  int fired = 0;
  auto p = engine.AddPeriodic(0, 10, [&](Timestamp) { ++fired; });
  auto n = engine.AddNotificationTrigger("k", [&](Timestamp) { ++fired; });
  ASSERT_TRUE(engine.Remove(p).ok());
  ASSERT_TRUE(engine.Remove(n).ok());
  EXPECT_TRUE(engine.Remove(n).IsNotFound());
  engine.Tick(100);
  engine.NotifyEvent("k", 100);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.trigger_count(), 0u);
}

TEST(TriggerEngineTest, ActionMayRemoveTriggersSafely) {
  TriggerEngine engine;
  TriggerEngine::TriggerId id2 = 0;
  int fired = 0;
  engine.AddNotificationTrigger("k", [&](Timestamp) {
    ++fired;
    (void)engine.Remove(id2);
  });
  id2 = engine.AddNotificationTrigger("k", [&](Timestamp) { ++fired; });
  engine.NotifyEvent("k", 1);
  EXPECT_EQ(fired, 1);  // Second trigger removed by the first's action.
}

// ----------------------------------------------------------------- Outbox --

TEST(OutboxTest, UnlimitedSendsImmediately) {
  Outbox outbox;
  outbox.Send({"a@x", "subj", "body", 100});
  EXPECT_EQ(outbox.sent_count(), 1u);
  ASSERT_NE(outbox.last(), nullptr);
  EXPECT_EQ(outbox.last()->to, "a@x");
  EXPECT_EQ(outbox.last()->body, "body");
}

TEST(OutboxTest, DailyCapacityQueuesOverflow) {
  Outbox outbox(Outbox::Options{2, true});
  for (int i = 0; i < 5; ++i) {
    outbox.Send({"u@x", "s", "b", 100});
  }
  EXPECT_EQ(outbox.sent_count(), 2u);
  EXPECT_EQ(outbox.queued_count(), 3u);
  // Next day, the backlog drains within capacity.
  outbox.Drain(100 + kDay);
  EXPECT_EQ(outbox.sent_count(), 4u);
  EXPECT_EQ(outbox.queued_count(), 1u);
  outbox.Drain(100 + 2 * kDay);
  EXPECT_EQ(outbox.sent_count(), 5u);
}

TEST(OutboxTest, BodylessModeCountsOnly) {
  Outbox outbox(Outbox::Options{0, false});
  outbox.Send({"u@x", "s", "big body", 1});
  EXPECT_EQ(outbox.sent_count(), 1u);
  EXPECT_TRUE(outbox.last()->body.empty());
}

// --------------------------------------------------------------- Reporter --

class ReporterTest : public ::testing::Test {
 protected:
  ReporterTest() : reporter_(&outbox_, nullptr) {}

  static ReportSpec CountSpec(uint64_t threshold) {
    ReportSpec spec;
    ReportCondition::Atom atom;
    atom.kind = ReportCondition::Atom::Kind::kCount;
    atom.cmp = alerters::Comparator::kGe;
    atom.count = threshold;
    spec.when.atoms.push_back(atom);
    return spec;
  }

  static Notification Notif(const std::string& sub, const std::string& query,
                            Timestamp t) {
    return Notification{sub, query, "<UpdatedPage url=\"http://x\"/>", t};
  }

  Outbox outbox_;
  Reporter reporter_;
};

TEST_F(ReporterTest, CountConditionBuffersThenFires) {
  ASSERT_TRUE(reporter_.AddSubscription("S", CountSpec(3), {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", 1));
  reporter_.AddNotification(Notif("S", "q", 2));
  EXPECT_EQ(reporter_.reports_generated(), 0u);
  EXPECT_EQ(reporter_.BufferedCount("S"), 2u);
  reporter_.AddNotification(Notif("S", "q", 3));
  EXPECT_EQ(reporter_.reports_generated(), 1u);
  EXPECT_EQ(reporter_.BufferedCount("S"), 0u);  // Report empties the buffer.
  EXPECT_EQ(outbox_.sent_count(), 1u);
  ASSERT_NE(reporter_.LastReport("S"), nullptr);
  EXPECT_NE(reporter_.LastReport("S")->xml.find("UpdatedPage"),
            std::string::npos);
}

TEST_F(ReporterTest, ImmediateFiresPerNotification) {
  ReportSpec spec;
  ReportCondition::Atom atom;
  atom.kind = ReportCondition::Atom::Kind::kImmediate;
  spec.when.atoms.push_back(atom);
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", 1));
  reporter_.AddNotification(Notif("S", "q", 2));
  EXPECT_EQ(reporter_.reports_generated(), 2u);
}

TEST_F(ReporterTest, NamedCountOnlyCountsThatQuery) {
  ReportSpec spec;
  ReportCondition::Atom atom;
  atom.kind = ReportCondition::Atom::Kind::kNamedCount;
  atom.cmp = alerters::Comparator::kGe;
  atom.count = 2;
  atom.query_name = "special";
  spec.when.atoms.push_back(atom);
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "other", 1));
  reporter_.AddNotification(Notif("S", "other", 2));
  reporter_.AddNotification(Notif("S", "special", 3));
  EXPECT_EQ(reporter_.reports_generated(), 0u);
  reporter_.AddNotification(Notif("S", "special", 4));
  EXPECT_EQ(reporter_.reports_generated(), 1u);
}

TEST_F(ReporterTest, PeriodicConditionFiresOnTickWithContent) {
  ReportSpec spec;
  ReportCondition::Atom atom;
  atom.kind = ReportCondition::Atom::Kind::kPeriodic;
  atom.frequency = Frequency::kDaily;
  spec.when.atoms.push_back(atom);
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());

  reporter_.Tick(kDay);  // Empty buffer: no report.
  EXPECT_EQ(reporter_.reports_generated(), 0u);
  // The periodic atom holds as soon as content arrives past the period.
  reporter_.AddNotification(Notif("S", "q", kDay + 1));
  EXPECT_EQ(reporter_.reports_generated(), 1u);
  // Within the next period, notifications only buffer.
  reporter_.AddNotification(Notif("S", "q", kDay + 2));
  EXPECT_EQ(reporter_.reports_generated(), 1u);
  EXPECT_EQ(reporter_.BufferedCount("S"), 1u);
  // The next period boundary flushes on Tick.
  reporter_.Tick(2 * kDay + 2);
  EXPECT_EQ(reporter_.reports_generated(), 2u);
}

TEST_F(ReporterTest, DisjunctionFiresOnAnyAtom) {
  ReportSpec spec = CountSpec(100);
  ReportCondition::Atom imm;
  imm.kind = ReportCondition::Atom::Kind::kImmediate;
  spec.when.atoms.push_back(imm);
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", 1));
  EXPECT_EQ(reporter_.reports_generated(), 1u);  // immediate won.
}

TEST_F(ReporterTest, AtmostCountDropsOverflow) {
  ReportSpec spec = CountSpec(1000);  // Never fires by count.
  spec.atmost_count = 3;
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());
  for (int i = 0; i < 10; ++i) {
    reporter_.AddNotification(Notif("S", "q", i));
  }
  EXPECT_EQ(reporter_.BufferedCount("S"), 3u);
  EXPECT_EQ(reporter_.notifications_dropped(), 7u);
}

TEST_F(ReporterTest, AtmostRateDefersReports) {
  ReportSpec spec = CountSpec(1);  // Fires on every notification...
  spec.atmost_rate = Frequency::kDaily;  // ...but at most daily.
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", 10));
  EXPECT_EQ(reporter_.reports_generated(), 1u);
  reporter_.AddNotification(Notif("S", "q", 20));
  reporter_.AddNotification(Notif("S", "q", 30));
  EXPECT_EQ(reporter_.reports_generated(), 1u);  // Deferred.
  reporter_.Tick(10 + kDay);
  EXPECT_EQ(reporter_.reports_generated(), 2u);  // Pending report released.
  EXPECT_EQ(reporter_.BufferedCount("S"), 0u);
}

TEST_F(ReporterTest, ArchiveRetainsAndGarbageCollects) {
  ReportSpec spec = CountSpec(1);
  spec.archive = Frequency::kWeekly;
  ASSERT_TRUE(reporter_.AddSubscription("S", spec, {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", 0));
  reporter_.AddNotification(Notif("S", "q", kDay));
  EXPECT_EQ(reporter_.ArchivedReports("S").size(), 2u);
  // Just past the first report's retention (second still within).
  reporter_.Tick(kWeek + 2);
  EXPECT_EQ(reporter_.ArchivedReports("S").size(), 1u);
}

TEST_F(ReporterTest, NoArchiveClauseKeepsOnlyLastReport) {
  ASSERT_TRUE(reporter_.AddSubscription("S", CountSpec(1), {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", 1));
  EXPECT_TRUE(reporter_.ArchivedReports("S").empty());
  EXPECT_NE(reporter_.LastReport("S"), nullptr);
}

TEST_F(ReporterTest, VirtualListenersGetCopies) {
  ASSERT_TRUE(reporter_.AddSubscription("Main", CountSpec(100), {"m@x"}, 0).ok());
  ASSERT_TRUE(reporter_.AddSubscription("Virt", CountSpec(2), {"v@x"}, 0).ok());
  ASSERT_TRUE(reporter_.AddVirtualListener("Virt", "Main", "q").ok());

  reporter_.AddNotification(Notif("Main", "q", 1));
  reporter_.AddNotification(Notif("Main", "other", 2));  // Not subscribed.
  EXPECT_EQ(reporter_.BufferedCount("Virt"), 1u);
  reporter_.AddNotification(Notif("Main", "q", 3));
  // Virt reached its own threshold and reported independently of Main.
  EXPECT_EQ(reporter_.reports_generated(), 1u);
  EXPECT_EQ(reporter_.BufferedCount("Main"), 3u);
}

TEST_F(ReporterTest, RemoveSubscriptionStopsDelivery) {
  ASSERT_TRUE(reporter_.AddSubscription("S", CountSpec(1), {"u@x"}, 0).ok());
  ASSERT_TRUE(reporter_.RemoveSubscription("S").ok());
  EXPECT_TRUE(reporter_.RemoveSubscription("S").IsNotFound());
  reporter_.AddNotification(Notif("S", "q", 1));
  EXPECT_EQ(reporter_.reports_generated(), 0u);
}

TEST_F(ReporterTest, DuplicateRegistrationRejected) {
  ASSERT_TRUE(reporter_.AddSubscription("S", CountSpec(1), {"u@x"}, 0).ok());
  EXPECT_TRUE(
      reporter_.AddSubscription("S", CountSpec(2), {"u@x"}, 0)
          .status()
          .IsAlreadyExists());
}

TEST_F(ReporterTest, MalformedPayloadPreservedAsRaw) {
  ASSERT_TRUE(reporter_.AddSubscription("S", CountSpec(1), {"u@x"}, 0).ok());
  reporter_.AddNotification(Notification{"S", "q", "<broken", 1});
  ASSERT_NE(reporter_.LastReport("S"), nullptr);
  EXPECT_NE(reporter_.LastReport("S")->xml.find("raw"), std::string::npos);
}

TEST_F(ReporterTest, ReportXmlCarriesSubscriptionAndDate) {
  ASSERT_TRUE(reporter_.AddSubscription("S", CountSpec(1), {"u@x"}, 0).ok());
  reporter_.AddNotification(Notif("S", "q", kDay));
  const std::string& xml = reporter_.LastReport("S")->xml;
  EXPECT_NE(xml.find("subscription=\"S\""), std::string::npos);
  EXPECT_NE(xml.find("1970-01-02"), std::string::npos);
}

// -------------------------------------------- Report body from renderings --

/// The report body the Reporter assembled before payloads were rendered one
/// by one: every buffered payload parsed into one `<Report>` tree (malformed
/// ones as `<raw>`, empty ones dropped), serialized with indentation.
std::string AssembledTreeBody(const std::string& name, Timestamp now,
                              const std::vector<std::string>& payloads) {
  auto root = xml::Node::Element("Report");
  root->SetAttribute("subscription", name);
  root->SetAttribute("date", FormatTimestamp(now));
  for (const std::string& payload : payloads) {
    auto parsed = xml::ParseFragment(payload);
    if (parsed.ok()) {
      root->AddChild(std::move(parsed).value());
    } else if (!payload.empty()) {
      root->AddElement("raw", payload);
    }
  }
  return xml::Serialize(*root, {.indent = true});
}

TEST_F(ReporterTest, BodyFromRenderingsEqualsTheSerializedTree) {
  const std::vector<std::string> payloads = {
      "<a><b><c x=\"1\"/></b><d/><e>text</e></a>",  // nested elements
      "<name>camera &amp; co</name>",                 // element with text
      "<p>mixed <b>bold</b> tail</p>",                // mixed content
      "<n v=\"a&quot;b&lt;c&amp;d\" w='x&gt;y'/>",     // escaped attributes
      "",                                             // empty payload
      "<broken & <stuff",                             // malformed payload
  };
  // The name and date land in attributes: the name needs escaping too.
  const std::string name = "S&\"<x>";
  ASSERT_TRUE(
      reporter_.AddSubscription(name, CountSpec(payloads.size()), {"u@x"}, 0)
          .ok());
  for (const std::string& payload : payloads) {
    reporter_.AddNotification(Notification{name, "q", payload, kDay});
  }
  ASSERT_EQ(outbox_.sent_count(), 1u);
  EXPECT_EQ(outbox_.last()->body, AssembledTreeBody(name, kDay, payloads));
  EXPECT_EQ(reporter_.LastReport(name)->xml, outbox_.last()->body);
}

TEST_F(ReporterTest, EmptyReportsAreSelfClosingLikeTheTree) {
  // An empty buffer (a `count >= 0` condition holds on a Tick) and a buffer
  // holding only an empty payload both report an empty <Report/> element.
  ASSERT_TRUE(reporter_.AddSubscription("Empty", CountSpec(0), {"u@x"}, 0).ok());
  reporter_.Tick(kDay);
  ASSERT_EQ(outbox_.sent_count(), 1u);
  EXPECT_EQ(outbox_.last()->body, AssembledTreeBody("Empty", kDay, {}));

  ASSERT_TRUE(reporter_.AddSubscription("Blank", CountSpec(1), {"u@x"}, 0).ok());
  reporter_.AddNotification(Notification{"Blank", "q", "", 2 * kDay});
  EXPECT_EQ(outbox_.last()->body, AssembledTreeBody("Blank", 2 * kDay, {""}));
}

TEST_F(ReporterTest, SharedPayloadRendersOnceForEverySubscription) {
  ASSERT_TRUE(reporter_.AddSubscription("A", CountSpec(2), {"a@x"}, 0).ok());
  ASSERT_TRUE(reporter_.AddSubscription("B", CountSpec(2), {"b@x"}, 0).ok());
  Payload shared("<Hit url=\"http://x/?a&amp;b\"><n>1</n></Hit>");
  Payload own_a("<Own>a</Own>");
  reporter_.AddNotification(Notification{"A", "q", shared, 5});
  reporter_.AddNotification(Notification{"B", "q", shared, 5});
  reporter_.AddNotification(Notification{"A", "q", own_a, 6});
  reporter_.AddNotification(Notification{"B", "q", shared, 6});

  // The rendering is cached in the shared object, not in one handle.
  Payload copy = shared;
  EXPECT_TRUE(copy.SharesWith(shared));
  EXPECT_EQ(&copy.ReportRendering(), &shared.ReportRendering());
  ASSERT_EQ(outbox_.sent_count(), 2u);
  EXPECT_EQ(reporter_.LastReport("A")->xml,
            AssembledTreeBody("A", 6, {shared.xml(), own_a.xml()}));
  EXPECT_EQ(reporter_.LastReport("B")->xml,
            AssembledTreeBody("B", 6, {shared.xml(), shared.xml()}));
}

TEST(ReporterQueryTest, ReportQueryStillSeesSharedPayloads) {
  // A payload shared by a plain subscription and a report-query one: the
  // plain body comes from renderings, the query runs over the tree.
  Outbox outbox;
  query::QueryEngine engine(nullptr);
  Reporter reporter(&outbox, &engine);
  ReportSpec spec;
  ReportCondition::Atom atom;
  atom.kind = ReportCondition::Atom::Kind::kCount;
  atom.cmp = alerters::Comparator::kGe;
  atom.count = 2;
  spec.when.atoms.push_back(atom);
  ASSERT_TRUE(reporter.AddSubscription("Plain", spec, {"u@x"}, 0).ok());
  spec.query_text = "select X from self//UpdatedPage X";
  ASSERT_TRUE(reporter.AddSubscription("Query", spec, {"u@x"}, 0).ok());

  Payload page("<UpdatedPage url=\"http://a\"/>");
  Payload member("<Member><name>x</name></Member>");
  for (const char* sub : {"Plain", "Query"}) {
    reporter.AddNotification(Notification{sub, "q", page, 1});
    reporter.AddNotification(Notification{sub, "q", member, 1});
  }
  ASSERT_EQ(reporter.reports_generated(), 2u);
  EXPECT_EQ(reporter.LastReport("Plain")->xml,
            AssembledTreeBody("Plain", 1, {page.xml(), member.xml()}));
  const std::string& body = reporter.LastReport("Query")->xml;
  EXPECT_NE(body.find("http://a"), std::string::npos);
  EXPECT_EQ(body.find("Member"), std::string::npos) << body;
}

TEST(ReporterQueryTest, ReportQueryFiltersTheBuffer) {
  // The Xyleme Reporter step (§3): the report query runs over the
  // notification buffer and shapes the delivered document.
  Outbox outbox;
  query::QueryEngine engine(nullptr);
  Reporter reporter(&outbox, &engine);

  ReportSpec spec;
  ReportCondition::Atom atom;
  atom.kind = ReportCondition::Atom::Kind::kCount;
  atom.cmp = alerters::Comparator::kGe;
  atom.count = 3;
  spec.when.atoms.push_back(atom);
  // Keep only the UpdatedPage notifications, drop the Member ones.
  spec.query_text = "select X from self//UpdatedPage X";
  ASSERT_TRUE(reporter.AddSubscription("S", spec, {"u@x"}, 0).ok());

  reporter.AddNotification(
      Notification{"S", "q", "<UpdatedPage url=\"http://a\"/>", 1});
  reporter.AddNotification(
      Notification{"S", "q", "<Member><name>x</name></Member>", 2});
  reporter.AddNotification(
      Notification{"S", "q", "<UpdatedPage url=\"http://b\"/>", 3});

  ASSERT_EQ(reporter.reports_generated(), 1u);
  const std::string& body = outbox.last()->body;
  EXPECT_NE(body.find("http://a"), std::string::npos);
  EXPECT_NE(body.find("http://b"), std::string::npos);
  EXPECT_EQ(body.find("Member"), std::string::npos) << body;
}

TEST(ReporterQueryTest, BrokenReportQueryFallsBackToRawBuffer) {
  Outbox outbox;
  query::QueryEngine engine(nullptr);
  Reporter reporter(&outbox, &engine);
  ReportSpec spec;
  ReportCondition::Atom atom;
  atom.kind = ReportCondition::Atom::Kind::kImmediate;
  spec.when.atoms.push_back(atom);
  spec.query_text = "select ~~~ garbage";
  ASSERT_TRUE(reporter.AddSubscription("S", spec, {"u@x"}, 0).ok());
  reporter.AddNotification(Notification{"S", "q", "<n>data</n>", 1});
  // The data must not be swallowed by a broken query.
  EXPECT_NE(outbox.last()->body.find("data"), std::string::npos);
}

// -------------------------------------------------------------- WebPortal --

TEST(WebPortalTest, PublishAndGetByPath) {
  reporter::WebPortal portal;
  std::string path = portal.Publish("Sub", 100, "<Report n=\"1\"/>");
  EXPECT_EQ(path, "/reports/Sub/0");
  portal.Publish("Sub", 200, "<Report n=\"2\"/>");
  EXPECT_EQ(portal.Get("/reports/Sub/0"), "<Report n=\"1\"/>");
  EXPECT_EQ(portal.Get("/reports/Sub/1"), "<Report n=\"2\"/>");
  EXPECT_EQ(portal.Get("/reports/Sub/latest"), "<Report n=\"2\"/>");
  EXPECT_EQ(portal.Get("/reports/Sub/9"), std::nullopt);
  EXPECT_EQ(portal.Get("/reports/Nope/0"), std::nullopt);
  EXPECT_EQ(portal.Get("/other/x"), std::nullopt);
  EXPECT_EQ(portal.published_count(), 2u);
}

TEST(WebPortalTest, RetentionDropsOldReportsButKeepsSequence) {
  reporter::WebPortal portal(/*max_per_subscription=*/2);
  portal.Publish("S", 1, "a");
  portal.Publish("S", 2, "b");
  portal.Publish("S", 3, "c");
  EXPECT_EQ(portal.ReportCount("S"), 2u);
  EXPECT_EQ(portal.Get("/reports/S/0"), std::nullopt);  // Fell off.
  EXPECT_EQ(portal.Get("/reports/S/2"), "c");
}

TEST(WebPortalTest, IndexListsEverything) {
  reporter::WebPortal portal;
  portal.Publish("Alpha", 1, "x");
  portal.Publish("Beta", 2, "y");
  std::string index = portal.RenderIndex();
  EXPECT_NE(index.find("Alpha"), std::string::npos);
  EXPECT_NE(index.find("/reports/Beta/0"), std::string::npos);
}

TEST_F(ReporterTest, PublishClauseRoutesToPortalNotOutbox) {
  reporter::WebPortal portal;
  reporter_.set_web_portal(&portal);
  ReportSpec spec = CountSpec(1);
  spec.publish_web = true;
  ASSERT_TRUE(reporter_.AddSubscription("Web", spec, {"u@x"}, 0).ok());
  ASSERT_TRUE(reporter_.AddSubscription("Mail", CountSpec(1), {"m@x"}, 0).ok());

  reporter_.AddNotification(Notif("Web", "q", 1));
  reporter_.AddNotification(Notif("Mail", "q", 2));
  EXPECT_EQ(portal.published_count(), 1u);
  EXPECT_EQ(outbox_.sent_count(), 1u);
  EXPECT_EQ(outbox_.last()->to, "m@x");
  ASSERT_TRUE(portal.Get("/reports/Web/latest").has_value());
}

}  // namespace
}  // namespace xymon
