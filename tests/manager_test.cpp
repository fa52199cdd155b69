#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/manager/subscription_manager.h"
#include "src/mqp/aes_matcher.h"
#include "src/storage/persistent_map.h"

namespace xymon::manager {
namespace {

constexpr char kSimpleSub[] = R"(
subscription Simple
monitoring
select default
where URL extends "http://site.org/" and new Product
report when immediate
)";

constexpr char kOtherSub[] = R"(
subscription Other
monitoring
select default
where URL extends "http://site.org/" and updated Product
report when immediate
)";

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : pipeline_(&url_alerter_, &xml_alerter_, &html_alerter_),
        query_engine_(&warehouse_),
        reporter_(&outbox_, &query_engine_),
        manager_(SubscriptionManager::Components{
            {{&mqp_, &url_alerter_, &xml_alerter_, &html_alerter_, &pipeline_}},
            &trigger_engine_,
            &reporter_,
            &query_engine_,
            &clock_}) {}

  SimClock clock_;
  warehouse::Warehouse warehouse_;
  mqp::MonitoringQueryProcessor mqp_;
  alerters::UrlAlerter url_alerter_;
  alerters::XmlAlerter xml_alerter_;
  alerters::HtmlAlerter html_alerter_;
  alerters::AlertPipeline pipeline_;
  trigger::TriggerEngine trigger_engine_;
  reporter::Outbox outbox_;
  query::QueryEngine query_engine_;
  reporter::Reporter reporter_;
  SubscriptionManager manager_;
};

TEST_F(ManagerTest, SubscribeRegistersEverything) {
  auto name = manager_.Subscribe(kSimpleSub, "u@x");
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  EXPECT_EQ(*name, "Simple");
  EXPECT_EQ(manager_.subscription_count(), 1u);
  EXPECT_EQ(manager_.atomic_event_count(), 2u);
  EXPECT_EQ(url_alerter_.condition_count(), 1u);
  EXPECT_EQ(xml_alerter_.condition_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 1u);
}

TEST_F(ManagerTest, ConditionsSharedAcrossSubscriptions) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  ASSERT_TRUE(manager_.Subscribe(kOtherSub, "b@x").ok());
  // "URL extends http://site.org/" is shared: 2 + 2 conditions but only 3
  // distinct atomic events.
  EXPECT_EQ(manager_.atomic_event_count(), 3u);
  EXPECT_EQ(url_alerter_.condition_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 2u);
}

TEST_F(ManagerTest, UnsubscribeReleasesSharedConditionsLazily) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  ASSERT_TRUE(manager_.Subscribe(kOtherSub, "b@x").ok());
  ASSERT_TRUE(manager_.Unsubscribe("Simple").ok());
  // The shared URL condition survives (Other still needs it).
  EXPECT_EQ(manager_.atomic_event_count(), 2u);
  EXPECT_EQ(url_alerter_.condition_count(), 1u);
  ASSERT_TRUE(manager_.Unsubscribe("Other").ok());
  EXPECT_EQ(manager_.atomic_event_count(), 0u);
  EXPECT_EQ(url_alerter_.condition_count(), 0u);
  EXPECT_EQ(mqp_.matcher().size(), 0u);
  EXPECT_TRUE(manager_.Unsubscribe("Other").IsNotFound());
}

TEST_F(ManagerTest, DuplicateNameRejected) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "a@x").ok());
  EXPECT_TRUE(manager_.Subscribe(kSimpleSub, "b@x").status().IsAlreadyExists());
}

TEST_F(ManagerTest, InvalidSubscriptionRejectedAtomically) {
  // Weak-only where clause: rejected by the validator; nothing registered.
  auto r = manager_.Subscribe(R"(
subscription Bad
monitoring
select default
where modified self
report when immediate
)",
                              "u@x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(manager_.subscription_count(), 0u);
  EXPECT_EQ(manager_.atomic_event_count(), 0u);
  EXPECT_EQ(url_alerter_.condition_count(), 0u);
}

TEST_F(ManagerTest, BrokenContinuousQueryRolledBack) {
  auto r = manager_.Subscribe(R"(
subscription Bad
monitoring
select default
where URL extends "http://site.org/"
continuous Q
select ~~~nonsense~~~
when daily
report when immediate
)",
                              "u@x");
  EXPECT_FALSE(r.ok());
  // The monitoring query's registrations must have been rolled back.
  EXPECT_EQ(manager_.atomic_event_count(), 0u);
  EXPECT_EQ(mqp_.matcher().size(), 0u);
  EXPECT_EQ(trigger_engine_.trigger_count(), 0u);
}

TEST_F(ManagerTest, InternedEventListsItsBindingsNewestFirst) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  ASSERT_EQ(manager_.BindingsOf(1).size(), 1u);
  const QueryBinding* binding = manager_.binding(manager_.BindingsOf(1)[0]);
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->subscription, "Simple");
  EXPECT_EQ(binding->query_name, "m1");
  EXPECT_EQ(binding->trigger_key, "Simple.m1");
  EXPECT_EQ(binding->complex_event, 1u);
  EXPECT_FALSE(binding->shares_query);
  EXPECT_FALSE(binding->listened);
  EXPECT_TRUE(manager_.BindingsOf(999).empty());
  EXPECT_TRUE(manager_.BindingsOf(~mqp::ComplexEventId{0}).empty());
  EXPECT_EQ(manager_.binding(999), nullptr);

  // The same conditions in another subscription: one more binding under the
  // same complex event, listed first.
  std::string twin = kSimpleSub;
  twin.replace(twin.find("Simple"), 6, "Twin");
  ASSERT_TRUE(manager_.Subscribe(twin, "t@x").ok());
  EXPECT_EQ(mqp_.matcher().size(), 1u);
  ASSERT_EQ(manager_.BindingsOf(1).size(), 2u);
  EXPECT_EQ(manager_.binding(manager_.BindingsOf(1)[0])->subscription, "Twin");
  EXPECT_EQ(manager_.binding(manager_.BindingsOf(1)[1])->subscription,
            "Simple");
  // Equal recipes share one id.
  EXPECT_EQ(manager_.binding(manager_.BindingsOf(1)[0])->recipe,
            manager_.binding(manager_.BindingsOf(1)[1])->recipe);

  // Re-adding a retracted binding puts it first again.
  ASSERT_TRUE(manager_.Unsubscribe("Simple").ok());
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  ASSERT_EQ(manager_.BindingsOf(1).size(), 2u);
  EXPECT_EQ(manager_.binding(manager_.BindingsOf(1)[0])->subscription,
            "Simple");

  // The set is retracted with its last binding.
  ASSERT_TRUE(manager_.Unsubscribe("Simple").ok());
  EXPECT_EQ(mqp_.matcher().size(), 1u);
  ASSERT_TRUE(manager_.Unsubscribe("Twin").ok());
  EXPECT_EQ(mqp_.matcher().size(), 0u);
  EXPECT_TRUE(manager_.BindingsOf(1).empty());
}

TEST_F(ManagerTest, InternedMatchOrderEqualsOneEventPerBinding) {
  // The order contract: expanding each interned match into its bindings,
  // newest first, gives the order an MQP holding one complex event per
  // binding reports. The reference replays the same registration history
  // (codes are handed out in first-use order: the URL prefix gets 1, word
  // k gets k + 2), including a retraction and a re-registration. With 11
  // words the first repeated set finds the URL's child table at its growth
  // threshold, so the order also depends on every binding's registration
  // reaching the tables.
  constexpr int kWords = 11;
  auto text = [](int i) {
    const std::string number = std::to_string(i);
    const std::string word = std::to_string(i % kWords);
    return "subscription N" + number +
           "\nmonitoring M\nselect default\n"
           "where URL extends \"http://site.org/\" and self contains \"w" +
           word + "\"\nreport when immediate\n";
  };
  mqp::AesMatcher reference;
  std::map<mqp::ComplexEventId, std::string> reference_names;
  std::map<std::string, mqp::ComplexEventId> reference_ids;
  mqp::ComplexEventId next_reference = 1;
  auto subscribe = [&](int i) {
    ASSERT_TRUE(manager_.Subscribe(text(i), "u@x").ok());
    const std::string number = std::to_string(i);
    const std::string name = "N" + number;
    const mqp::ComplexEventId id = next_reference++;
    ASSERT_TRUE(reference
                    .Insert(id, {1, static_cast<mqp::AtomicEvent>(
                                        i % kWords + 2)})
                    .ok());
    reference_names[id] = name;
    reference_ids[name] = id;
  };
  for (int i = 0; i < 5 * kWords; ++i) subscribe(i);
  ASSERT_TRUE(manager_.Unsubscribe("N3").ok());
  ASSERT_TRUE(reference.Erase(reference_ids["N3"]).ok());
  subscribe(3);
  EXPECT_EQ(mqp_.matcher().size(), static_cast<size_t>(kWords));

  mqp::EventSet document = {1};
  for (int k = 0; k < kWords; ++k) document.push_back(k + 2);
  std::vector<mqp::ComplexEventId> matched;
  mqp_.matcher().Match(document, &matched);
  std::vector<std::string> got;
  for (mqp::ComplexEventId id : matched) {
    for (BindingId b : manager_.BindingsOf(id)) {
      got.push_back(manager_.binding(b)->subscription);
    }
  }
  matched.clear();
  reference.Match(document, &matched);
  std::vector<std::string> want;
  for (mqp::ComplexEventId id : matched) want.push_back(reference_names[id]);
  ASSERT_EQ(want.size(), static_cast<size_t>(5 * kWords));
  EXPECT_EQ(got, want);
}

TEST_F(ManagerTest, ListenedFlagFollowsNotificationTriggers) {
  // A binding raises trigger events only while a continuous query waits on
  // its query, whichever of the two subscriptions registered first.
  constexpr char kListener[] = R"(
subscription Listener
continuous C
select m from any/museum m
when Simple.m1
report when immediate
)";
  // Simple's one binding, under complex event `id`.
  auto listened = [&](mqp::ComplexEventId id) {
    std::span<const BindingId> bindings = manager_.BindingsOf(id);
    EXPECT_EQ(bindings.size(), 1u);
    return !bindings.empty() && manager_.binding(bindings[0])->listened;
  };
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  EXPECT_FALSE(listened(1));
  ASSERT_TRUE(manager_.Subscribe(kListener, "l@x").ok());
  EXPECT_TRUE(listened(1));
  ASSERT_TRUE(manager_.Unsubscribe("Listener").ok());
  EXPECT_FALSE(listened(1));
  // Listener first: Simple's new binding (its set re-registered as complex
  // event 2) is flagged as it subscribes.
  ASSERT_TRUE(manager_.Unsubscribe("Simple").ok());
  ASSERT_TRUE(manager_.Subscribe(kListener, "l@x").ok());
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  EXPECT_TRUE(listened(2));
}

TEST_F(ManagerTest, FailedSubscribeRestoresEveryIdCounter) {
  // A subscription that fails after its monitoring query took fresh codes,
  // a complex event and a binding leaves no trace in the ids handed out
  // next: they are those of a manager that never saw it.
  SimClock clock;
  warehouse::Warehouse warehouse;
  mqp::MonitoringQueryProcessor mqp;
  alerters::UrlAlerter url;
  alerters::XmlAlerter xml;
  alerters::HtmlAlerter html;
  alerters::AlertPipeline pipeline(&url, &xml, &html);
  trigger::TriggerEngine trigger_engine;
  reporter::Outbox outbox;
  query::QueryEngine query_engine(&warehouse);
  reporter::Reporter reporter(&outbox, &query_engine);
  SubscriptionManager fresh(SubscriptionManager::Components{
      {{&mqp, &url, &xml, &html, &pipeline}},
      &trigger_engine,
      &reporter,
      &query_engine,
      &clock});

  EXPECT_FALSE(manager_
                   .Subscribe(R"(
subscription Bad
monitoring
select default
where URL extends "http://bad.org/" and self contains "zebra"
continuous Q
select ~~~nonsense~~~
when daily
report when immediate
)",
                              "u@x")
                   .ok());
  for (SubscriptionManager* m : {&manager_, &fresh}) {
    ASSERT_TRUE(m->Subscribe(kSimpleSub, "u@x").ok());
    ASSERT_TRUE(m->Subscribe(kOtherSub, "u@x").ok());
  }
  for (mqp::ComplexEventId id : {1u, 2u}) {
    SCOPED_TRACE(id);
    ASSERT_EQ(manager_.BindingsOf(id).size(), 1u);
    ASSERT_EQ(fresh.BindingsOf(id).size(), 1u);
    EXPECT_EQ(manager_.BindingsOf(id)[0], fresh.BindingsOf(id)[0]);
  }
  std::vector<mqp::ComplexEventId> got, want;
  mqp_.matcher().Match({1, 2, 3}, &got);
  mqp.matcher().Match({1, 2, 3}, &want);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 2u);
}

TEST_F(ManagerTest, VirtualRequiresExistingTarget) {
  auto bad = manager_.Subscribe("subscription V\nvirtual Nope.Q\n", "v@x");
  EXPECT_TRUE(bad.status().IsNotFound());
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  auto good = manager_.Subscribe("subscription V\nvirtual Simple.m1\n", "v@x");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST_F(ManagerTest, RefreshHintsExposed) {
  ASSERT_TRUE(manager_
                  .Subscribe(R"(
subscription R
monitoring
select default
where URL extends "http://site.org/"
refresh "http://site.org/hot.xml" daily
report when immediate
)",
                             "u@x")
                  .ok());
  ASSERT_EQ(manager_.refresh_hints().size(), 1u);
  EXPECT_EQ(manager_.refresh_hints().at("http://site.org/hot.xml"), kDay);
}

TEST_F(ManagerTest, ContinuousQueryWiredToTriggerEngine) {
  ASSERT_TRUE(manager_
                  .Subscribe(R"(
subscription C
continuous Counter
select m from any/museum m
when daily
report when immediate
)",
                             "u@x")
                  .ok());
  EXPECT_EQ(trigger_engine_.trigger_count(), 1u);
  clock_.Advance(kDay);
  trigger_engine_.Tick(clock_.Now());
  // Empty warehouse → empty result → still a notification (non-delta).
  EXPECT_EQ(reporter_.reports_generated(), 1u);
}


TEST_F(ManagerTest, ModifySwapsDefinitionAtomically) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "u@x").ok());
  ASSERT_EQ(mqp_.matcher().size(), 1u);

  // Valid modification: same name, different conditions.
  ASSERT_TRUE(manager_
                  .Modify("Simple", R"(
subscription Simple
monitoring
select default
where URL extends "http://elsewhere.org/" and deleted Product
report when immediate
)")
                  .ok());
  EXPECT_EQ(manager_.subscription_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 1u);
  EXPECT_EQ(manager_.atomic_event_count(), 2u);

  // Renaming through Modify is rejected.
  EXPECT_TRUE(manager_.Modify("Simple", kOtherSub).IsInvalidArgument());
  // Unknown subscription.
  EXPECT_TRUE(manager_.Modify("Ghost", kSimpleSub).IsNotFound());
  // Invalid replacement: the old definition survives.
  EXPECT_FALSE(manager_
                   .Modify("Simple", R"(
subscription Simple
monitoring
select default
where modified self
report when immediate
)")
                   .ok());
  EXPECT_EQ(manager_.subscription_count(), 1u);
  EXPECT_EQ(mqp_.matcher().size(), 1u);
}


TEST_F(ManagerTest, AddRecipientDeliversToAll) {
  ASSERT_TRUE(manager_.Subscribe(kSimpleSub, "first@x").ok());
  ASSERT_TRUE(manager_.AddRecipient("Simple", "second@x").ok());
  EXPECT_TRUE(manager_.AddRecipient("Simple", "second@x").IsAlreadyExists());
  EXPECT_TRUE(manager_.AddRecipient("Ghost", "x@x").IsNotFound());

  // Drive one notification through the reporter directly.
  reporter_.AddNotification(
      reporter::Notification{"Simple", "m1", "<n/>", 1});
  ASSERT_EQ(outbox_.sent_count(), 2u);
  std::set<std::string> to;
  for (const auto& mail : outbox_.sent()) to.insert(mail.to);
  EXPECT_EQ(to, (std::set<std::string>{"first@x", "second@x"}));
}


TEST_F(ManagerTest, SubscribeAsHonorsUserPrivileges) {
  UserRegistry users;
  ASSERT_TRUE(users.AddUser({"alice", "alice@x", /*privileged=*/false}).ok());
  ASSERT_TRUE(users.AddUser({"root", "root@x", /*privileged=*/true}).ok());
  EXPECT_TRUE(users.AddUser({"alice", "dup@x", false}).IsAlreadyExists());
  EXPECT_TRUE(users.AddUser({"", "", false}).IsInvalidArgument());

  sublang::ValidatorOptions opts;
  opts.max_cost = 50;  // Hourly continuous queries cost far more.
  SubscriptionManager manager(
      SubscriptionManager::Components{
          {{&mqp_, &url_alerter_, &xml_alerter_, &html_alerter_, &pipeline_}},
          &trigger_engine_,
          &reporter_,
          &query_engine_,
          &clock_},
      opts);
  manager.set_user_registry(&users);

  constexpr char kExpensive[] = R"(
subscription Expensive
continuous Q
select m from any/museum m
when hourly
report when immediate
)";
  // Unknown user / unprivileged user / privileged user.
  EXPECT_TRUE(manager.SubscribeAs("ghost", kExpensive).status().IsNotFound());
  EXPECT_TRUE(manager.SubscribeAs("alice", kExpensive)
                  .status()
                  .IsResourceExhausted());
  auto ok = manager.SubscribeAs("root", kExpensive);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  // Cheap subscriptions pass for everyone.
  auto cheap = manager.SubscribeAs("alice", kSimpleSub);
  EXPECT_TRUE(cheap.ok()) << cheap.status().ToString();
}

// One shard's detection structures, as the manager sees them.
struct ReplicaStructures {
  mqp::MonitoringQueryProcessor mqp;
  alerters::UrlAlerter url_alerter;
  alerters::XmlAlerter xml_alerter;
  alerters::HtmlAlerter html_alerter;
  alerters::AlertPipeline pipeline{&url_alerter, &xml_alerter, &html_alerter};

  SubscriptionManager::DetectionReplica replica() {
    return {&mqp, &url_alerter, &xml_alerter, &html_alerter, &pipeline};
  }
};

/// Asserts that `got` holds the same matcher and alerter registrations as
/// `want`, down to the AES structure.
void ExpectSameStructures(const ReplicaStructures& got,
                          const ReplicaStructures& want) {
  EXPECT_EQ(got.mqp.matcher().size(), want.mqp.matcher().size());
  EXPECT_EQ(got.url_alerter.condition_count(),
            want.url_alerter.condition_count());
  EXPECT_EQ(got.xml_alerter.condition_count(),
            want.xml_alerter.condition_count());
  EXPECT_EQ(got.html_alerter.condition_count(),
            want.html_alerter.condition_count());
  const auto* got_aes =
      dynamic_cast<const mqp::AesMatcher*>(&got.mqp.matcher());
  const auto* want_aes =
      dynamic_cast<const mqp::AesMatcher*>(&want.mqp.matcher());
  ASSERT_NE(got_aes, nullptr);
  ASSERT_NE(want_aes, nullptr);
  mqp::AesMatcher::StructureStats g = got_aes->CollectStructureStats();
  mqp::AesMatcher::StructureStats w = want_aes->CollectStructureStats();
  EXPECT_EQ(g.tables_per_level, w.tables_per_level);
  EXPECT_EQ(g.cells_per_level, w.cells_per_level);
  EXPECT_EQ(g.marks_per_level, w.marks_per_level);
  EXPECT_EQ(g.max_depth, w.max_depth);
  EXPECT_EQ(g.avg_substructure_cells, w.avg_substructure_cells);
  EXPECT_EQ(g.max_substructure_cells, w.max_substructure_cells);
}

/// A manager fanning out to several detection replicas, as it does for a
/// sharded pipeline.
class ReplicatedManagerTest : public ::testing::Test {
 protected:
  ReplicatedManagerTest()
      : query_engine_(&warehouse_), reporter_(&outbox_, &query_engine_) {
    for (int i = 0; i < 2; ++i) {
      replicas_.push_back(std::make_unique<ReplicaStructures>());
    }
    manager_ = std::make_unique<SubscriptionManager>(Components());
  }

  SubscriptionManager::Components Components() {
    SubscriptionManager::Components components{
        {}, &trigger_engine_, &reporter_, &query_engine_, &clock_};
    for (auto& r : replicas_) components.replicas.push_back(r->replica());
    return components;
  }

  SimClock clock_;
  warehouse::Warehouse warehouse_;
  trigger::TriggerEngine trigger_engine_;
  reporter::Outbox outbox_;
  query::QueryEngine query_engine_;
  reporter::Reporter reporter_;
  std::vector<std::unique_ptr<ReplicaStructures>> replicas_;
  std::unique_ptr<SubscriptionManager> manager_;
};

TEST_F(ReplicatedManagerTest, FailedFanOutRollsBackTheReplicasItReached) {
  // The manager's first complex event gets id 1. Replica 1 already holding
  // it fails the fan-out after replica 0 accepted the registration.
  ASSERT_TRUE(replicas_[1]->mqp.Register(1, {1, 2}).ok());

  auto name = manager_->Subscribe(kSimpleSub, "u@x");
  EXPECT_TRUE(name.status().IsAlreadyExists()) << name.status().ToString();
  EXPECT_EQ(manager_->subscription_count(), 0u);
  EXPECT_EQ(manager_->atomic_event_count(), 0u);
  // Replica 0 is back to empty: no complex event, no URL or XML condition.
  EXPECT_EQ(replicas_[0]->mqp.matcher().size(), 0u);
  EXPECT_EQ(replicas_[0]->url_alerter.condition_count(), 0u);
  EXPECT_EQ(replicas_[0]->xml_alerter.condition_count(), 0u);
  // Replica 1 keeps only its own registration.
  EXPECT_EQ(replicas_[1]->mqp.matcher().size(), 1u);
  EXPECT_EQ(replicas_[1]->url_alerter.condition_count(), 0u);
  EXPECT_EQ(replicas_[1]->xml_alerter.condition_count(), 0u);
}

TEST_F(ReplicatedManagerTest, RebindReplicaReplaysEveryLiveRegistration) {
  // Super's event set extends Simple's, so Simple's AES cells stay on a live
  // path when it is unsubscribed. (Erase only unlinks an event's mark and
  // keeps its cells, which a rebuilt replica would not have.)
  constexpr char kSuperSub[] = R"(
subscription Super
monitoring
select default
where URL extends "http://site.org/" and new Product and updated Product
report when immediate
)";
  constexpr char kWordsSub[] = R"(
subscription Words
monitoring
select default
where URL extends "http://news.org/" and self contains "xyleme"
report when immediate
)";
  ASSERT_TRUE(manager_->Subscribe(kSuperSub, "a@x").ok());
  ASSERT_TRUE(manager_->Subscribe(kSimpleSub, "b@x").ok());
  ASSERT_TRUE(manager_->Subscribe(kWordsSub, "c@x").ok());
  ASSERT_TRUE(manager_->Unsubscribe("Simple").ok());
  ASSERT_TRUE(manager_->Subscribe(kSimpleSub, "d@x").ok());
  ASSERT_EQ(replicas_[0]->mqp.matcher().size(), 3u);
  ASSERT_EQ(replicas_[0]->html_alerter.condition_count(), 1u);

  ReplicaStructures fresh;
  ASSERT_TRUE(manager_->RebindReplica(1, fresh.replica()).ok());
  ExpectSameStructures(fresh, *replicas_[0]);

  // Later registrations and retractions reach the rebound replica too.
  // Both replicas hold Words' cells, so retracting it leaves them equal.
  ASSERT_TRUE(manager_->Subscribe(kOtherSub, "e@x").ok());
  ASSERT_TRUE(manager_->Unsubscribe("Words").ok());
  EXPECT_EQ(replicas_[0]->mqp.matcher().size(), 3u);
  EXPECT_EQ(replicas_[0]->html_alerter.condition_count(), 0u);
  ExpectSameStructures(fresh, *replicas_[0]);

  ReplicaStructures extra;
  EXPECT_TRUE(manager_->RebindReplica(replicas_.size(), extra.replica())
                  .IsInvalidArgument());
}

class ManagerPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("xymon_mgr_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

using ManagerPersistenceTest2 = ManagerPersistenceTest;

TEST_F(ManagerPersistenceTest, SubscriptionsSurviveRestart) {
  std::string path = dir_ / "subs.log";

  // "Process 1": subscribe and drop everything.
  {
    auto store = storage::PersistentMap::Open(path);
    ASSERT_TRUE(store.ok());
    SimClock clock;
    warehouse::Warehouse wh;
    mqp::MonitoringQueryProcessor mqp;
    alerters::UrlAlerter url;
    alerters::XmlAlerter xml;
    alerters::HtmlAlerter html;
    alerters::AlertPipeline pipeline(&url, &xml, &html);
    trigger::TriggerEngine te;
    reporter::Outbox outbox;
    query::QueryEngine qe(&wh);
    reporter::Reporter rep(&outbox, &qe);
    SubscriptionManager mgr(SubscriptionManager::Components{
        {{&mqp, &url, &xml, &html, &pipeline}}, &te, &rep, &qe, &clock});
    ASSERT_TRUE(mgr.AttachStore(&*store).ok());
    ASSERT_TRUE(mgr.Subscribe(kSimpleSub, "a@x").ok());
    ASSERT_TRUE(mgr.Subscribe(kOtherSub, "b@x").ok());
    ASSERT_TRUE(mgr.AddRecipient("Simple", "extra@x").ok());
    ASSERT_TRUE(mgr.Unsubscribe("Other").ok());
  }

  // "Process 2": recover.
  auto store = storage::PersistentMap::Open(path);
  ASSERT_TRUE(store.ok());
  SimClock clock;
  warehouse::Warehouse wh;
  mqp::MonitoringQueryProcessor mqp;
  alerters::UrlAlerter url;
  alerters::XmlAlerter xml;
  alerters::HtmlAlerter html;
  alerters::AlertPipeline pipeline(&url, &xml, &html);
  trigger::TriggerEngine te;
  reporter::Outbox outbox;
  query::QueryEngine qe(&wh);
  reporter::Reporter rep(&outbox, &qe);
  SubscriptionManager mgr(SubscriptionManager::Components{
      {{&mqp, &url, &xml, &html, &pipeline}}, &te, &rep, &qe, &clock});
  ASSERT_TRUE(mgr.AttachStore(&*store).ok());
  EXPECT_EQ(mgr.subscription_count(), 1u);
  EXPECT_EQ(mqp.matcher().size(), 1u);
  EXPECT_EQ(url.condition_count(), 1u);
  // The recovered subscription is live: duplicates rejected.
  EXPECT_TRUE(mgr.Subscribe(kSimpleSub, "a@x").status().IsAlreadyExists());
  // Recipients added before the restart were recovered too.
  EXPECT_TRUE(mgr.AddRecipient("Simple", "extra@x").IsAlreadyExists());
}

TEST_F(ManagerPersistenceTest, UsersSurviveRestart) {
  std::string path = dir_ / "users.log";
  {
    auto store = storage::PersistentMap::Open(path);
    ASSERT_TRUE(store.ok());
    UserRegistry users;
    ASSERT_TRUE(users.AttachStore(&*store).ok());
    ASSERT_TRUE(users.AddUser({"bob", "bob@x", true}).ok());
    ASSERT_TRUE(users.AddUser({"eve", "eve@x", false}).ok());
    ASSERT_TRUE(users.SetPrivileged("eve", true).ok());
    ASSERT_TRUE(users.AddUser({"gone", "g@x", false}).ok());
    ASSERT_TRUE(users.RemoveUser("gone").ok());
  }
  auto store = storage::PersistentMap::Open(path);
  ASSERT_TRUE(store.ok());
  UserRegistry users;
  ASSERT_TRUE(users.AttachStore(&*store).ok());
  EXPECT_EQ(users.user_count(), 2u);
  ASSERT_TRUE(users.Find("bob").has_value());
  EXPECT_TRUE(users.Find("bob")->privileged);
  EXPECT_TRUE(users.Find("eve")->privileged);
  EXPECT_FALSE(users.Find("gone").has_value());
}

}  // namespace
}  // namespace xymon::manager
