#ifndef XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_
#define XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/alerters/pipeline.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/manager/user_registry.h"
#include "src/mqp/processor.h"
#include "src/query/delta_tracker.h"
#include "src/query/engine.h"
#include "src/reporter/reporter.h"
#include "src/storage/persistent_map.h"
#include "src/sublang/ast.h"
#include "src/sublang/validator.h"
#include "src/trigger/trigger_engine.h"

namespace xymon::manager {

/// What a monitoring query's notification payloads are built from: exactly
/// the binding fields BindingResolver reads, so bindings with equal recipes
/// get identical payloads for one document, and the resolver builds them
/// once per document however many subscribers share them (DESIGN.md §15).
/// Fixed at registration.
struct PayloadRecipe {
  /// kDefault also stands for a variable select without a from clause: both
  /// yield the alert's info_xml.
  sublang::SelectClause::Kind kind = sublang::SelectClause::Kind::kDefault;
  std::string template_xml;  // kTemplate: normalized, with $VAR$ placeholders
  // kVariable: the elements bound by the from clause's tag, filtered by the
  // where clause's first element condition on that tag (none: all of them).
  std::string tag;
  std::optional<xmldiff::ChangeOp> change_op;
  std::string word;  // lower-cased; empty = no contains part
  bool strict = false;
  /// Canonical encoding of the fields above: equal keys <=> equal recipes.
  std::string key;
};

/// What the system needs to know when a complex event fires: which
/// subscription/query it belongs to and how to build the notification
/// payload, all precomputed at registration.
struct QueryBinding {
  std::string subscription;
  std::string query_name;
  /// The dedup identity, one per (subscription, query name): the disjuncts
  /// of one query share it, and so do same-named queries of one
  /// subscription — a document notifies each at most once.
  uint64_t query_id = 0;
  /// "subscription.query_name", the event continuous queries wait on.
  std::string trigger_key;
  PayloadRecipe recipe;
};

/// The (Xyleme) Subscription Manager (paper §3): "chooses the internal codes
/// of atomic events and (dynamically) warns the Alerters of the creation of
/// new events ... controls in a similar manner the Monitoring Query
/// Processor for managing complex events, the Trigger Engine for continuous
/// queries and the Reporter(s) for reports."
///
/// Atomic-event codes are deduplicated across subscriptions: two
/// subscriptions monitoring the same URL prefix share one code (and one
/// entry in the alerter structures) — the paper's implicit factorization.
/// Codes are refcounted so Unsubscribe retracts exactly the conditions no
/// longer needed.
///
/// Persistence: AttachStorage() opens the recovery log (the paper's MySQL
/// substitute) and replays stored subscriptions; every Subscribe /
/// Unsubscribe is logged.
class SubscriptionManager {
 public:
  /// One shard's detection structures: the targets a Register/Unregister
  /// must reach on that shard (paper §4.2 — the manager "warns each MQP").
  struct DetectionReplica {
    mqp::MonitoringQueryProcessor* mqp = nullptr;
    alerters::UrlAlerter* url_alerter = nullptr;
    alerters::XmlAlerter* xml_alerter = nullptr;
    alerters::HtmlAlerter* html_alerter = nullptr;
    alerters::AlertPipeline* pipeline = nullptr;
  };

  struct Components {
    /// One detection replica per shard, indexed by shard (a single one for
    /// an unsharded system). Every condition code and complex event is
    /// registered on each — the caller quiesces the document flow around
    /// Subscribe/Unsubscribe.
    std::vector<DetectionReplica> replicas;
    trigger::TriggerEngine* trigger_engine = nullptr;
    reporter::Reporter* reporter = nullptr;
    query::QueryEngine* query_engine = nullptr;
    const Clock* clock = nullptr;
  };

  explicit SubscriptionManager(Components components,
                               sublang::ValidatorOptions validator_options = {})
      : components_(components),
        validator_options_(std::move(validator_options)) {}

  /// Opens (or creates) the durability log at `path` and recovers every
  /// stored subscription into the live structures. `log_options` tunes
  /// durability (fsync_every_n = 1 makes every Subscribe crash-proof).
  Status AttachStorage(const std::string& path,
                       const storage::LogStore::Options& log_options = {});

  /// Non-owning variant: recovers from (and writes through to) `store`,
  /// whose lifetime the caller manages (the StorageHub when the monitor
  /// runs). nullptr detaches.
  Status AttachStore(storage::PersistentMap* store);

  /// Atomically compacts the recovery log to one record per live
  /// subscription (no-op without storage). Crash-safe: see
  /// PersistentMap::Checkpoint.
  Status CheckpointStorage() {
    return store_ != nullptr ? store_->Checkpoint() : Status::OK();
  }

  /// Parses, validates and activates a subscription; returns its name.
  Result<std::string> Subscribe(const std::string& text,
                                const std::string& email);

  /// Subscribes on behalf of a registered account: the user's e-mail is the
  /// recipient and privileged users bypass the cost budget (§5.4). Requires
  /// set_user_registry.
  Result<std::string> SubscribeAs(const std::string& user_name,
                                  const std::string& text);

  void set_user_registry(const UserRegistry* users) { users_ = users; }

  /// Retracts a subscription: complex events, condition codes (refcounted),
  /// triggers, report registration and the stored record.
  Status Unsubscribe(const std::string& name);

  /// Adds another e-mail recipient to a live subscription (the paper's
  /// user registry keeps addresses in MySQL; recipients persist with the
  /// subscription record). AlreadyExists if the address is registered.
  Status AddRecipient(const std::string& name, const std::string& email);

  /// Replaces a live subscription with a new definition (paper §4.1:
  /// "subscriptions keep being added, removed and updated while the system
  /// is running"). `text` must parse to the same subscription name; the
  /// swap is atomic — on any failure the old subscription stays active.
  Status Modify(const std::string& name, const std::string& text);

  /// Swaps one shard's detection replica for a fresh (empty) one and
  /// replays every live registration into it — the subscription half of a
  /// pipeline shard restart (DESIGN.md §13). `shard_index` indexes
  /// Components::replicas. Replay order is deterministic (condition
  /// codes ascending, then complex events ascending — the order the
  /// structures were originally built in, since codes are allocated
  /// monotonically), so a restarted shard's detection structures match a
  /// never-restarted clone's. The caller quiesces the document flow.
  Status RebindReplica(size_t shard_index, const DetectionReplica& replica);

  /// Binding for a fired complex event; nullptr if unknown.
  const QueryBinding* FindBinding(mqp::ComplexEventId id) const;

  /// True if `subscription` has a (monitoring or continuous) query named
  /// `query` — target validation for virtual subscriptions.
  bool HasQuery(const std::string& subscription,
                const std::string& query) const;

  size_t subscription_count() const { return subs_.size(); }
  size_t atomic_event_count() const { return codes_.size(); }

  /// Names of all live subscriptions, sorted. With subscription_text this
  /// lets the crash sweep rebuild a from-scratch monitor and compare its
  /// MQP hash tree against the recovered one.
  std::vector<std::string> subscription_names() const;

  /// Source text of a live subscription; nullptr if unknown.
  const std::string* subscription_text(const std::string& name) const;

  /// Recipient e-mails of a live subscription (empty if unknown) — what the
  /// process-mode monitor replays into a fresh worker replica alongside the
  /// text.
  std::vector<std::string> subscription_recipients(
      const std::string& name) const {
    auto it = subs_.find(name);
    return it == subs_.end() ? std::vector<std::string>{}
                             : it->second.recipients;
  }

  /// Refresh hints ("refresh URL weekly") for the crawler: url -> period.
  const std::map<std::string, Timestamp>& refresh_hints() const {
    return refresh_hints_;
  }

  /// Replays a subscription command into this manager without persisting it
  /// — the shard-worker replica path (DESIGN.md §14): the supervisor already
  /// validated and logged the subscription with the submitting user's actual
  /// privilege, so the replay is forced-privileged to guarantee the replica
  /// accepts exactly what the primary accepted (no validator divergence).
  Result<std::string> ReplaySubscribe(const std::string& text,
                                      const std::string& email) {
    return SubscribeInternal(text, email, /*persist=*/false,
                             /*privileged=*/true);
  }

 private:
  struct CodeEntry {
    alerters::Condition condition;
    mqp::AtomicEvent code;
    uint32_t refcount;
  };
  struct SubRecord {
    std::vector<std::string> recipients;
    std::string text;
    std::vector<std::string> query_names;  // monitoring + continuous
    std::vector<mqp::ComplexEventId> complex_events;
    std::vector<std::string> condition_keys;  // one per acquired reference
    std::vector<trigger::TriggerEngine::TriggerId> triggers;
    std::vector<std::shared_ptr<query::DeltaTracker>> trackers;
  };

  Result<std::string> SubscribeInternal(const std::string& text,
                                        const std::string& email,
                                        bool persist,
                                        bool privileged = false);
  // Fan-out across components_.replicas, in shard order. The Register forms
  // roll back the replicas they already reached on failure.
  Status RegisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition);
  void UnregisterCondition(mqp::AtomicEvent code,
                           const alerters::Condition& condition);
  Status RegisterComplex(mqp::ComplexEventId id, const mqp::EventSet& events);
  void UnregisterComplex(mqp::ComplexEventId id);
  Result<mqp::AtomicEvent> AcquireCode(const alerters::Condition& condition,
                                       SubRecord* record);
  void ReleaseCode(const std::string& key);
  Status WireContinuousQuery(const std::string& sub_name,
                             const sublang::ContinuousQueryAst& cq,
                             SubRecord* record);
  void RollbackSubscription(SubRecord* record);

  Components components_;
  sublang::ValidatorOptions validator_options_;
  std::unordered_map<std::string, CodeEntry> codes_;
  mqp::AtomicEvent next_code_ = 1;
  mqp::ComplexEventId next_complex_ = 1;
  uint64_t next_query_id_ = 1;
  std::map<std::string, SubRecord> subs_;
  std::unordered_map<mqp::ComplexEventId, QueryBinding> bindings_;
  /// The EventSet each live complex event was registered with — kept so
  /// RebindReplica can replay registrations into a restarted shard's MQP.
  std::unordered_map<mqp::ComplexEventId, mqp::EventSet> complex_defs_;
  std::map<std::string, Timestamp> refresh_hints_;
  std::optional<storage::PersistentMap> owned_store_;
  storage::PersistentMap* store_ = nullptr;
  const UserRegistry* users_ = nullptr;
};

}  // namespace xymon::manager

#endif  // XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_
