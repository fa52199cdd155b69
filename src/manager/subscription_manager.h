#ifndef XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_
#define XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
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

/// Dense ids the manager hands out at registration (DESIGN.md §15). A
/// binding id names one (subscription, disjunct) from the match to the mail;
/// a recipe id names one distinct payload recipe.
using BindingId = uint32_t;
using RecipeId = uint32_t;

/// What a monitoring query's notification payloads are built from: exactly
/// the binding fields BindingResolver reads, so bindings with equal recipes
/// get identical payloads for one document, and the resolver builds them
/// once per document however many subscribers share them (DESIGN.md §15).
/// Fixed at registration, and interned: equal recipes share one RecipeId.
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

/// One disjunct of one subscription's monitoring query: what the system
/// needs when its event set fires, all fixed at registration. The resolver
/// reads the recipe and the dedup identity; delivery reads the reporter
/// slot, the query ordinal and the trigger flag, which come first to share
/// a cache line. No string of it is read per notification.
struct QueryBinding {
  /// The subscription's slot in the Reporter and this query's ordinal there.
  uint32_t report_index = 0;
  uint32_t query_ordinal = 0;
  /// Some continuous query waits on trigger_key (a notification trigger
  /// registered before or after this binding); only then does a match raise
  /// a trigger event.
  bool listened = false;
  /// Another binding has the same query_id, so a document may match both;
  /// only such bindings need the per-document dedup.
  bool shares_query = false;
  RecipeId recipe = 0;
  /// The dedup identity, one per (subscription, query name): the disjuncts
  /// of one query share it, and so do same-named queries of one
  /// subscription — a document notifies each at most once.
  uint64_t query_id = 0;
  /// The interned event set this binding is listed under.
  mqp::ComplexEventId complex_event = mqp::kNoComplexEvent;
  std::string subscription;
  std::string query_name;
  /// "subscription.query_name", the event continuous queries wait on.
  std::string trigger_key;
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
/// longer needed. Complex events are deduplicated the same way: each
/// distinct sorted EventSet is one complex event in the MQP, listing the
/// bindings — one per (subscription, disjunct) — that it stands for.
///
/// Persistence: AttachStore() attaches the recovery log (the paper's MySQL
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

  /// Recovers every stored subscription from the durability log `store`
  /// into the live structures and logs every later change to it. The
  /// caller owns the store (the StorageHub when the monitor runs); its
  /// LogStore::Options tune durability (fsync_every_n = 1 makes every
  /// Subscribe crash-proof). nullptr detaches.
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
  /// codes ascending, then the live bindings ascending by id, each set
  /// registered at its first binding and retraced at the others — the
  /// order the structures were originally built in, since ids are allocated
  /// monotonically), so a restarted shard's detection structures match a
  /// never-restarted clone's. The caller quiesces the document flow.
  Status RebindReplica(size_t shard_index, const DetectionReplica& replica);

  /// The bindings listed under interned complex event `id`, newest first —
  /// the order the marks of one event set had when each binding was its own
  /// complex event. Empty for an unknown id.
  std::span<const BindingId> BindingsOf(mqp::ComplexEventId id) const {
    if (id >= sets_.size()) return {};
    return sets_[id].bindings;
  }

  /// A live binding; nullptr for an unknown id.
  const QueryBinding* binding(BindingId id) const {
    return id < bindings_.size() && bindings_[id].has_value() ? &*bindings_[id]
                                                               : nullptr;
  }

  /// The recipe behind a live binding's RecipeId.
  const PayloadRecipe& recipe(RecipeId id) const { return recipes_[id].recipe; }

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
  /// One distinct sorted EventSet, registered once on every replica under
  /// its own complex id, with the bindings it stands for.
  struct InternedSet {
    mqp::EventSet events;
    std::vector<BindingId> bindings;  // newest first; empty = not live
  };
  struct RecipeEntry {
    PayloadRecipe recipe;
    uint32_t refcount = 0;
  };
  struct SubRecord {
    std::vector<std::string> recipients;
    std::string text;
    std::vector<std::string> query_names;  // monitoring + continuous
    std::vector<BindingId> bindings;
    std::vector<std::string> condition_keys;  // one per acquired reference
    std::vector<trigger::TriggerEngine::TriggerId> triggers;
    std::vector<std::shared_ptr<query::DeltaTracker>> trackers;
    /// (subscription, query) pairs its continuous queries wait on.
    std::vector<std::pair<std::string, std::string>> listens;
    bool reported = false;  // registered with the reporter
  };
  /// Every id counter a Subscribe advances. A failed Subscribe restores it,
  /// so ids are a function of the successful command sequence alone — the
  /// sequence a worker's replay log reproduces (DESIGN.md §14).
  struct IdCounters {
    mqp::AtomicEvent code;
    mqp::ComplexEventId complex;
    uint64_t query;
    BindingId binding;
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
  /// Lists `binding` under the interned entry of `events`, registering the
  /// set on every replica when it first appears.
  Status AddBinding(QueryBinding binding, const mqp::EventSet& events,
                    PayloadRecipe recipe, SubRecord* record);
  /// Unlists a binding; the set is unregistered with its last binding.
  void RemoveBinding(BindingId id);
  RecipeId AcquireRecipe(PayloadRecipe recipe);
  void ReleaseRecipe(RecipeId id);
  /// Sets `listened` on the bindings of `subscription`'s query `query`.
  void MarkListened(const std::string& subscription, const std::string& query,
                    bool listened);
  Status WireContinuousQuery(const sublang::ContinuousQueryAst& cq,
                             uint32_t report_index, SubRecord* record);
  void RollbackSubscription(const std::string& name, SubRecord* record);

  Components components_;
  sublang::ValidatorOptions validator_options_;
  std::unordered_map<std::string, CodeEntry> codes_;
  IdCounters next_{1, 1, 1, 0};
  std::map<std::string, SubRecord> subs_;
  /// Interned complex events, indexed by complex id. An Unsubscribe never
  /// hands an id back, so a retracted set's slot stays empty; only a failed
  /// Subscribe rewinds the counters. RebindReplica replays the live ones
  /// into a restarted shard's MQP.
  std::vector<InternedSet> sets_;
  std::map<mqp::EventSet, mqp::ComplexEventId> set_ids_;
  std::vector<std::optional<QueryBinding>> bindings_;  // by BindingId
  std::vector<RecipeEntry> recipes_;                   // by RecipeId
  std::vector<RecipeId> free_recipes_;
  std::unordered_map<std::string, RecipeId> recipe_ids_;  // by recipe key
  /// Notification triggers per trigger key ("subscription.query").
  std::unordered_map<std::string, uint32_t> listeners_;
  std::map<std::string, Timestamp> refresh_hints_;
  storage::PersistentMap* store_ = nullptr;
  const UserRegistry* users_ = nullptr;
};

}  // namespace xymon::manager

#endif  // XYMON_MANAGER_SUBSCRIPTION_MANAGER_H_
