#include "src/manager/subscription_manager.h"

#include <algorithm>

#include "src/common/string_util.h"
#include "src/sublang/parser.h"
#include "src/xml/serializer.h"

namespace xymon::manager {
namespace {

using alerters::Condition;
using alerters::ConditionKind;

bool IsUrlAlerterCondition(ConditionKind kind) {
  switch (kind) {
    case ConditionKind::kUrlEquals:
    case ConditionKind::kUrlExtends:
    case ConditionKind::kFilenameEquals:
    case ConditionKind::kDocIdEquals:
    case ConditionKind::kDtdIdEquals:
    case ConditionKind::kDtdUrlEquals:
    case ConditionKind::kDomainEquals:
    case ConditionKind::kLastAccessedCmp:
    case ConditionKind::kLastUpdateCmp:
    case ConditionKind::kDocStatus:
      return true;
    default:
      return false;
  }
}

PayloadRecipe MakePayloadRecipe(const sublang::MonitoringQueryAst& mq,
                                const std::vector<Condition>& disjunct) {
  using Kind = sublang::SelectClause::Kind;
  PayloadRecipe recipe;
  recipe.kind = mq.select.kind;
  if (recipe.kind == Kind::kVariable && !mq.from.has_value()) {
    recipe.kind = Kind::kDefault;
  }
  switch (recipe.kind) {
    case Kind::kDefault:
      recipe.key = "d";
      break;
    case Kind::kTemplate:
      recipe.template_xml = mq.select.template_xml;
      recipe.key = "t" + recipe.template_xml;
      break;
    case Kind::kVariable:
      recipe.tag = mq.from->tag;
      for (const Condition& c : disjunct) {
        if (c.kind == ConditionKind::kElementChange && c.tag == recipe.tag) {
          recipe.change_op = c.change_op;
          recipe.word = ToLower(c.word);
          recipe.strict = c.strict;
          break;
        }
      }
      // Length-prefixed tag, so no (tag, word) split collides.
      recipe.key = "v" +
                   std::to_string(recipe.change_op.has_value()
                                      ? static_cast<int>(*recipe.change_op)
                                      : -1) +
                   (recipe.strict ? 's' : 'n') +
                   std::to_string(recipe.tag.size()) + ":" + recipe.tag +
                   recipe.word;
      break;
  }
  return recipe;
}

}  // namespace

Status SubscriptionManager::AttachStorage(
    const std::string& path, const storage::LogStore::Options& log_options) {
  auto store = storage::PersistentMap::Open(path, log_options);
  if (!store.ok()) return store.status();
  owned_store_ = std::move(store).value();
  return AttachStore(&*owned_store_);
}

Status SubscriptionManager::AttachStore(storage::PersistentMap* store) {
  store_ = store;
  if (store_ == nullptr) return Status::OK();

  // Recover: each record is "email\ntext".
  for (const auto& [name, value] : store_->data()) {
    size_t nl = value.find('\n');
    if (nl == std::string::npos) {
      return Status::Corruption("malformed stored subscription '" + name + "'");
    }
    std::string email = value.substr(0, nl);
    std::string text = value.substr(nl + 1);
    auto recovered = SubscribeInternal(text, email, /*persist=*/false);
    if (!recovered.ok()) {
      return Status::Corruption("cannot recover subscription '" + name +
                                "': " + recovered.status().ToString());
    }
  }
  return Status::OK();
}

Result<std::string> SubscriptionManager::Subscribe(const std::string& text,
                                                   const std::string& email) {
  return SubscribeInternal(text, email, /*persist=*/true);
}

Result<std::string> SubscriptionManager::SubscribeAs(
    const std::string& user_name, const std::string& text) {
  if (users_ == nullptr) {
    return Status::FailedPrecondition("no user registry attached");
  }
  auto user = users_->Find(user_name);
  if (!user.has_value()) {
    return Status::NotFound("unknown user '" + user_name + "'");
  }
  return SubscribeInternal(text, user->email, /*persist=*/true,
                           user->privileged);
}

namespace {

// Registers `condition` under `code` on one replica's alerters.
Status RegisterOnReplica(mqp::AtomicEvent code, const Condition& condition,
                         const SubscriptionManager::DetectionReplica& r) {
  if (IsUrlAlerterCondition(condition.kind)) {
    XYMON_RETURN_IF_ERROR(r.url_alerter->Register(code, condition));
  } else if (condition.kind == ConditionKind::kSelfContains) {
    XYMON_RETURN_IF_ERROR(r.xml_alerter->Register(code, condition));
    XYMON_RETURN_IF_ERROR(r.html_alerter->Register(code, condition));
  } else {
    XYMON_RETURN_IF_ERROR(r.xml_alerter->Register(code, condition));
  }
  if (condition.IsWeak() && r.pipeline != nullptr) {
    r.pipeline->MarkWeak(code);
  }
  return Status::OK();
}

void UnregisterOnReplica(mqp::AtomicEvent code, const Condition& condition,
                         const SubscriptionManager::DetectionReplica& r) {
  if (IsUrlAlerterCondition(condition.kind)) {
    (void)r.url_alerter->Unregister(code, condition);
  } else if (condition.kind == ConditionKind::kSelfContains) {
    (void)r.xml_alerter->Unregister(code, condition);
    (void)r.html_alerter->Unregister(code, condition);
  } else {
    (void)r.xml_alerter->Unregister(code, condition);
  }
  if (r.pipeline != nullptr) {
    r.pipeline->UnmarkWeak(code);
  }
}

}  // namespace

Status SubscriptionManager::RegisterCondition(mqp::AtomicEvent code,
                                              const Condition& condition) {
  const std::vector<DetectionReplica>& replicas = components_.replicas;
  for (size_t i = 0; i < replicas.size(); ++i) {
    Status st = RegisterOnReplica(code, condition, replicas[i]);
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) {
        UnregisterOnReplica(code, condition, replicas[j]);
      }
      return st;
    }
  }
  return Status::OK();
}

void SubscriptionManager::UnregisterCondition(mqp::AtomicEvent code,
                                              const Condition& condition) {
  for (const DetectionReplica& r : components_.replicas) {
    UnregisterOnReplica(code, condition, r);
  }
}

Status SubscriptionManager::RegisterComplex(mqp::ComplexEventId id,
                                            const mqp::EventSet& events) {
  const std::vector<DetectionReplica>& replicas = components_.replicas;
  for (size_t i = 0; i < replicas.size(); ++i) {
    Status st = replicas[i].mqp->Register(id, events);
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) (void)replicas[j].mqp->Unregister(id);
      return st;
    }
  }
  complex_defs_[id] = events;
  return Status::OK();
}

void SubscriptionManager::UnregisterComplex(mqp::ComplexEventId id) {
  for (const DetectionReplica& r : components_.replicas) {
    (void)r.mqp->Unregister(id);
  }
  complex_defs_.erase(id);
}

Status SubscriptionManager::RebindReplica(size_t shard_index,
                                          const DetectionReplica& replica) {
  if (replica.mqp == nullptr || replica.url_alerter == nullptr ||
      replica.xml_alerter == nullptr || replica.html_alerter == nullptr) {
    return Status::InvalidArgument("RebindReplica: incomplete replica");
  }
  if (shard_index >= components_.replicas.size()) {
    return Status::InvalidArgument("RebindReplica: no replica for shard " +
                                   std::to_string(shard_index));
  }
  components_.replicas[shard_index] = replica;

  // Replay every live registration into the fresh structures, in the order
  // they were originally built (codes and complex ids are allocated
  // monotonically, so ascending-id replay reproduces the structures a
  // never-restarted replica holds).
  std::vector<const CodeEntry*> entries;
  entries.reserve(codes_.size());
  for (const auto& [key, entry] : codes_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const CodeEntry* a, const CodeEntry* b) {
              return a->code < b->code;
            });
  for (const CodeEntry* entry : entries) {
    XYMON_RETURN_IF_ERROR(
        RegisterOnReplica(entry->code, entry->condition, replica));
  }

  std::vector<std::pair<mqp::ComplexEventId, const mqp::EventSet*>> defs;
  defs.reserve(complex_defs_.size());
  for (const auto& [id, events] : complex_defs_) defs.emplace_back(id, &events);
  std::sort(defs.begin(), defs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, events] : defs) {
    XYMON_RETURN_IF_ERROR(replica.mqp->Register(id, *events));
  }
  return Status::OK();
}

Result<mqp::AtomicEvent> SubscriptionManager::AcquireCode(
    const Condition& condition, SubRecord* record) {
  std::string key = condition.Key();
  auto it = codes_.find(key);
  if (it != codes_.end()) {
    ++it->second.refcount;
    record->condition_keys.push_back(key);
    return it->second.code;
  }

  mqp::AtomicEvent code = next_code_++;
  // Route the new condition to its alerter(s) on every shard (paper §3: the
  // manager "dynamically warns the Alerters of the creation of new events").
  XYMON_RETURN_IF_ERROR(RegisterCondition(code, condition));
  codes_.emplace(key, CodeEntry{condition, code, 1});
  record->condition_keys.push_back(key);
  return code;
}

void SubscriptionManager::ReleaseCode(const std::string& key) {
  auto it = codes_.find(key);
  if (it == codes_.end()) return;
  if (--it->second.refcount > 0) return;

  UnregisterCondition(it->second.code, it->second.condition);
  codes_.erase(it);
}

Status SubscriptionManager::WireContinuousQuery(
    const std::string& sub_name, const sublang::ContinuousQueryAst& cq,
    SubRecord* record) {
  auto parsed = query::ParseQuery(cq.name, cq.query_text);
  if (!parsed.ok()) {
    return Status::ParseError("continuous query '" + cq.name +
                              "': " + parsed.status().message());
  }
  auto shared_query = std::make_shared<query::Query>(std::move(parsed).value());
  shared_query->delta_mode = cq.delta;

  std::shared_ptr<query::DeltaTracker> tracker;
  if (cq.delta) {
    tracker = std::make_shared<query::DeltaTracker>();
    record->trackers.push_back(tracker);
  }

  auto* engine = components_.query_engine;
  auto* rep = components_.reporter;
  std::string cq_name = cq.name;
  auto action = [engine, rep, shared_query, tracker, sub_name,
                 cq_name](Timestamp now) {
    auto result = engine->Evaluate(*shared_query);
    if (!result.ok()) return;
    std::unique_ptr<xml::Node> payload = std::move(result).value();
    if (tracker != nullptr) {
      payload = tracker->Update(std::move(payload));
      if (payload == nullptr) return;  // Result unchanged: nothing to report.
    }
    rep->AddNotification(reporter::Notification{
        sub_name, cq_name, xml::Serialize(*payload), now});
  };

  trigger::TriggerEngine::TriggerId id;
  if (cq.frequency.has_value()) {
    id = components_.trigger_engine->AddPeriodic(
        components_.clock->Now(), sublang::FrequencyPeriod(*cq.frequency),
        std::move(action));
  } else {
    id = components_.trigger_engine->AddNotificationTrigger(
        cq.trigger_subscription + "." + cq.trigger_query, std::move(action));
  }
  record->triggers.push_back(id);
  return Status::OK();
}

void SubscriptionManager::RollbackSubscription(SubRecord* record) {
  for (mqp::ComplexEventId id : record->complex_events) {
    UnregisterComplex(id);
    bindings_.erase(id);
  }
  for (const std::string& key : record->condition_keys) {
    ReleaseCode(key);
  }
  for (trigger::TriggerEngine::TriggerId id : record->triggers) {
    (void)components_.trigger_engine->Remove(id);
  }
}

Result<std::string> SubscriptionManager::SubscribeInternal(
    const std::string& text, const std::string& email, bool persist,
    bool privileged) {
  auto parsed = sublang::ParseSubscription(text);
  if (!parsed.ok()) return parsed.status();
  sublang::SubscriptionAst ast = std::move(parsed).value();
  sublang::ValidatorOptions options = validator_options_;
  if (privileged) options.privileged = true;
  XYMON_RETURN_IF_ERROR(Validate(ast, options));

  if (subs_.count(ast.name) != 0) {
    return Status::AlreadyExists("subscription '" + ast.name + "'");
  }
  // Virtual targets must exist before anyone subscribes to them.
  for (const sublang::VirtualRef& ref : ast.virtuals) {
    if (!HasQuery(ref.subscription, ref.query)) {
      return Status::NotFound("virtual reference " + ref.subscription + "." +
                              ref.query + " does not exist");
    }
  }

  SubRecord record;
  // Recovery passes the whole recipient list as a comma-joined string.
  for (const std::string& r : Split(email, ',')) {
    if (!r.empty()) record.recipients.push_back(r);
  }
  record.text = text;
  for (const sublang::MonitoringQueryAst& mq : ast.monitoring) {
    record.query_names.push_back(mq.name);
  }
  for (const sublang::ContinuousQueryAst& cq : ast.continuous) {
    record.query_names.push_back(cq.name);
  }

  // 1. Monitoring queries -> atomic codes + complex events, one complex
  // event per disjunct of the where clause.
  std::map<std::string, uint64_t> query_ids;
  for (const sublang::MonitoringQueryAst& mq : ast.monitoring) {
    auto [query_id, fresh] = query_ids.try_emplace(mq.name, next_query_id_);
    if (fresh) ++next_query_id_;
    for (const auto& disjunct : mq.disjuncts) {
      mqp::EventSet events;
      for (const Condition& condition : disjunct) {
        auto code = AcquireCode(condition, &record);
        if (!code.ok()) {
          RollbackSubscription(&record);
          return code.status();
        }
        events.push_back(*code);
      }
      std::sort(events.begin(), events.end());
      events.erase(std::unique(events.begin(), events.end()), events.end());

      mqp::ComplexEventId complex_id = next_complex_++;
      Status st = RegisterComplex(complex_id, events);
      if (!st.ok()) {
        RollbackSubscription(&record);
        return st;
      }
      record.complex_events.push_back(complex_id);
      bindings_.emplace(complex_id,
                        QueryBinding{ast.name, mq.name, query_id->second,
                                     ast.name + "." + mq.name,
                                     MakePayloadRecipe(mq, disjunct)});
    }
  }

  // 2. Continuous queries -> trigger engine.
  for (const sublang::ContinuousQueryAst& cq : ast.continuous) {
    Status st = WireContinuousQuery(ast.name, cq, &record);
    if (!st.ok()) {
      RollbackSubscription(&record);
      return st;
    }
  }

  // 3. Report registration (virtual-only subscriptions default to
  // immediate delivery).
  sublang::ReportSpec spec;
  if (ast.report.has_value()) {
    spec = *ast.report;
  } else {
    sublang::ReportCondition::Atom atom;
    atom.kind = sublang::ReportCondition::Atom::Kind::kImmediate;
    spec.when.atoms.push_back(atom);
  }
  Status st = components_.reporter->AddSubscription(
      ast.name, spec, record.recipients, components_.clock->Now());
  if (!st.ok()) {
    RollbackSubscription(&record);
    return st;
  }

  // 4. Virtual listeners.
  for (const sublang::VirtualRef& ref : ast.virtuals) {
    (void)components_.reporter->AddVirtualListener(ast.name, ref.subscription,
                                                   ref.query);
  }

  // 5. Refresh hints for the crawler (§2.2: subscriptions "influence the
  // refreshing of pages only by adding importance to the pages they
  // explicitly mention").
  for (const sublang::RefreshAst& refresh : ast.refresh) {
    Timestamp period = sublang::FrequencyPeriod(refresh.frequency);
    auto it = refresh_hints_.find(refresh.url);
    if (it == refresh_hints_.end() || it->second > period) {
      refresh_hints_[refresh.url] = period;
    }
  }

  // 6. Durability.
  if (persist && store_ != nullptr) {
    Status put = store_->Put(ast.name, Join(record.recipients, ",") + "\n" + text);
    if (!put.ok()) {
      (void)components_.reporter->RemoveSubscription(ast.name);
      RollbackSubscription(&record);
      return put;
    }
  }

  std::string name = ast.name;
  subs_.emplace(name, std::move(record));
  return name;
}

Status SubscriptionManager::Unsubscribe(const std::string& name) {
  auto it = subs_.find(name);
  if (it == subs_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  RollbackSubscription(&it->second);
  (void)components_.reporter->RemoveSubscription(name);
  if (store_ != nullptr) {
    XYMON_RETURN_IF_ERROR(store_->Delete(name));
  }
  subs_.erase(it);
  return Status::OK();
}

Status SubscriptionManager::AddRecipient(const std::string& name,
                                         const std::string& email) {
  auto it = subs_.find(name);
  if (it == subs_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  auto& recipients = it->second.recipients;
  if (std::find(recipients.begin(), recipients.end(), email) !=
      recipients.end()) {
    return Status::AlreadyExists(email + " already subscribed to " + name);
  }
  XYMON_RETURN_IF_ERROR(components_.reporter->AddRecipient(name, email));
  recipients.push_back(email);
  if (store_ != nullptr) {
    XYMON_RETURN_IF_ERROR(
        store_->Put(name, Join(recipients, ",") + "\n" + it->second.text));
  }
  return Status::OK();
}

Status SubscriptionManager::Modify(const std::string& name,
                                   const std::string& text) {
  auto it = subs_.find(name);
  if (it == subs_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  // Validate the replacement *before* touching the live one.
  auto parsed = sublang::ParseSubscription(text);
  if (!parsed.ok()) return parsed.status();
  if (parsed->name != name) {
    return Status::InvalidArgument("modified text renames '" + name +
                                   "' to '" + parsed->name + "'");
  }
  XYMON_RETURN_IF_ERROR(Validate(*parsed, validator_options_));

  // Swap: retract the old registration, install the new one. Conditions
  // shared between old and new survive in the alerters throughout (their
  // refcount dips and rises without hitting zero only if another
  // subscription holds them; identical conditions re-acquire the same or a
  // fresh code either way — correctness is unaffected).
  std::string email = Join(it->second.recipients, ",");
  std::string old_text = it->second.text;
  XYMON_RETURN_IF_ERROR(Unsubscribe(name));
  auto installed = SubscribeInternal(text, email, /*persist=*/true);
  if (installed.ok()) return Status::OK();
  // Restore the previous definition; it validated once, so this succeeds.
  auto restored = SubscribeInternal(old_text, email, /*persist=*/true);
  if (!restored.ok()) {
    return Status::Corruption("modify of '" + name +
                              "' failed and the rollback failed too: " +
                              restored.status().ToString());
  }
  return installed.status();
}

std::vector<std::string> SubscriptionManager::subscription_names() const {
  std::vector<std::string> names;
  names.reserve(subs_.size());
  for (const auto& [name, record] : subs_) names.push_back(name);
  return names;
}

const std::string* SubscriptionManager::subscription_text(
    const std::string& name) const {
  auto it = subs_.find(name);
  return it == subs_.end() ? nullptr : &it->second.text;
}

const QueryBinding* SubscriptionManager::FindBinding(
    mqp::ComplexEventId id) const {
  auto it = bindings_.find(id);
  return it == bindings_.end() ? nullptr : &it->second;
}

bool SubscriptionManager::HasQuery(const std::string& subscription,
                                   const std::string& query) const {
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return false;
  const auto& names = it->second.query_names;
  return std::find(names.begin(), names.end(), query) != names.end();
}

}  // namespace xymon::manager
