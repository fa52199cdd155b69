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
  return Status::OK();
}

void SubscriptionManager::UnregisterComplex(mqp::ComplexEventId id) {
  for (const DetectionReplica& r : components_.replicas) {
    (void)r.mqp->Unregister(id);
  }
}

namespace {

/// The transient complex event RetraceComplex registers and drops at once.
constexpr mqp::ComplexEventId kRetraceId = mqp::kNoComplexEvent - 1;

// AesMatcher::Insert checks a table's load before it looks a code up, so an
// insert along an existing path may still grow a table, and a table's
// capacity fixes the order its cells are enumerated in. Registering a shared
// set once more, transiently, for each binding it gains keeps every table's
// growth — and so the match order — what it was when each binding was its
// own complex event.
void RetraceComplex(const mqp::EventSet& events,
                    const SubscriptionManager::DetectionReplica& r) {
  if (r.mqp->Register(kRetraceId, events).ok()) {
    (void)r.mqp->Unregister(kRetraceId);
  }
}

}  // namespace

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

  // One registration per live binding, oldest first: a set's first binding
  // registers it, the others retrace its path (see RetraceComplex).
  std::vector<uint8_t> registered(sets_.size(), 0);
  for (const std::optional<QueryBinding>& binding : bindings_) {
    if (!binding.has_value()) continue;
    const mqp::ComplexEventId id = binding->complex_event;
    if (registered[id] != 0) {
      RetraceComplex(sets_[id].events, replica);
      continue;
    }
    XYMON_RETURN_IF_ERROR(replica.mqp->Register(id, sets_[id].events));
    registered[id] = 1;
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

  mqp::AtomicEvent code = next_.code++;
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

RecipeId SubscriptionManager::AcquireRecipe(PayloadRecipe recipe) {
  auto [it, fresh] = recipe_ids_.try_emplace(recipe.key, 0);
  if (!fresh) {
    ++recipes_[it->second].refcount;
    return it->second;
  }
  RecipeId id = static_cast<RecipeId>(recipes_.size());
  if (!free_recipes_.empty()) {
    id = free_recipes_.back();
    free_recipes_.pop_back();
  } else {
    recipes_.emplace_back();
  }
  recipes_[id] = RecipeEntry{std::move(recipe), 1};
  it->second = id;
  return id;
}

void SubscriptionManager::ReleaseRecipe(RecipeId id) {
  RecipeEntry& entry = recipes_[id];
  if (--entry.refcount > 0) return;
  recipe_ids_.erase(entry.recipe.key);
  entry = RecipeEntry{};
  free_recipes_.push_back(id);
}

Status SubscriptionManager::AddBinding(QueryBinding binding,
                                       const mqp::EventSet& events,
                                       PayloadRecipe recipe,
                                       SubRecord* record) {
  auto [it, fresh] = set_ids_.try_emplace(events, next_.complex);
  const mqp::ComplexEventId id = it->second;
  if (fresh) {
    Status st = RegisterComplex(id, events);
    if (!st.ok()) {
      set_ids_.erase(it);
      return st;
    }
    ++next_.complex;
    if (sets_.size() <= id) sets_.resize(id + 1);
    sets_[id].events = events;
  } else {
    for (const DetectionReplica& r : components_.replicas) {
      RetraceComplex(events, r);
    }
  }
  const BindingId bid = next_.binding++;
  binding.complex_event = id;
  binding.recipe = AcquireRecipe(std::move(recipe));
  binding.listened = listeners_.count(binding.trigger_key) != 0;
  if (bindings_.size() <= bid) bindings_.resize(bid + 1);
  bindings_[bid] = std::move(binding);
  // Newest first: AesMatcher::Insert pushes a mark at the head of its cell's
  // chain, so this is the order separate complex events had.
  std::vector<BindingId>& list = sets_[id].bindings;
  list.insert(list.begin(), bid);
  record->bindings.push_back(bid);
  return Status::OK();
}

void SubscriptionManager::RemoveBinding(BindingId id) {
  std::optional<QueryBinding>& slot = bindings_[id];
  const mqp::ComplexEventId set_id = slot->complex_event;
  ReleaseRecipe(slot->recipe);
  slot.reset();
  InternedSet& set = sets_[set_id];
  std::erase(set.bindings, id);
  if (!set.bindings.empty()) return;
  UnregisterComplex(set_id);
  set_ids_.erase(set.events);
  set = InternedSet{};
}

void SubscriptionManager::MarkListened(const std::string& subscription,
                                       const std::string& query,
                                       bool listened) {
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return;  // flagged when it subscribes
  for (BindingId id : it->second.bindings) {
    if (bindings_[id]->query_name == query) bindings_[id]->listened = listened;
  }
}

Status SubscriptionManager::WireContinuousQuery(
    const sublang::ContinuousQueryAst& cq, uint32_t report_index,
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
  const uint32_t ordinal = rep->QueryOrdinal(report_index, cq.name);
  auto action = [engine, rep, shared_query, tracker, report_index,
                 ordinal](Timestamp now) {
    auto result = engine->Evaluate(*shared_query);
    if (!result.ok()) return;
    std::unique_ptr<xml::Node> payload = std::move(result).value();
    if (tracker != nullptr) {
      payload = tracker->Update(std::move(payload));
      if (payload == nullptr) return;  // Result unchanged: nothing to report.
    }
    rep->AddNotification(report_index, ordinal, xml::Serialize(*payload), now);
  };

  trigger::TriggerEngine::TriggerId id;
  if (cq.frequency.has_value()) {
    id = components_.trigger_engine->AddPeriodic(
        components_.clock->Now(), sublang::FrequencyPeriod(*cq.frequency),
        std::move(action));
  } else {
    std::string key = cq.trigger_subscription + "." + cq.trigger_query;
    if (++listeners_[key] == 1) {
      MarkListened(cq.trigger_subscription, cq.trigger_query, true);
    }
    record->listens.emplace_back(cq.trigger_subscription, cq.trigger_query);
    id = components_.trigger_engine->AddNotificationTrigger(key,
                                                            std::move(action));
  }
  record->triggers.push_back(id);
  return Status::OK();
}

void SubscriptionManager::RollbackSubscription(const std::string& name,
                                               SubRecord* record) {
  // Newest first, so the recipe free list ends as it was before the call.
  for (auto it = record->bindings.rbegin(); it != record->bindings.rend();
       ++it) {
    RemoveBinding(*it);
  }
  record->bindings.clear();
  for (const std::string& key : record->condition_keys) {
    ReleaseCode(key);
  }
  for (trigger::TriggerEngine::TriggerId id : record->triggers) {
    (void)components_.trigger_engine->Remove(id);
  }
  for (const auto& [subscription, query] : record->listens) {
    auto it = listeners_.find(subscription + "." + query);
    if (--it->second > 0) continue;
    listeners_.erase(it);
    MarkListened(subscription, query, false);
  }
  if (record->reported) {
    (void)components_.reporter->RemoveSubscription(name);
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

  // The record joins subs_ now, so the registration steps below find it
  // like any other; a failure erases it again.
  SubRecord& record = subs_[ast.name];
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

  // A failure past this point rolls back what the call registered and
  // restores every id counter it advanced.
  const IdCounters ids_before = next_;
  auto fail = [&](Status st) {
    RollbackSubscription(ast.name, &record);
    subs_.erase(ast.name);
    next_ = ids_before;
    return st;
  };

  // 1. Monitoring queries -> atomic codes + one binding per disjunct of the
  // where clause, listed under the interned complex event of its event set.
  std::map<std::string, uint64_t> query_ids;
  for (const sublang::MonitoringQueryAst& mq : ast.monitoring) {
    auto [query_id, fresh] = query_ids.try_emplace(mq.name, next_.query);
    if (fresh) ++next_.query;
    for (const auto& disjunct : mq.disjuncts) {
      mqp::EventSet events;
      for (const Condition& condition : disjunct) {
        auto code = AcquireCode(condition, &record);
        if (!code.ok()) return fail(code.status());
        events.push_back(*code);
      }
      std::sort(events.begin(), events.end());
      events.erase(std::unique(events.begin(), events.end()), events.end());

      QueryBinding binding;
      binding.subscription = ast.name;
      binding.query_name = mq.name;
      binding.trigger_key = ast.name + "." + mq.name;
      binding.query_id = query_id->second;
      Status st = AddBinding(std::move(binding), events,
                             MakePayloadRecipe(mq, disjunct), &record);
      if (!st.ok()) return fail(st);
    }
  }

  // 2. Report registration (virtual-only subscriptions default to
  // immediate delivery). Each binding learns its subscription's reporter
  // slot and its query's ordinal there.
  sublang::ReportSpec spec;
  if (ast.report.has_value()) {
    spec = *ast.report;
  } else {
    sublang::ReportCondition::Atom atom;
    atom.kind = sublang::ReportCondition::Atom::Kind::kImmediate;
    spec.when.atoms.push_back(atom);
  }
  auto report_index = components_.reporter->AddSubscription(
      ast.name, spec, record.recipients, components_.clock->Now(),
      record.query_names);
  if (!report_index.ok()) return fail(report_index.status());
  record.reported = true;
  for (BindingId id : record.bindings) {
    QueryBinding& binding = *bindings_[id];
    binding.report_index = *report_index;
    binding.query_ordinal =
        components_.reporter->QueryOrdinal(*report_index, binding.query_name);
    binding.shares_query =
        std::count_if(record.bindings.begin(), record.bindings.end(),
                      [&](BindingId other) {
                        return bindings_[other]->query_id == binding.query_id;
                      }) > 1;
  }

  // 3. Continuous queries -> trigger engine.
  for (const sublang::ContinuousQueryAst& cq : ast.continuous) {
    Status st = WireContinuousQuery(cq, *report_index, &record);
    if (!st.ok()) return fail(st);
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
    if (!put.ok()) return fail(put);
  }

  return ast.name;
}

Status SubscriptionManager::Unsubscribe(const std::string& name) {
  auto it = subs_.find(name);
  if (it == subs_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  RollbackSubscription(name, &it->second);
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

bool SubscriptionManager::HasQuery(const std::string& subscription,
                                   const std::string& query) const {
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return false;
  const auto& names = it->second.query_names;
  return std::find(names.begin(), names.end(), query) != names.end();
}

}  // namespace xymon::manager
