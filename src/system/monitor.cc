#include "src/system/monitor.h"

#include <utility>

#include "src/common/string_util.h"
#include "src/xml/serializer.h"

namespace xymon::system {

namespace {

manager::SubscriptionManager::DetectionReplica ReplicaOf(PipelineShard& shard) {
  return {&shard.mqp, &shard.url_alerter, &shard.xml_alerter,
          &shard.html_alerter, &shard.alert_pipeline};
}

// Wires the manager to every shard's detection replica, in shard order —
// every Register/Unregister fans out to all of them (paper §4.2: the
// Subscription Manager "warns each MQP").
manager::SubscriptionManager::Components BuildComponents(
    IngestPipeline* pipeline, trigger::TriggerEngine* trigger_engine,
    reporter::Reporter* reporter, query::QueryEngine* query_engine,
    const Clock* clock) {
  manager::SubscriptionManager::Components components{
      {}, trigger_engine, reporter, query_engine, clock};
  for (size_t i = 0; i < pipeline->shard_count(); ++i) {
    components.replicas.push_back(ReplicaOf(pipeline->shard(i)));
  }
  return components;
}

std::vector<DocJob> JobsFor(const std::vector<webstub::FetchedDoc>& docs) {
  std::vector<DocJob> jobs;
  jobs.reserve(docs.size());
  for (const webstub::FetchedDoc& doc : docs) {
    jobs.push_back(DocJob{doc.url, doc.body, /*deletion=*/false});
  }
  return jobs;
}

}  // namespace

XylemeMonitor::XylemeMonitor(const Clock* clock, const Options& options)
    : clock_(clock),
      pipeline_(options, &classifier_),
      query_engine_(pipeline_.document_source()),
      reporter_(&outbox_, &query_engine_),
      manager_(BuildComponents(&pipeline_, &trigger_engine_, &reporter_,
                               &query_engine_, clock),
               options.validator),
      resolver_(&manager_) {
  pipeline_.set_resolver(&resolver_);
  pipeline_.set_binding_check([this](manager::BindingId id) {
    return manager_.binding(id) != nullptr;
  });
  reporter_.set_web_portal(&web_portal_);
  manager_.set_user_registry(&users_);

  // Subscription half of a shard restart: the pipeline rebuilt the shard's
  // detection structures empty; rebind the manager to the fresh pointers and
  // replay every live registration into them (DESIGN.md §13).
  pipeline_.set_restart_hook([this](size_t index) {
    return manager_.RebindReplica(index, ReplicaOf(pipeline_.shard(index)));
  });

  // Cold-start recovery through the StorageHub, which owns every store and
  // the layout manifest. Opening the hub recovers the warehouse partitions
  // at the manifest's committed layout — resharding them first if
  // num_shards changed since the store was written. Attach order matters
  // only in that the outbox backlog must be restored before anything can
  // Send (re-queued mail keeps its original seq). Subscription recovery
  // rebuilds the MQP hash tree (on every shard), the alerter structures and
  // the trigger engine as a side effect of replay.
  //
  // Construction cannot fail without exceptions; a bad storage path leaves
  // the system running non-durably with the error in storage_status().
  // Callers that need durability use XylemeMonitor::Open.
  const bool any_storage =
      !options.outbox_path.empty() || !options.warehouse_path.empty() ||
      !options.user_registry_path.empty() || !options.storage_path.empty();
  if (!any_storage) return;

  storage::StorageHub::Options hub_options;
  hub_options.log = {options.storage_fsync_every_n, options.env};
  hub_options.auto_checkpoint_bytes = options.auto_checkpoint_bytes;
  if (!options.outbox_path.empty()) {
    hub_options.stores.push_back({"outbox", options.outbox_path});
  }
  if (!options.user_registry_path.empty()) {
    hub_options.stores.push_back({"users", options.user_registry_path});
  }
  if (!options.storage_path.empty()) {
    hub_options.stores.push_back({"subscriptions", options.storage_path});
  }
  if (!options.warehouse_path.empty()) {
    hub_options.partitioned_name = "warehouse";
    hub_options.partitioned_path = options.warehouse_path;
    hub_options.partitions = pipeline_.shard_count();
    hub_options.reshard = warehouse::Warehouse::MakeReshardHooks();
  }

  auto note = [this](Status st) {
    if (storage_status_.ok() && !st.ok()) storage_status_ = st;
  };
  auto hub = storage::StorageHub::Open(hub_options);
  if (!hub.ok()) {
    note(hub.status());
    return;
  }
  hub_ = std::move(hub).value();
  note(outbox_.AttachStore(hub_->store("outbox")));
  if (!options.warehouse_path.empty()) {
    note(pipeline_.AttachStorageHub(hub_.get()));
  }
  note(users_.AttachStore(hub_->store("users")));
  note(manager_.AttachStore(hub_->store("subscriptions")));
  // Replicas outside this process (worker processes) mirror the manager's
  // — replay every recovered subscription into them (and into their replay
  // log, so later respawns get them too). Names come from the subscription
  // text, so replay order cannot shift identities.
  for (const std::string& name : manager_.subscription_names()) {
    const std::string* text = manager_.subscription_text(name);
    if (text == nullptr) continue;
    std::vector<std::string> recipients =
        manager_.subscription_recipients(name);
    note(pipeline_.Replicate(ReplicaCommand::Subscribe(
        *text, recipients.empty() ? "" : recipients[0], clock_->Now())));
  }
}

Result<std::unique_ptr<XylemeMonitor>> XylemeMonitor::Open(
    const Clock* clock, const Options& options) {
  auto monitor = std::make_unique<XylemeMonitor>(clock, options);
  if (!monitor->storage_status().ok()) return monitor->storage_status();
  if (!monitor->pipeline().worker_status().ok()) {
    return monitor->pipeline().worker_status();
  }
  return monitor;
}

Status XylemeMonitor::CheckpointStorage() {
  uint64_t epoch = 0;
  std::shared_ptr<CheckpointTicket> ticket;
  {
    // Flat stores checkpoint inline; warehouse partitions get a checkpoint
    // marker queued on each shard (a batch boundary — batches are scattered
    // under this same mutex, so a marker never lands mid-batch on a shard).
    std::lock_guard<std::mutex> lock(api_mutex_);
    if (hub_ != nullptr) epoch = hub_->BeginEpoch();
    XYMON_RETURN_IF_ERROR(manager_.CheckpointStorage());
    XYMON_RETURN_IF_ERROR(users_.CheckpointStorage());
    XYMON_RETURN_IF_ERROR(outbox_.CheckpointStorage());
    ticket = pipeline_.CheckpointWarehousesAsync();
  }
  // Wait *outside* api_mutex_: the document flow keeps running while the
  // partitions checkpoint on their shard threads — a batch touching only
  // already-finished shards completes mid-checkpoint (no full quiesce).
  XYMON_RETURN_IF_ERROR(ticket->Wait());
  return hub_ != nullptr ? hub_->CommitEpoch(epoch) : Status::OK();
}

Status XylemeMonitor::AddUser(const manager::User& user) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  return users_.AddUser(user);
}

Result<std::string> XylemeMonitor::SubscribeAs(const std::string& user_name,
                                               const std::string& text) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  auto result = manager_.SubscribeAs(user_name, text);
  if (result.ok()) {
    std::optional<manager::User> user = users_.Find(user_name);
    ReplicateLocked(ReplicaCommand::Subscribe(
        text, user.has_value() ? user->email : "", clock_->Now()));
  }
  return result;
}

Result<std::string> XylemeMonitor::Subscribe(const std::string& text,
                                             const std::string& email) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  auto result = manager_.Subscribe(text, email);
  if (result.ok()) {
    ReplicateLocked(ReplicaCommand::Subscribe(text, email, clock_->Now()));
  }
  return result;
}

Status XylemeMonitor::Unsubscribe(const std::string& name) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  Status result = manager_.Unsubscribe(name);
  if (result.ok()) {
    ReplicateLocked(ReplicaCommand::Unsubscribe(name, clock_->Now()));
  }
  return result;
}

void XylemeMonitor::AddDomainRule(warehouse::DomainClassifier::Rule rule) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  ReplicateLocked(ReplicaCommand::DomainRule(rule));
  classifier_.AddRule(std::move(rule));
}

void XylemeMonitor::ReplicateLocked(const ReplicaCommand& command) {
  // A failed broadcast means a worker died mid-command; its shard is
  // quarantined and the replay log carries the command — restart now so the
  // next batch sees a full fleet.
  if (!pipeline_.Replicate(command).ok()) MaybeRestartShardsLocked();
}

void XylemeMonitor::Deliver(const DocJob& job, DocOutcome& outcome) {
  (void)job;
  if (outcome.failed) {
    // Contained stage failure / poison rejection / watchdog deadline: the
    // document produced no durable effect; count it and let the crawler
    // retry the URL on its next round.
    ++stats_.failed_documents;
    return;
  }
  if (!outcome.processed) return;  // failed deletion: nothing entered the flow
  ++stats_.documents_processed;
  if (outcome.degraded) {
    // Malformed body absorbed by the warehouse: count it and move on — the
    // last good version stays live, no alert fires for garbage bytes.
    ++stats_.degraded_documents;
    return;
  }
  if (!outcome.alert) return;
  ++stats_.alerts_raised;

  Timestamp now = clock_->Now();
  const manager::QueryBinding* previous = nullptr;
  for (DeliveryAction& action : outcome.actions) {
    const manager::QueryBinding* binding = manager_.binding(action.binding);
    if (binding == nullptr) continue;
    reporter_.AddNotification(binding->report_index, binding->query_ordinal,
                              std::move(action.payload), now);
    ++stats_.notifications;
    // A binding's payloads are consecutive actions: one trigger event per
    // matched query and document, and only where a continuous query waits
    // on it (§5.2's `when XylemeCompetitors.ChangeInMyProducts`). Deferred
    // to the post-batch epoch barrier (FlushTriggerEventsLocked) so
    // notification-raised continuous queries see the fully ingested batch —
    // the same evaluation point for every shard count.
    if (binding->listened && binding != previous) {
      pending_trigger_events_.push_back(binding->trigger_key);
    }
    previous = binding;
  }
}

void XylemeMonitor::FlushTriggerEventsLocked() {
  if (pending_trigger_events_.empty()) return;
  std::vector<std::string> events;
  events.swap(pending_trigger_events_);
  Timestamp now = clock_->Now();
  for (const std::string& key : events) {
    trigger_engine_.NotifyEvent(key, now);
  }
}

void XylemeMonitor::ProcessJobsLocked(std::vector<DocJob> jobs,
                                      std::vector<DocOutcome>* outcomes) {
  // Kill-at-a-batch-boundary containment: sweep for dead workers and
  // restart quarantined shards *before* scattering, so a worker that died
  // between batches is respawned (recovered from its partition, replayed
  // the subscription log) in time for this batch to see a full fleet.
  pipeline_.PollWorkers();
  MaybeRestartShardsLocked();
  pipeline_.ProcessBatch(std::move(jobs), clock_->Now(), this, outcomes);
  FlushTriggerEventsLocked();
  MaybeRestartShardsLocked();
}

void XylemeMonitor::MaybeRestartShardsLocked() {
  if (!pipeline_.has_unhealthy_shards()) return;
  Status st = pipeline_.RestartUnhealthyShards();
  if (restart_status_.ok() && !st.ok()) restart_status_ = st;
}

void XylemeMonitor::ProcessFetch(const std::string& url,
                                 const std::string& body) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  ProcessJobsLocked({DocJob{url, body, /*deletion=*/false}});
}

void XylemeMonitor::ProcessFetchBatch(
    const std::vector<webstub::FetchedDoc>& docs) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  ProcessJobsLocked(JobsFor(docs));
}

Status XylemeMonitor::ProcessDeletionLocked(const std::string& url) {
  std::vector<DocOutcome> outcomes;
  ProcessJobsLocked({DocJob{url, /*body=*/"", /*deletion=*/true}}, &outcomes);
  return outcomes.empty() ? Status::OK() : outcomes[0].status;
}

Status XylemeMonitor::ProcessDeletion(const std::string& url) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  return ProcessDeletionLocked(url);
}

void XylemeMonitor::ProcessCrawl(webstub::Crawler* crawler) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  for (const auto& [url, period] : manager_.refresh_hints()) {
    crawler->SetRefreshHint(url, period);
  }
  ProcessJobsLocked(JobsFor(crawler->FetchAllDue(clock_->Now())));
  ProcessDocStatusEventsLocked(crawler->TakeEvents());
  quarantined_urls_ = crawler->quarantined_count();
  last_crawler_stats_ = crawler->stats();
}

void XylemeMonitor::ProcessDocStatusEventsLocked(
    const std::vector<webstub::DocStatusEvent>& events) {
  for (const webstub::DocStatusEvent& event : events) {
    switch (event.kind) {
      case webstub::DocStatusEvent::Kind::kDisappeared: {
        ++stats_.disappeared_documents;
        // The paper's `document disappeared` weak event: run the deletion
        // path so `deleted self` subscriptions are notified. A page the
        // warehouse never ingested has nothing to delete — ignore NotFound.
        Status st = ProcessDeletionLocked(event.url);
        (void)st;
        break;
      }
      case webstub::DocStatusEvent::Kind::kReappeared:
        ++stats_.reappeared_documents;
        break;
    }
  }
}

void XylemeMonitor::ProcessDocStatusEvents(
    const std::vector<webstub::DocStatusEvent>& events) {
  std::lock_guard<std::mutex> lock(api_mutex_);
  ProcessDocStatusEventsLocked(events);
}

void XylemeMonitor::Tick() {
  std::lock_guard<std::mutex> lock(api_mutex_);
  Timestamp now = clock_->Now();
  trigger_engine_.Tick(now);
  reporter_.Tick(now);
}

std::string XylemeMonitor::StatusReport() const {
  std::lock_guard<std::mutex> lock(api_mutex_);
  auto root = xml::Node::Element("XylemeStatus");
  root->SetAttribute("date", FormatTimestamp(clock_->Now()));

  xml::Node* flow = root->AddChild(xml::Node::Element("DocumentFlow"));
  flow->SetAttribute("processed", std::to_string(stats_.documents_processed));
  flow->SetAttribute("alerts", std::to_string(stats_.alerts_raised));
  flow->SetAttribute("notifications", std::to_string(stats_.notifications));

  xml::Node* wh = root->AddChild(xml::Node::Element("Warehouse"));
  wh->SetAttribute("documents",
                   std::to_string(pipeline_.total_document_count()));
  wh->SetAttribute("shards", std::to_string(pipeline_.shard_count()));

  xml::Node* subs = root->AddChild(xml::Node::Element("Subscriptions"));
  subs->SetAttribute("count", std::to_string(manager_.subscription_count()));
  subs->SetAttribute("atomic_events",
                     std::to_string(manager_.atomic_event_count()));

  PipelineStats ps = pipeline_.stats();
  const mqp::Matcher& matcher = pipeline_.shard(0).mqp.matcher();
  xml::Node* m = root->AddChild(xml::Node::Element("MQP"));
  m->SetAttribute("algorithm", matcher.name());
  m->SetAttribute("complex_events", std::to_string(matcher.size()));
  m->SetAttribute("memory_bytes", std::to_string(matcher.MemoryUsage()));
  // Documents that reached stage 3, on whichever substrate ran it: worker
  // processes return their stage counters with every slot.
  m->SetAttribute("documents_matched", std::to_string(ps.match.documents));

  xml::Node* trig = root->AddChild(xml::Node::Element("TriggerEngine"));
  trig->SetAttribute("triggers",
                     std::to_string(trigger_engine_.trigger_count()));
  trig->SetAttribute("firings", std::to_string(trigger_engine_.firings()));

  xml::Node* rep = root->AddChild(xml::Node::Element("Reporter"));
  rep->SetAttribute("received",
                    std::to_string(reporter_.notifications_received()));
  rep->SetAttribute("reports", std::to_string(reporter_.reports_generated()));
  rep->SetAttribute("dropped",
                    std::to_string(reporter_.notifications_dropped()));

  xml::Node* out = root->AddChild(xml::Node::Element("Outbox"));
  out->SetAttribute("sent", std::to_string(outbox_.sent_count()));
  out->SetAttribute("queued", std::to_string(outbox_.queued_count()));

  xml::Node* portal = root->AddChild(xml::Node::Element("WebPortal"));
  portal->SetAttribute("published",
                       std::to_string(web_portal_.published_count()));

  xml::Node* pipe = root->AddChild(xml::Node::Element("Pipeline"));
  pipe->SetAttribute("shards", std::to_string(ps.shards));
  pipe->SetAttribute("batches", std::to_string(ps.batches));
  pipe->SetAttribute("documents", std::to_string(ps.documents));
  pipe->SetAttribute("queue_high_water",
                     std::to_string(ps.queue_high_water));
  pipe->SetAttribute("failed_documents",
                     std::to_string(stats_.failed_documents));
  pipe->SetAttribute("stage_failures", std::to_string(ps.stage_failures));
  pipe->SetAttribute("deadline_exceeded",
                     std::to_string(ps.deadline_exceeded));
  pipe->SetAttribute("shard_restarts", std::to_string(ps.shard_restarts));
  pipe->SetAttribute("backpressure_waits",
                     std::to_string(ps.backpressure_waits));
  for (size_t i = 0; i < ps.shard_status.size(); ++i) {
    const ShardStatus& ss = ps.shard_status[i];
    xml::Node* sh = pipe->AddChild(xml::Node::Element("Shard"));
    sh->SetAttribute("index", std::to_string(i));
    sh->SetAttribute("health", ShardHealthName(ss.health));
    sh->SetAttribute("restarts", std::to_string(ss.restarts));
    sh->SetAttribute("stage_failures", std::to_string(ss.stage_failures));
    sh->SetAttribute("deadline_failures",
                     std::to_string(ss.deadline_failures));
  }
  // Worker-process supervision rows (process mode only; absent otherwise so
  // thread-mode reports stay byte-identical to earlier releases).
  for (const WorkerStatus& w : ps.workers) {
    xml::Node* wk = pipe->AddChild(xml::Node::Element("Worker"));
    wk->SetAttribute("pid", std::to_string(w.pid));
    wk->SetAttribute("shard", std::to_string(w.shard));
    wk->SetAttribute("alive", w.alive ? "1" : "0");
    wk->SetAttribute("restarts", std::to_string(w.restarts));
    wk->SetAttribute("crashes", std::to_string(w.crashes));
    wk->SetAttribute("proto_errors", std::to_string(w.proto_errors));
    wk->SetAttribute("last_heartbeat_ms",
                     std::to_string(w.last_heartbeat_ms));
  }
  auto stage = [&](const char* name, const StageCounters& c) {
    xml::Node* s = pipe->AddChild(xml::Node::Element("Stage"));
    s->SetAttribute("name", name);
    s->SetAttribute("documents", std::to_string(c.documents));
    s->SetAttribute("micros", std::to_string(c.micros));
  };
  stage("ingest", ps.ingest);
  stage("detect", ps.detect);
  stage("match", ps.match);
  stage("notify", ps.notify);

  xml::Node* hp = root->AddChild(xml::Node::Element("Health"));
  hp->SetAttribute("fetch_errors",
                   std::to_string(last_crawler_stats_.fetch_errors));
  hp->SetAttribute("retries",
                   std::to_string(last_crawler_stats_.retries_scheduled));
  hp->SetAttribute("quarantined_urls", std::to_string(quarantined_urls_));
  hp->SetAttribute("degraded_documents",
                   std::to_string(stats_.degraded_documents));
  hp->SetAttribute("disappeared", std::to_string(stats_.disappeared_documents));
  hp->SetAttribute("reappeared", std::to_string(stats_.reappeared_documents));
  hp->SetAttribute("failed_documents",
                   std::to_string(stats_.failed_documents));
  hp->SetAttribute("poison_rejections",
                   std::to_string(ps.poison_rejections));
  hp->SetAttribute("shard_restarts", std::to_string(ps.shard_restarts));
  if (!ps.workers.empty()) {
    hp->SetAttribute("worker_crashes", std::to_string(ps.worker_crashes));
    hp->SetAttribute("worker_proto_errors",
                     std::to_string(ps.worker_proto_errors));
    hp->SetAttribute("worker_respawns", std::to_string(ps.worker_respawns));
  }
  for (const std::string& url : pipeline_.poisoned_urls()) {
    xml::Node* pu = hp->AddChild(xml::Node::Element("PoisonedUrl"));
    pu->SetAttribute("url", url);
  }

  return xml::Serialize(*root, {.indent = true});
}

void XylemeMonitor::ApplyRefreshHints(webstub::Crawler* crawler) const {
  std::lock_guard<std::mutex> lock(api_mutex_);
  for (const auto& [url, period] : manager_.refresh_hints()) {
    crawler->SetRefreshHint(url, period);
  }
}

}  // namespace xymon::system
