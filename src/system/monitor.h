#ifndef XYMON_SYSTEM_MONITOR_H_
#define XYMON_SYSTEM_MONITOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/manager/subscription_manager.h"
#include "src/mqp/processor.h"
#include "src/query/engine.h"
#include "src/reporter/reporter.h"
#include "src/storage/storage_hub.h"
#include "src/system/binding_resolver.h"
#include "src/system/options.h"
#include "src/system/pipeline.h"
#include "src/trigger/trigger_engine.h"
#include "src/warehouse/warehouse.h"
#include "src/webstub/crawler.h"

namespace xymon::system {

/// The assembled subscription system of Figure 3 — the library's main entry
/// point. The document flow (warehouse → alerters → MQP → notification) runs
/// through an IngestPipeline of one or more hash(url)-partitioned shards
/// (paper §4.2); the monitor wires it to the subscription manager, trigger
/// engine, reporter and query engine, and quiesces the flow around every
/// subscription mutation.
///
///   SimClock clock;
///   XylemeMonitor monitor(&clock);
///   monitor.Subscribe(subscription_text, "user@example.org");
///   monitor.ProcessFetch(url, body);   // per crawled page
///   clock.Advance(kDay);
///   monitor.Tick();                    // continuous queries, reports
class XylemeMonitor : private DeliverySink {
 public:
  /// Every setting, declared once (src/system/options.h).
  using Options = SystemOptions;

  struct Stats {
    uint64_t documents_processed = 0;
    uint64_t alerts_raised = 0;
    uint64_t notifications = 0;
    uint64_t degraded_documents = 0;  // malformed bodies absorbed & skipped
    uint64_t disappeared_documents = 0;
    uint64_t reappeared_documents = 0;
    /// Documents whose DocOutcome came back failed (contained stage throw,
    /// poison rejection, watchdog deadline, shard down).
    uint64_t failed_documents = 0;

    bool operator==(const Stats&) const = default;
  };

  explicit XylemeMonitor(const Clock* clock) : XylemeMonitor(clock, {}) {}
  XylemeMonitor(const Clock* clock, const Options& options);

  XylemeMonitor(const XylemeMonitor&) = delete;
  XylemeMonitor& operator=(const XylemeMonitor&) = delete;

  /// Cold-start factory: constructs the monitor and *checks* recovery. Any
  /// storage path that fails to open or replay fails the whole Open — use
  /// this instead of the constructor when durability matters (the
  /// constructor keeps the historical forgiving behaviour: a bad path
  /// leaves the system running non-durably, see storage_status()).
  ///
  /// Everything rebuilds from disk: warehouse contents (every shard
  /// partition, plus the pipeline's central DOCID map), subscriptions (and
  /// from them the MQP atomic-event-set hash tree on every shard, alerter
  /// registrations and trigger-engine state), user accounts, and the
  /// undelivered outbox backlog.
  static Result<std::unique_ptr<XylemeMonitor>> Open(const Clock* clock,
                                                     const Options& options);

  /// First error opening or attaching a store during construction (OK
  /// when all stores opened, or none were configured).
  const Status& storage_status() const { return storage_status_; }

  /// First error an automatic shard restart produced (OK when none failed
  /// or none ran). A failed restart leaves the shard quarantined; the
  /// document flow keeps running around it.
  const Status& restart_status() const { return restart_status_; }

  /// Coordinated checkpoint of every attached store. Flat stores
  /// (subscriptions, users, outbox) checkpoint inline; each warehouse
  /// partition checkpoints on its own shard thread at a batch boundary —
  /// without quiescing the document flow, so with N > 1 shards a batch
  /// touching only the other shards completes while one partition is still
  /// checkpointing. The hub's manifest records the epoch once every store
  /// finished. Crash-safe at any I/O operation: a torn checkpoint is
  /// discarded on recovery in favour of the previous one plus the log.
  Status CheckpointStorage();

  // -- Subscriptions ----------------------------------------------------------
  // Every mutating call quiesces the document flow: it waits for any running
  // batch to finish, then applies to every shard's detection replica.

  Result<std::string> Subscribe(const std::string& text,
                                const std::string& email);
  Status Unsubscribe(const std::string& name);

  /// Registers an account in the (durable, if configured) user registry.
  Status AddUser(const manager::User& user);
  /// Subscribes on behalf of a registered account (see
  /// SubscriptionManager::SubscribeAs).
  Result<std::string> SubscribeAs(const std::string& user_name,
                                  const std::string& text);

  /// Domain classification rule for the semantic module stand-in.
  void AddDomainRule(warehouse::DomainClassifier::Rule rule);

  // -- The document flow ------------------------------------------------------

  /// Processes one fetched page end-to-end: ingest, alert detection,
  /// complex-event matching, notification delivery, continuous-query
  /// triggers.
  void ProcessFetch(const std::string& url, const std::string& body);

  /// Convenience: process a crawler result.
  void ProcessFetch(const webstub::FetchedDoc& doc) {
    ProcessFetch(doc.url, doc.body);
  }

  /// Batch entry point: pushes a whole crawl result through the pipeline in
  /// one scatter/gather. Delivery order is submission order — identical to
  /// calling ProcessFetch per document, for every shard count.
  void ProcessFetchBatch(const std::vector<webstub::FetchedDoc>& docs);

  /// Drives one acquisition round end-to-end: pushes `refresh` hints,
  /// fetches everything due at the current clock, processes it as one
  /// batch, routes the crawler's doc-status transitions into the alerter
  /// chain and refreshes the health counters. The degrade-don't-die entry
  /// point — a faulting web never aborts the round.
  void ProcessCrawl(webstub::Crawler* crawler);

  /// Routes observed doc-status transitions (paper's weak events) into the
  /// chain: `disappeared` runs the deletion path (deleted-self and URL
  /// conditions fire through the URL alerter), `reappeared` is counted; the
  /// re-ingest happens with the next successful fetch.
  void ProcessDocStatusEvents(const std::vector<webstub::DocStatusEvent>& events);

  /// Explicit page deletion (rare on the web; paper §5.1 footnote).
  Status ProcessDeletion(const std::string& url);

  /// Advances time-driven machinery to clock->Now(): trigger engine
  /// (continuous queries), reporter (periodic conditions, archive GC),
  /// outbox drain.
  void Tick();

  /// Pushes the manager's `refresh` hints into a crawler (§2.2).
  void ApplyRefreshHints(webstub::Crawler* crawler) const;

  /// Self-description: one XML document with the health counters of every
  /// module (documents, alerts, MQP structure, reporter, outbox, portal,
  /// per-stage pipeline counters) — the operational view a warehouse
  /// operator watches. Its <Health> element shows how the system absorbs
  /// web faults: the driving crawler's fetch errors, retries and
  /// quarantined URLs as of the last ProcessCrawl, the monitor's degrade
  /// counters and the pipeline's self-healing counters.
  std::string StatusReport() const;

  // -- Component access (read-mostly; used by tests, benches, examples) -----

  const Stats& stats() const { return stats_; }
  /// Shard 0's warehouse partition (the whole repository when num_shards
  /// is 1). Multi-shard callers use pipeline().WarehouseFor(url).
  warehouse::Warehouse& warehouse() { return pipeline_.shard(0).warehouse; }
  IngestPipeline& pipeline() { return pipeline_; }
  const IngestPipeline& pipeline() const { return pipeline_; }
  PipelineStats pipeline_stats() const { return pipeline_.stats(); }
  reporter::Reporter& reporter() { return reporter_; }
  reporter::Outbox& outbox() { return outbox_; }
  reporter::WebPortal& web_portal() { return web_portal_; }
  manager::SubscriptionManager& manager() { return manager_; }
  const manager::SubscriptionManager& manager() const { return manager_; }
  manager::UserRegistry& user_registry() { return users_; }
  /// Shard 0's MQP (the only one when num_shards is 1).
  const mqp::MonitoringQueryProcessor& mqp() const {
    return pipeline_.shard(0).mqp;
  }
  trigger::TriggerEngine& trigger_engine() { return trigger_engine_; }
  const query::QueryEngine& query_engine() const { return query_engine_; }
  /// The storage hub owning every store; nullptr when no storage path was
  /// configured (or the hub failed to open — see storage_status()).
  storage::StorageHub* storage_hub() { return hub_.get(); }

 private:
  // Stage 4a is the standalone BindingResolver (resolver_ below) — shared
  // verbatim with the shard worker processes. Stage 4b (below) runs on the
  // gather thread, in submission order.
  void Deliver(const DocJob& job, DocOutcome& outcome) override;

  // Unlocked internals; public methods take api_mutex_ and delegate.
  /// The one batch entry sequence: poll workers, restart quarantined
  /// shards, run the batch (per-slot outcomes into `outcomes`, if set),
  /// fire its trigger events, restart what the batch quarantined.
  void ProcessJobsLocked(std::vector<DocJob> jobs,
                         std::vector<DocOutcome>* outcomes = nullptr);
  Status ProcessDeletionLocked(const std::string& url);
  void ProcessDocStatusEventsLocked(
      const std::vector<webstub::DocStatusEvent>& events);
  /// Hands a subscription/domain-rule mutation to the pipeline's replicas
  /// outside this process; a failed broadcast restarts the dead shards.
  void ReplicateLocked(const ReplicaCommand& command);
  /// Fires the trigger events Deliver collected during the current batch —
  /// the post-batch epoch barrier. Notification-raised continuous queries
  /// therefore evaluate against the fully ingested batch, identically for
  /// every shard count (the former §11 timing caveat).
  void FlushTriggerEventsLocked();
  /// After a batch: if the watchdog quarantined any shard, tear the shards
  /// down and rebuild them from storage (IngestPipeline::RestartShard) —
  /// the restart hook re-registers every subscription on the fresh
  /// detection replicas. A restart failure parks in restart_status() and
  /// the shard stays quarantined (the scatter routes around it).
  void MaybeRestartShardsLocked();

  const Clock* clock_;
  warehouse::DomainClassifier classifier_;
  /// Owns every PersistentMap; declared before pipeline_ so the shard
  /// workers (which touch warehouse partitions) join before the stores die.
  std::unique_ptr<storage::StorageHub> hub_;
  IngestPipeline pipeline_;
  trigger::TriggerEngine trigger_engine_;
  reporter::Outbox outbox_;
  reporter::WebPortal web_portal_;
  query::QueryEngine query_engine_;
  reporter::Reporter reporter_;
  manager::UserRegistry users_;
  manager::SubscriptionManager manager_;
  /// Stage 4a over manager_ (declared after it: constructed with its
  /// address, destroyed first).
  BindingResolver resolver_;
  Status storage_status_;
  Status restart_status_;
  Stats stats_;
  /// Trigger events deferred by Deliver until the batch completes (guarded
  /// by api_mutex_, like every delivery structure).
  std::vector<std::string> pending_trigger_events_;
  webstub::CrawlerStats last_crawler_stats_;
  uint64_t quarantined_urls_ = 0;

  /// Serializes every public entry point. A batch holds it for its whole
  /// scatter/gather, so Subscribe/Unsubscribe (and any other mutation)
  /// quiesces: it blocks until the flow drains, then sees no concurrent
  /// shard-thread reads while it rewires the detection structures.
  mutable std::mutex api_mutex_;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_MONITOR_H_
