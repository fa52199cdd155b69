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
#include "src/sublang/validator.h"
#include "src/system/binding_resolver.h"
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
  struct Options {
    /// Document-flow partitions (paper §4.2). 1 runs the shard on the caller
    /// thread; N > 1 runs N shard worker threads (or processes).
    size_t num_shards = 1;
    /// ProcessCrawl batch size: how many due documents are fetched and
    /// pushed through the pipeline per batch. 0 = one batch per round
    /// (everything due at once — the historical behaviour).
    size_t crawl_batch_size = 0;
    /// Trie vs hash `URL extends` structure (see DESIGN.md T-URL).
    bool use_trie_prefixes = false;
    /// Subscription recovery log path; "" disables persistence.
    std::string storage_path;
    /// Warehouse store path; "" keeps the repository in memory only. The
    /// StorageHub opens one partition file per shard and records the layout
    /// in `<path>.manifest` — reopening with a different num_shards
    /// re-scatters the partitions automatically (DESIGN.md §12).
    std::string warehouse_path;
    /// User-registry store path; "" keeps accounts in memory only.
    std::string user_registry_path;
    /// Outbox backlog path; "" loses undelivered reports on restart. With a
    /// path, reports are delivered at-least-once across crashes (seq-number
    /// dedup on the receiving side).
    std::string outbox_path;
    /// Filesystem all stores run on; nullptr = the real one. The crash
    /// sweep injects a FaultyEnv here.
    storage::Env* env = nullptr;
    /// Outbox capacity (0 = unlimited); see bench_reporter.
    uint64_t outbox_daily_capacity = 0;
    /// Consecutive malformed bodies absorbed per warehoused-XML URL before
    /// the type change is accepted (degrade-don't-die; 0 = accept at once).
    uint32_t max_parse_failures_per_url = 3;
    /// fsync the subscription log every N appends (0 = flush only); see
    /// LogStore::Options.
    uint32_t storage_fsync_every_n = 0;
    /// Auto-checkpoint bound the StorageHub applies to *every* store —
    /// warehouse partitions, subscriptions, users, outbox (0 disables).
    size_t auto_checkpoint_bytes = 64u << 20;
    sublang::ValidatorOptions validator;

    // -- Self-healing pipeline (DESIGN.md §13) ------------------------------

    /// Stage containment: a stage that throws fails its document instead of
    /// the process, with poison tracking and shard health accounting. Off
    /// restores the die-on-throw seed behaviour (bench baseline).
    bool fault_containment = true;
    /// Batch deadline in ms (0 = none): the watchdog fails a batch stuck
    /// past it and quarantines the wedged shards. One thread shard runs its
    /// slots inside the scatter and never waits.
    uint32_t batch_deadline_ms = 0;
    /// Consecutive contained stage failures before a URL is quarantined by
    /// the poison tracker (0 = never).
    uint32_t max_stage_failures_per_url = 3;
    /// Shard work-queue high-water mark (0 = unbounded): scatter blocks at
    /// the limit instead of growing the queue without bound.
    size_t queue_high_water_limit = 0;
    /// Clean batches before a degraded shard recovers to healthy.
    uint64_t health_recovery_batches = 3;
    /// Restart quarantined shards from storage automatically after the
    /// batch that quarantined them (and before the next one). Off leaves
    /// them quarantined for the operator (pipeline().RestartShard).
    bool auto_restart_shards = true;
    /// Stage fault injection (tests/benches); owner outlives the monitor.
    StageFaultInjector* stage_faults = nullptr;

    // -- Worker processes (DESIGN.md §14) -----------------------------------

    /// Execution substrate for the shards: kThread (default) runs worker
    /// threads, kProcess runs each shard as a supervised worker *process*
    /// over the framed wire protocol, with heartbeats and kill-and-restart
    /// containment — a crashing or wedged worker costs its shard's slots of
    /// one batch, never the monitor.
    ShardMode shard_mode = ShardMode::kThread;
    /// Worker executable for kProcess; "" falls back to $XYMON_WORKER_BIN.
    std::string worker_binary;
    /// Supervisor→worker ping cadence (0 disables the wedge detector).
    uint32_t worker_heartbeat_interval_ms = 500;
    /// A worker silent for longer than this is SIGKILLed (0 disables).
    uint32_t worker_heartbeat_timeout_ms = 5000;
    /// Bound on worker command round-trips and full-buffer slot writes.
    uint32_t worker_command_timeout_ms = 10000;
  };

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

  /// Operator view of how the system is absorbing web faults: the monitor's
  /// own degrade counters plus the driving crawler's fault/outcome counters
  /// (as of the last ProcessCrawl — the single source of truth for
  /// fetch_errors/retries is the crawler's own stats).
  struct HealthReport {
    uint64_t fetch_errors = 0;      // == crawler.fetch_errors
    uint64_t retries = 0;           // == crawler.retries_scheduled
    uint64_t quarantined_urls = 0;  // gauge, from the last ProcessCrawl
    uint64_t degraded_documents = 0;
    uint64_t disappeared_documents = 0;
    uint64_t reappeared_documents = 0;
    // -- Self-healing pipeline (views over PipelineStats) -------------------
    uint64_t failed_documents = 0;
    uint64_t stage_failures = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t poisoned_urls = 0;      // gauge: poison-tracker quarantine
    uint64_t poison_rejections = 0;
    uint64_t shard_restarts = 0;
    size_t degraded_shards = 0;      // gauge
    size_t quarantined_shards = 0;   // gauge
    webstub::CrawlerStats crawler;

    bool operator==(const HealthReport&) const = default;
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

  /// First error any AttachStorage produced during construction (OK when
  /// all stores opened, or none were configured).
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
  // batch to finish, then applies to all shards (primary + replicas).

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
  /// fetches everything due at the current clock (in batches of
  /// Options::crawl_batch_size), processes each batch, routes the crawler's
  /// doc-status transitions into the alerter chain and refreshes the health
  /// counters. The degrade-don't-die entry point — a faulting web never
  /// aborts the round.
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
  /// operator watches.
  std::string StatusReport() const;

  // -- Component access (read-mostly; used by tests, benches, examples) -----

  const Stats& stats() const { return stats_; }
  HealthReport health() const;
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
  void ProcessJobsLocked(std::vector<DocJob> jobs);
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
  /// After a batch: if the watchdog quarantined any shard and auto-restart
  /// is on, tear the shards down and rebuild them from storage
  /// (IngestPipeline::RestartShard) — the restart hook re-registers every
  /// subscription on the fresh detection replicas. A restart failure parks
  /// in restart_status() and the shard stays quarantined (the scatter
  /// routes around it).
  void MaybeRestartShardsLocked();

  const Clock* clock_;
  size_t crawl_batch_size_;
  bool auto_restart_shards_;
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
