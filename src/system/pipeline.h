#ifndef XYMON_SYSTEM_PIPELINE_H_
#define XYMON_SYSTEM_PIPELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/alerters/pipeline.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/manager/subscription_manager.h"
#include "src/mqp/processor.h"
#include "src/reporter/payload.h"
#include "src/storage/storage_hub.h"
#include "src/system/options.h"
#include "src/warehouse/warehouse.h"

namespace xymon::system {

// ---------------------------------------------------------------------------
// The document flow of Figure 3, restructured as an explicit pipeline with
// named stages:
//
//   stage 1  ingest/diff          Warehouse::Ingest / MarkDeleted
//   stage 2  alert detection      AlertPipeline::BuildAlert (the alerters)
//   stage 3  complex-event match  MonitoringQueryProcessor::Process
//   stage 4  notification         resolve (binding + payload) then deliver
//                                 (reporter / trigger engine / stats)
//
// and made shard-parallel per paper §4.2: "split the flow of documents into
// several partitions and assign a Monitoring Query Processor to each block".
// Each shard owns a warehouse partition plus a full replica of the detection
// structures; documents are partitioned by hash(url), so every version of a
// page meets the same warehouse entry and its diff state.
//
// Delivery stays deterministic regardless of shard count: stages 1–4a run on
// the shard owning the document, but the resulting DeliveryActions are
// replayed by the caller in submission order (ordered gather). A one-shard
// pipeline runs the same scatter/barrier/gather with the shard's stages on
// the caller thread, delivering after the batch like N shards do.
//
// The pipeline is self-healing (DESIGN.md §13): a stage that throws fails
// only its document's DocOutcome, a URL that keeps killing a stage is
// quarantined (the poison tracker), a batch that runs past its deadline is
// failed cleanly by the watchdog (the barrier always releases), and a shard
// marked quarantined can be torn down and rebuilt from its durable
// StorageHub partition (RestartShard).
// ---------------------------------------------------------------------------

/// One unit of work entering the pipeline.
struct DocJob {
  std::string url;
  std::string body;
  /// True = deletion (Warehouse::MarkDeleted) instead of a fetch.
  bool deletion = false;
};

/// One notification of a processed document: the binding it is for and its
/// payload. Produced on the shard, replayed by the DeliverySink on the
/// gather thread in submission order, so the reporter and trigger engine
/// observe the same call sequence for every shard count. The sink looks the
/// binding up for its subscription, query and trigger key (DESIGN.md §15).
struct DeliveryAction {
  manager::BindingId binding = 0;
  /// Shared with the other subscribers of the same recipe on this document;
  /// after Resolve returns, only the gather thread touches it.
  reporter::Payload payload;
};

/// Everything the delivery half of stage 4 needs about one processed job.
struct DocOutcome {
  bool processed = false;  // false only for a failed deletion
  bool degraded = false;   // malformed body absorbed by the warehouse
  bool alert = false;      // at least one strong atomic event detected
  /// Containment verdict: a stage threw, the watchdog gave up on the slot,
  /// the URL was quarantined, or the owning shard was down. `failed_stage`
  /// says which ("ingest"/"detect"/"match"/"notify" for a contained throw;
  /// "deadline", "poisoned", "shard" for the pipeline-level failures) and
  /// `status` carries the detail. Failed outcomes deliver no actions.
  bool failed = false;
  std::string failed_stage;
  Status status;           // deletion jobs: NotFound when the URL is unknown
  std::vector<DeliveryAction> actions;

  /// A failed outcome: `failed` set, `failed_stage` = `stage`.
  static DocOutcome Failure(const char* stage, Status status) {
    DocOutcome out;
    out.failed = true;
    out.failed_stage = stage;
    out.status = std::move(status);
    return out;
  }
};

// -- Per-stage interfaces ----------------------------------------------------
// Small seams over the concrete modules: the pipeline drives these, tests
// can interpose, and each shard gets its own instances.

/// Stage 1 — ingest/diff: versioned storage of the fetch and the delta
/// against the previous version.
class IngestStage {
 public:
  virtual ~IngestStage() = default;
  virtual warehouse::IngestResult Ingest(const warehouse::FetchedContent& page,
                                         Timestamp now,
                                         uint64_t preassigned_docid) = 0;
  virtual Result<warehouse::IngestResult> Delete(const std::string& url,
                                                 Timestamp now) = 0;
};

/// Stage 2 — alert detection: the alerters, assembling at most one alert per
/// document (nullopt = only weak/no events, the load-shedding rule).
class DetectStage {
 public:
  virtual ~DetectStage() = default;
  virtual std::optional<mqp::AlertMessage> Detect(
      const warehouse::IngestResult& ingest, std::string_view raw_body) = 0;
};

/// Stage 3 — complex-event matching (the Monitoring Query Processor).
class MatchStage {
 public:
  virtual ~MatchStage() = default;
  virtual void Match(const mqp::AlertMessage& alert,
                     std::vector<mqp::MqpNotification>* out) = 0;
};

/// Stage 4a — notification resolution: complex-event matches → deliverable
/// actions (binding lookup, per-query dedup, payload assembly). Runs on the
/// shard thread while the IngestResult pointers are still valid, so it must
/// be read-only over shared state; the pipeline quiesces every mutation of
/// that state (Register/Unregister never overlaps a batch).
class NotifyResolver {
 public:
  virtual ~NotifyResolver() = default;
  virtual void Resolve(const warehouse::IngestResult& ingest,
                       const std::vector<mqp::MqpNotification>& matches,
                       DocOutcome* out) const = 0;
};

/// Stage 4b — notification delivery, on the gather thread in submission
/// order (reporter, trigger engine, stats).
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void Deliver(const DocJob& job, DocOutcome& outcome) = 0;
};

// -- Counters & health -------------------------------------------------------

struct StageCounters {
  uint64_t documents = 0;  // documents that entered the stage
  uint64_t micros = 0;     // accumulated wall time inside the stage

  bool operator==(const StageCounters&) const = default;
};

/// Per-shard health (DESIGN.md §13):
///   kHealthy     — normal operation;
///   kDegraded    — a contained stage failure happened recently; recovers to
///                  healthy after SystemOptions::health_recovery_batches
///                  clean batches touching the shard;
///   kQuarantined — the watchdog gave up on the shard (deadline blown or
///                  backpressure wait timed out) or its worker died; the
///                  scatter routes nothing to it until it is restarted.
enum class ShardHealth { kHealthy, kDegraded, kQuarantined };

const char* ShardHealthName(ShardHealth health);

struct ShardStatus {
  ShardHealth health = ShardHealth::kHealthy;
  uint64_t restarts = 0;           // completed RestartShard calls
  uint64_t stage_failures = 0;     // contained stage throws on this shard
  uint64_t deadline_failures = 0;  // watchdog verdicts against this shard

  bool operator==(const ShardStatus&) const = default;
};

/// Supervision telemetry for one shard worker process (none in thread
/// mode).
struct WorkerStatus {
  int pid = -1;
  size_t shard = 0;
  bool alive = false;
  uint64_t restarts = 0;      // successful Respawn calls
  uint64_t crashes = 0;       // unexpected deaths (crash, wedge-kill, EOF)
  uint64_t proto_errors = 0;  // corrupt/unexpected frames from this worker
  /// Milliseconds since the worker's last frame (-1 before the first).
  int64_t last_heartbeat_ms = -1;

  bool operator==(const WorkerStatus&) const = default;
};

struct PipelineStats {
  size_t shards = 0;
  uint64_t batches = 0;
  uint64_t documents = 0;
  /// Deepest shard work queue observed (thread shards only, and only with
  /// more than one: a single shard runs on the caller thread, unqueued).
  uint64_t queue_high_water = 0;
  // -- Self-healing counters ------------------------------------------------
  // Failed documents are counted once, in XylemeMonitor::Stats.
  uint64_t stage_failures = 0;      // contained stage throws, all shards
  uint64_t deadline_exceeded = 0;   // slots failed by the watchdog
  uint64_t poison_rejections = 0;   // jobs short-circuited at scatter
  uint64_t poisoned_urls = 0;       // gauge: currently quarantined URLs
  uint64_t backpressure_waits = 0;  // scatter blocked on a full queue
  uint64_t shard_restarts = 0;      // sum of ShardStatus::restarts
  std::vector<ShardStatus> shard_status;
  // -- Worker-process supervision (process mode only) -----------------------
  uint64_t worker_crashes = 0;      // sum of WorkerStatus::crashes
  uint64_t worker_proto_errors = 0; // sum of WorkerStatus::proto_errors
  uint64_t worker_respawns = 0;     // sum of WorkerStatus::restarts
  std::vector<WorkerStatus> workers;
  StageCounters ingest;  // every document
  StageCounters detect;  // non-degraded documents
  StageCounters match;   // documents that raised an alert
  StageCounters notify;  // documents with >= 1 complex-event match

  bool operator==(const PipelineStats&) const = default;
};

// -- Shards ------------------------------------------------------------------

/// Completion handle for a parallel warehouse checkpoint: each shard
/// checkpoints its partition on its own worker at a batch boundary, while
/// the other shards keep processing documents. Wait() blocks until every
/// shard finished and returns the first error; WaitFor() gives up after a
/// timeout (a checkpoint stuck behind a wedged shard reports
/// DeadlineExceeded instead of blocking the caller forever — the marker
/// stays queued and a later Wait/WaitFor can still collect it).
class CheckpointTicket {
 public:
  explicit CheckpointTicket(size_t shards) : remaining_(shards) {}

  /// One shard's partition finished (or was skipped with an error).
  void Complete(const Status& status) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok() && !status.ok()) status_ = status;
    if (remaining_ > 0 && --remaining_ == 0) cv_.notify_all();
  }

  Status Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
    return status_;
  }

  Status WaitFor(uint64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this] { return remaining_ == 0; })) {
      return Status::DeadlineExceeded(
          "checkpoint still waiting on " + std::to_string(remaining_) +
          " shard(s) after " + std::to_string(timeout_ms) + "ms");
    }
    return status_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t remaining_;
  Status status_;
};

/// Shared state of one in-flight batch. The scatter/gather thread and the
/// shard transports meet only here: jobs are owned by the batch, outcomes
/// are published under `mutex`, and the barrier waits on `remaining`
/// hitting zero. When the watchdog abandons a batch (`abandoned` set under
/// `mutex`), a still-running shard keeps a valid BatchState via its
/// shared_ptr and its result is discarded on publication — nothing dangles
/// even though ProcessBatch already returned.
struct BatchState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<DocJob> jobs;          // immutable once scattered
  Timestamp now = 0;                 // the batch timestamp
  /// Watchdog bound on the barrier and on backpressure waits (nullopt =
  /// wait as long as it takes).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::vector<DocOutcome> outcomes;  // slot-indexed, published under mutex
  std::vector<uint8_t> done;         // slot-indexed completion flags
  size_t remaining = 0;              // slots not yet accounted for
  bool abandoned = false;            // watchdog gave up; discard late results

  /// Accounts for slot `slot` exactly once: stores `outcome` unless the
  /// batch was abandoned, and releases the barrier at zero. Any thread.
  void Publish(size_t slot, DocOutcome outcome);
};

/// One partition of the document flow: a warehouse partition plus a full
/// replica of every detection structure (paper §4.2 — the Subscription
/// Manager "warns each MQP" through SubscriptionManager::DetectionReplica).
struct PipelineShard {
  /// The one way both substrates build a shard (an in-process shard of the
  /// pipeline, or the single shard of a worker process): the URL alerter's
  /// index, the warehouse's parse-failure cap and DTD registry, and, when
  /// `faults` is set, the FaultyStage decorators over the three stage seams.
  PipelineShard(const warehouse::DomainClassifier* classifier,
                uint32_t max_parse_failures,
                warehouse::DtdRegistry* dtd_registry,
                StageFaultInjector* faults);

  // Components (construction order matters: alert_pipeline points at the
  // alerters).
  warehouse::Warehouse warehouse;
  alerters::UrlAlerter url_alerter;
  alerters::XmlAlerter xml_alerter;
  alerters::HtmlAlerter html_alerter;
  alerters::AlertPipeline alert_pipeline;
  mqp::MonitoringQueryProcessor mqp;

  // Stage seams (default adapters over the components above; wrapped by the
  // FaultyStage decorators when fault injection is configured).
  std::unique_ptr<IngestStage> ingest_stage;
  std::unique_ptr<DetectStage> detect_stage;
  std::unique_ptr<MatchStage> match_stage;

  /// Guards health and counters (the proxy's reader thread and the shard's
  /// worker thread write them too).
  mutable std::mutex mutex;

  /// Health and its cumulative counters (transitions documented on
  /// ShardHealth), reported as they are by IngestPipeline::stats().
  ShardStatus status;
  /// Batch sequence number of the last contained failure (degraded→healthy
  /// recovery is measured from here).
  uint64_t last_failure_batch = 0;

  // Stage counters.
  StageCounters ingest_counts;
  StageCounters detect_counts;
  StageCounters match_counts;
  StageCounters notify_counts;
};

/// Runs stages 1–4a of one job on `shard`: ingest/diff, alert detection,
/// complex-event matching and notification resolution, with the containment
/// semantics of DESIGN.md §13 (a throwing stage fails the DocOutcome, not
/// the process) and the per-stage timing merged into the shard's counters.
/// Free-standing so a shard worker *process* (src/ipc/worker_main.cc) runs
/// the identical code path over its own PipelineShard as the in-process
/// transport does.
void ProcessDocJob(PipelineShard& shard, const DocJob& job,
                   uint64_t docid_hint, Timestamp now,
                   const NotifyResolver* resolver, DocOutcome* out);

// -- The shard substrate ------------------------------------------------------

/// A subscription or domain-rule mutation the owner has already applied to
/// the detection replicas in this process. A shard whose replica lives in
/// another process replays it there (DESIGN.md §14).
struct ReplicaCommand {
  enum class Kind { kSubscribe, kUnsubscribe, kDomainRule };

  static ReplicaCommand Subscribe(std::string_view text,
                                  std::string_view email, Timestamp now);
  static ReplicaCommand Unsubscribe(std::string_view name, Timestamp now);
  static ReplicaCommand DomainRule(
      const warehouse::DomainClassifier::Rule& rule);

  Kind kind = Kind::kSubscribe;
  Timestamp now = 0;
  std::string_view text;   // kSubscribe: the subscription text
  std::string_view email;  // kSubscribe: first recipient ("" if none)
  std::string_view name;   // kUnsubscribe: the subscription name
  const warehouse::DomainClassifier::Rule* rule = nullptr;  // kDomainRule
  /// Broadcast number (IngestPipeline::Replicate): every shard's copy of
  /// one broadcast carries the same seq.
  uint64_t seq = 0;
};

/// The seam between the pipeline's one scatter/barrier/ordered-gather and
/// the substrate a shard runs on (DESIGN.md §14): how a slot reaches the
/// shard's stages, how its outcome comes back, and the shard's storage,
/// restart, replication, liveness and telemetry. Two implementations:
/// IngestPipeline's in-process transport (a worker thread with a queue and
/// backpressure, or the caller thread when there is one shard) and
/// ShardWorkerProxy (a supervised worker process over the wire). A transport
/// to another machine would be a third.
///
/// The pipeline's owner serializes every call (see IngestPipeline); a
/// transport publishes outcomes with BatchState::Publish from whatever thread
/// finishes the slot. The defaults are the in-process answers.
class ShardTransport {
 public:
  ShardTransport() = default;
  virtual ~ShardTransport() = default;
  ShardTransport(const ShardTransport&) = delete;
  ShardTransport& operator=(const ShardTransport&) = delete;

  /// Starts the substrate serving `shard`: at construction, and again in
  /// RestartShard with a fresh shard after Stop(). A restart rebuilds the
  /// shard from its durable partition when storage is attached.
  virtual Status Start(PipelineShard* shard) = 0;
  /// Stops the substrate so nothing touches the shard afterwards (joins the
  /// worker thread, or kills the worker process and joins its reader).
  virtual void Stop() = 0;

  /// Hands slot `slot` of `batch` (with its pre-assigned DOCID) to the shard;
  /// its outcome is published through BatchState::Publish. On error the slot
  /// was not taken and the caller fails it; DeadlineExceeded means the
  /// shard stopped draining (a watchdog verdict).
  virtual Status Send(const std::shared_ptr<BatchState>& batch, size_t slot,
                      uint64_t docid_hint) = 0;
  /// Checkpoints the shard's partition at a batch boundary — after every
  /// slot sent before, before any sent after — and completes `ticket`. On
  /// error the ticket was not taken.
  virtual Status Checkpoint(
      const std::shared_ptr<CheckpointTicket>& ticket) = 0;

  /// Attaches the shard to its partition of `hub` (opened and recovered by
  /// the hub) and shows `recovered` the recovered warehouse once.
  virtual Status Attach(
      storage::StorageHub* hub,
      const std::function<void(const warehouse::Warehouse&)>& recovered) = 0;

  /// Replays `command` into a replica outside this process.
  virtual Status Replicate(const ReplicaCommand& command) {
    (void)command;
    return Status::OK();
  }

  /// Appends the shard's documents in `domain` ("" = all) to `out`; the
  /// pointers stay valid until the next call for the same domain or the
  /// next mutation.
  virtual void CollectDocuments(
      std::string_view domain,
      std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>*
          out) = 0;
  virtual uint64_t document_count() const = 0;
  /// Adds the substrate's telemetry (queue depth, worker supervision).
  virtual void AddStats(PipelineStats* out) const = 0;

  /// Death check at a batch boundary: true if the substrate is down.
  virtual bool PollDead() { return false; }
};

// -- The pipeline ------------------------------------------------------------

/// Owns N shards and the batch scatter/gather. Thread-compatible, not
/// thread-safe: the owner (XylemeMonitor) serializes ProcessBatch against
/// every mutation of subscriptions/classifier — that serialization is the
/// quiescing that lets stage 4a read manager state from shard threads.
class IngestPipeline {
 public:
  /// `classifier` is shared by every shard's warehouse; its owner outlives
  /// the pipeline.
  IngestPipeline(const SystemOptions& options,
                 const warehouse::DomainClassifier* classifier);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Stage-4a hook; install before the first batch.
  void set_resolver(const NotifyResolver* resolver) { resolver_ = resolver; }

  /// Which binding ids the owner's manager knows: a worker process naming
  /// another is a protocol error. Install before the first batch (unset:
  /// every id passes).
  void set_binding_check(std::function<bool(manager::BindingId)> check) {
    binding_check_ = std::move(check);
  }

  /// Called at the end of RestartShard with the shard index, after the
  /// replacement shard's transport was started — the owner re-registers
  /// subscriptions on the fresh detection replica
  /// (SubscriptionManager::RebindReplica). It runs even when the start
  /// failed, since the old replica is destroyed either way. A non-ok return
  /// fails the restart (the shard stays quarantined).
  void set_restart_hook(std::function<Status(size_t)> hook) {
    restart_hook_ = std::move(hook);
  }

  size_t shard_count() const { return shards_.size(); }
  PipelineShard& shard(size_t i) { return *shards_[i]; }
  const PipelineShard& shard(size_t i) const { return *shards_[i]; }

  /// Which shard owns `url` (stable FNV-1a hash).
  size_t ShardFor(std::string_view url) const;

  /// The warehouse partition owning `url`.
  warehouse::Warehouse& WarehouseFor(std::string_view url) {
    return shards_[ShardFor(url)]->warehouse;
  }

  /// Aggregated read view over every shard (continuous queries range over
  /// it), merged DOCID-ordered on every substrate. The pointer is stable
  /// across RestartShard.
  const warehouse::DocumentSource* document_source() const;

  /// Runs one batch through stages 1–4: scatter by hash(url) to the owning
  /// shards' transports, one barrier, then gather + deliver to `sink` in
  /// submission order. Blocks until every outcome is delivered (or, with a
  /// batch deadline configured, until the watchdog fails the stragglers).
  /// `outcomes_out`, if non-null, receives the per-slot outcomes (delivery
  /// may have consumed payload strings; `status` and the flags are intact).
  void ProcessBatch(std::vector<DocJob> jobs, Timestamp now, DeliverySink* sink,
                    std::vector<DocOutcome>* outcomes_out = nullptr);

  /// Storage plumbing: attaches shard i to the hub's partition i (the hub
  /// has already opened — and, if the shard count changed, resharded —
  /// every partition). Recovery rebuilds the central DOCID map and the
  /// shared DTD registry from the recovered partitions. The hub's partition
  /// count must equal the shard count.
  Status AttachStorageHub(storage::StorageHub* hub);

  /// Starts a parallel, non-quiescing checkpoint: every shard's transport
  /// checkpoints its partition at a batch boundary. Returns immediately;
  /// Wait() on the ticket for completion. A quarantined shard completes
  /// immediately with Unavailable (its partition is what the upcoming
  /// restart rebuilds from).
  std::shared_ptr<CheckpointTicket> CheckpointWarehousesAsync();

  // -- Self-healing (DESIGN.md §13) -----------------------------------------

  /// True if any shard is quarantined (watchdog verdict or restart failure).
  bool has_unhealthy_shards() const;

  /// Tears down shard `index` (its transport stops first, so nothing
  /// touches the old shard while it is destroyed) and rebuilds it from
  /// durable state: a fresh PipelineShard recovered from its StorageHub
  /// partition by the restarted transport, cumulative counters carried
  /// over, the poison verdicts for its URLs cleared, and the restart hook
  /// invoked so the owner re-registers subscriptions. Caller must hold the
  /// same serialization as ProcessBatch (no batch may be in flight).
  /// Without an attached hub the shard restarts empty — its documents
  /// re-ingest as new on their next fetch.
  Status RestartShard(size_t index);

  /// RestartShard for every quarantined shard; first error wins (remaining
  /// shards are still attempted). `restarted`, if non-null, receives the
  /// number of successful restarts.
  Status RestartUnhealthyShards(size_t* restarted = nullptr);

  /// URLs currently quarantined by the poison tracker, sorted.
  std::vector<std::string> poisoned_urls() const;

  // -- Worker processes (DESIGN.md §14) ---------------------------------------

  /// First error from starting the shard transports in the constructor
  /// (the ctor cannot fail; the owner checks this before going live).
  /// Shards whose worker failed to spawn start quarantined.
  const Status& worker_status() const { return worker_status_; }

  /// Synchronous death sweep over every transport: runs the death path —
  /// fail outstanding work, quarantine the shard — at a deterministic
  /// point, before a batch is scattered, instead of waiting for a reader
  /// thread to notice the EOF.
  void PollWorkers();

  /// Replicated-command broadcast: hands the mutation to every shard's
  /// transport. A worker process applies it (waiting for the ack) and keeps
  /// it for respawn replay; an in-process shard already shares the owner's
  /// replicas. A worker that fails its ack has died — its shard is
  /// quarantined via the death path and the logged command heals it on
  /// restart — so the first error is returned for visibility but the
  /// mutation is never rolled back.
  Status Replicate(ReplicaCommand command);

  /// The worker process serving shard `index` (-1 when not in process mode
  /// or the worker is down) — tests aim their SIGKILLs here.
  int worker_pid(size_t index) const;

  PipelineStats stats() const;
  uint64_t total_document_count() const;

 private:
  class ShardedSource;
  class ThreadTransport;

  std::unique_ptr<PipelineShard> MakeShard();
  bool IsQuarantined(size_t index) const;
  /// Marks shard `index` quarantined (worker death path; any thread).
  void QuarantineShard(size_t index);
  /// Watchdog verdict against shard `index` (deadline blown, or it stopped
  /// draining): quarantined, counted once.
  void MarkStuck(size_t index);
  /// DOCIDs are assigned centrally in submission order for every shard
  /// count (deletions get 0), so ids — and everything derived from them —
  /// are identical at 1 and N shards, and a contained ingest failure cannot
  /// shift the ids of later documents (the slot's id stays reserved for the
  /// URL's retry).
  uint64_t AssignDocid(const DocJob& job);
  /// Post-batch, on the gather thread, in submission order: poison-tracker
  /// updates and shard health transitions derived from the outcomes —
  /// deterministic across shard counts.
  void UpdateBatchAccounting(const std::vector<DocJob>& jobs,
                             const std::vector<DocOutcome>& outcomes);

  SystemOptions options_;
  const warehouse::DomainClassifier* const classifier_;
  const NotifyResolver* resolver_ = nullptr;
  std::function<bool(manager::BindingId)> binding_check_;
  std::function<Status(size_t)> restart_hook_;
  warehouse::DtdRegistry dtd_registry_;
  std::vector<std::unique_ptr<PipelineShard>> shards_;
  std::unique_ptr<ShardedSource> sharded_source_;
  /// One per shard. Declared after shards_ (and the DTD registry the
  /// workers ask) so the transports — whose threads touch the shards — are
  /// destroyed first.
  std::vector<std::unique_ptr<ShardTransport>> transports_;
  Status worker_status_;  // first Start error (ctor cannot fail)
  uint64_t replica_seq_ = 1;

  /// Central DOCID allocation (see AssignDocid).
  std::unordered_map<std::string, uint64_t> docids_;
  uint64_t next_docid_ = 1;

  // Poison tracker (gather thread only): consecutive contained failures per
  // URL, and the URLs past the cap.
  std::unordered_map<std::string, uint32_t> fail_counts_;
  std::unordered_set<std::string> poisoned_;

  // Gather-thread counters.
  uint64_t batches_ = 0;
  uint64_t documents_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t poison_rejections_ = 0;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_PIPELINE_H_
