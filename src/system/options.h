#ifndef XYMON_SYSTEM_OPTIONS_H_
#define XYMON_SYSTEM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/sublang/validator.h"

namespace xymon::storage {
class Env;
}  // namespace xymon::storage

namespace xymon::system {

class StageFaultInjector;

/// Execution substrate of the shards (DESIGN.md §14). Both run the one
/// scatter/barrier/ordered-gather of IngestPipeline::ProcessBatch behind the
/// ShardTransport seam, so delivered output is identical across modes.
///   kThread  — one worker thread per shard when shards > 1; a single shard
///              runs on the caller thread. The default.
///   kProcess — one supervised worker *process* per shard (any count), each
///              owning its storage partition, spoken to over the framed
///              wire protocol with heartbeats and kill-and-restart
///              containment. A crashing or wedged worker costs its shard's
///              slots of the current batch, never the monitor.
enum class ShardMode { kThread, kProcess };

/// Every setting of the assembled system, declared once: XylemeMonitor
/// (as XylemeMonitor::Options), its IngestPipeline and each
/// ShardWorkerProxy read this one struct.
struct SystemOptions {
  /// Document-flow partitions (paper §4.2). 1 runs the shard on the caller
  /// thread; N > 1 runs N shard worker threads (or processes).
  size_t num_shards = 1;
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
  /// Consecutive malformed bodies absorbed per warehoused-XML URL before
  /// the type change is accepted (degrade-don't-die; 0 = accept at once),
  /// per shard warehouse.
  uint32_t max_parse_failures_per_url = 3;
  /// fsync the subscription log every N appends (0 = flush only); see
  /// LogStore::Options.
  uint32_t storage_fsync_every_n = 0;
  /// Auto-checkpoint bound the StorageHub applies to *every* store —
  /// warehouse partitions, subscriptions, users, outbox (0 disables).
  size_t auto_checkpoint_bytes = 64u << 20;
  sublang::ValidatorOptions validator;

  // -- Self-healing pipeline (DESIGN.md §13) ------------------------------

  /// Batch deadline in ms (0 = none). A batch whose barrier has not
  /// released by then is failed by the watchdog: unprocessed slots get
  /// DeadlineExceeded outcomes and the stuck shards are quarantined. One
  /// thread shard runs its slots inside the scatter and never waits.
  uint32_t batch_deadline_ms = 0;
  /// Consecutive contained stage failures a URL may cause before the
  /// poison tracker quarantines it (0 = never). A successful pass resets
  /// the URL's count; restarting the owning shard clears its verdict.
  uint32_t max_stage_failures_per_url = 3;
  /// Shard work-queue high-water mark (0 = unbounded). At the limit the
  /// scatter blocks until the worker drains (counted in
  /// backpressure_waits); with a batch deadline set, the wait is bounded
  /// by it and a timeout quarantines the shard.
  size_t queue_high_water_limit = 0;
  /// Clean batches touching a degraded shard before it recovers to healthy.
  uint64_t health_recovery_batches = 3;
  /// Stage fault injection (tests/benches; owner outlives the monitor).
  /// Each shard's stages are wrapped in FaultyStage decorators sharing this
  /// injector. In process mode the plan is shipped to every worker in its
  /// Hello frame, so the workers inject the same faults.
  StageFaultInjector* stage_faults = nullptr;

  // -- Worker processes (DESIGN.md §14) -----------------------------------

  /// Execution substrate for the shards (see ShardMode).
  ShardMode shard_mode = ShardMode::kThread;
  /// Worker executable for kProcess; "" falls back to $XYMON_WORKER_BIN.
  std::string worker_binary;
  /// Supervisor→worker ping cadence (0 disables pings and the wedge
  /// detector).
  uint32_t worker_heartbeat_interval_ms = 500;
  /// A worker whose last frame is older than this is SIGKILLed by the
  /// heartbeat thread (0 disables; batch deadlines still apply).
  uint32_t worker_heartbeat_timeout_ms = 5000;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_OPTIONS_H_
