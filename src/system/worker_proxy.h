#ifndef XYMON_SYSTEM_WORKER_PROXY_H_
#define XYMON_SYSTEM_WORKER_PROXY_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/ipc/wire.h"
#include "src/system/pipeline.h"

namespace xymon::system {

/// Replicated commands (encoded Subscribe/Unsubscribe/DomainRule frames,
/// keyed by seq), held once for every worker of a pipeline: a respawned
/// worker replays them in order to rebuild its detection structures.
class ReplayLog {
 public:
  /// The encoded frame of `command`, appended on the first call for its
  /// seq (every worker of one broadcast shares the entry).
  const std::string& Record(const ReplicaCommand& command);

  const std::vector<std::pair<uint64_t, std::string>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<uint64_t, std::string>> entries_;
};

/// The DocOutcome a worker's SlotResult carries (the stage deltas aside).
/// Each distinct payload string of the result becomes one shared Payload
/// again, as the resolver shared them before the wire copied them
/// (DESIGN.md §15). An action naming a payload the result does not carry,
/// or a binding `known_binding` rejects, makes the frame Corruption.
Result<DocOutcome> OutcomeFromWire(
    ipc::SlotResultMsg msg,
    const std::function<bool(manager::BindingId)>& known_binding);

/// The process substrate for one shard (DESIGN.md §14): a ShardTransport
/// over a fork/exec'd worker process on a socketpair, with the framed wire
/// conversation and the supervision machinery.
///
///   * Send writes a Slot frame; the reader thread publishes the worker's
///     SlotResult with BatchState::Publish. A stale result from an
///     abandoned batch is dropped by its batch sequence number, never
///     misattributed to a newer batch.
///   * Checkpoint completes the shared CheckpointTicket when the worker's
///     partition checkpoint finishes.
///   * A reader thread drains worker→supervisor frames; a heartbeat thread
///     pings on an interval and SIGKILLs a worker whose last frame is older
///     than the timeout (a wedge becomes an EOF becomes the death path).
///   * On death — crash, wedge-kill, or protocol corruption — every
///     outstanding slot fails Unavailable, pending tickets and commands
///     complete Unavailable, and `on_down` lets the pipeline quarantine the
///     shard. The monitor never dies with a worker.
///
/// Thread-safety: the ShardTransport calls come from the pipeline's owner
/// while the reader and heartbeat threads run; Start/Stop require the
/// RestartShard serialization (no batch in flight, single caller).
class ShardWorkerProxy : public ShardTransport {
 public:
  /// Callbacks into the owning pipeline.
  struct Supervision {
    /// Central DTDID assignment (the worker's registry RPCs through here).
    std::function<uint32_t(const std::string&)> dtd_id_for;
    /// Worker went down (crash/wedge/corruption); the pipeline quarantines
    /// the shard. Runs on the reader thread (or the caller of PollDead) —
    /// must not call back into Start/Stop.
    std::function<void(size_t shard_index, const std::string& reason)> on_down;
    /// True for a binding id the supervisor's manager knows; a SlotResult
    /// naming another is a protocol error. Runs on the reader thread while
    /// the slot's batch is in flight (the manager is quiesced).
    std::function<bool(manager::BindingId)> known_binding;
  };

  /// Worker for shard `shard_index` of a pipeline built with `options`
  /// (worker binary, heartbeat bounds, and the Hello frame's knobs and
  /// fault plan) and the pipeline's `classifier`; `replay_log` is shared by
  /// the whole fleet.
  ShardWorkerProxy(size_t shard_index, const SystemOptions& options,
                   const warehouse::DomainClassifier* classifier,
                   std::shared_ptr<ReplayLog> replay_log,
                   Supervision supervision);
  /// Graceful stop: Shutdown frame, bounded wait for exit, SIGKILL fallback.
  ~ShardWorkerProxy() override;

  ShardWorkerProxy(const ShardWorkerProxy&) = delete;
  ShardWorkerProxy& operator=(const ShardWorkerProxy&) = delete;

  /// fork/execs the worker and runs the versioned handshake; on success the
  /// reader and heartbeat threads are live. A restart also points the fresh
  /// worker at its partition file (it recovers from disk itself — the
  /// supervisor never reopens a released partition) and replays the log.
  Status Start(PipelineShard* shard) override;
  /// SIGKILL and tear down (threads joined, child reaped, fd closed).
  /// Expected deaths (this, the destructor) are not counted as crashes and
  /// do not fire on_down.
  void Stop() override;
  /// The write is bounded by the command timeout — a wedged worker
  /// with a full socket buffer yields DeadlineExceeded here instead of
  /// blocking the scatter thread.
  Status Send(const std::shared_ptr<BatchState>& batch, size_t slot,
              uint64_t docid_hint) override;
  Status Checkpoint(const std::shared_ptr<CheckpointTicket>& ticket) override;
  /// Harvests the recovered partition supervisor-side, releases it, and
  /// hands the file to the worker (kept for respawns).
  Status Attach(storage::StorageHub* hub,
                const std::function<void(const warehouse::Warehouse&)>&
                    recovered) override;
  /// Records the command in the replay log, sends it and waits for its ack.
  Status Replicate(const ReplicaCommand& command) override;
  /// A kQueryDomain RPC; the returned documents are re-parsed
  /// (Parse∘Serialize is a fixpoint — lossless) into proxy-owned storage.
  /// A down worker contributes nothing.
  void CollectDocuments(
      std::string_view domain,
      std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>*
          out) override;
  /// Worker warehouse size, piggybacked on SlotResult/Pong/CheckpointDone.
  uint64_t document_count() const override;
  void AddStats(PipelineStats* out) const override;
  /// Synchronous death check (waitpid WNOHANG): runs the death path at a
  /// deterministic point — before a batch is scattered — instead of waiting
  /// for the reader thread to notice the EOF. True if the worker is known
  /// dead (now or earlier).
  bool PollDead() override;

 private:
  struct OwnedDoc {
    warehouse::DocMeta meta;
    xml::Document document;
  };

  Status Spawn();
  /// Tells the worker to open its storage partition (`partition_cmd_`).
  Status SendOpenPartition();
  /// The answer to a Request: a CmdAck's status, or a DomainDocs frame.
  struct Reply {
    Status status;
    ipc::DomainDocsMsg docs;
  };

  /// Sends one already-encoded command frame (carrying `seq`) and waits for
  /// its CmdAck.
  Status Command(uint64_t seq, const std::string& payload);
  /// The one send-and-wait: writes `payload`, a request carrying `seq`, and
  /// waits up to the command timeout for the reader to hand over the
  /// worker's reply. Unavailable if the worker is or goes down,
  /// DeadlineExceeded ("<what> <seq> timed out") if no reply comes.
  Status Request(uint64_t seq, const std::string& payload, const char* what,
                 Reply* reply);
  void Shutdown();
  void ReaderLoop();
  void HeartbeatLoop();
  /// The one-and-only death path; idempotent. `expected` deaths skip the
  /// crash counter and on_down.
  void HandleDown(const std::string& reason, bool proto_error);
  void FailOutstandingLocked(std::unique_lock<std::mutex>& lock);
  Status WriteFrameLocked(const std::string& payload, uint32_t deadline_ms);
  void ReapLocked();
  void JoinThreads();

  const size_t shard_index_;
  const SystemOptions options_;
  const warehouse::DomainClassifier* const classifier_;
  const std::shared_ptr<ReplayLog> replay_log_;
  const Supervision supervision_;
  ipc::HelloMsg hello_;  // built once; every (re)spawn sends it
  bool started_ = false;  // a later Start is a respawn

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // command acks + heartbeat stop
  std::mutex write_mutex_;      // frame writes are atomic units
  int fd_ = -1;
  pid_t pid_ = -1;
  bool spawned_ = false;
  bool dead_ = false;
  bool expected_down_ = false;
  bool reaped_ = false;
  bool stop_heartbeat_ = false;
  std::thread reader_;
  std::thread heartbeat_;

  // The worker's partition command (kept for restarts).
  bool has_partition_ = false;
  ipc::OpenPartitionMsg partition_cmd_;

  // In-flight batch (the only batch, ProcessBatch is serialized).
  std::shared_ptr<BatchState> batch_;
  uint64_t batch_seq_ = 0;
  std::unordered_set<size_t> outstanding_;

  // Pending request/response conversations, keyed by seq.
  std::unordered_set<uint64_t> waiting_;  // seqs a Request waits on
  std::map<uint64_t, Reply> replies_;     // arrived, for a waiting seq
  std::map<uint64_t, std::shared_ptr<CheckpointTicket>> checkpoints_;
  uint64_t query_seq_ = 1u << 20;  // distinct range from command seqs

  PipelineShard* counter_shard_ = nullptr;
  /// Documents handed out by the last CollectDocuments of each domain
  /// (caller thread only).
  std::map<std::string, std::vector<std::unique_ptr<OwnedDoc>>> documents_;

  // Telemetry.
  uint64_t respawns_ = 0;
  uint64_t crashes_ = 0;
  uint64_t proto_errors_ = 0;
  uint64_t ping_token_ = 0;
  uint64_t document_count_ = 0;
  int64_t last_rx_us_ = -1;  // steady-clock micros of the last frame
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_WORKER_PROXY_H_
