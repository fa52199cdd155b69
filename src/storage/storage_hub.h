#ifndef XYMON_STORAGE_STORAGE_HUB_H_
#define XYMON_STORAGE_STORAGE_HUB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/storage/persistent_map.h"

namespace xymon::storage {

/// How to re-scatter the records of a partitioned store when the partition
/// count changes. The hub owns topology and atomicity; the component that
/// writes the records (the warehouse) owns their semantics, so it supplies:
///
///   * route(key, M): the target partitions of `key` under an M-way layout.
///     Most keys hash to exactly one partition; per-partition bookkeeping
///     records (the warehouse counters) replicate to all of them.
///   * merge(key, values): combines the values a replicated key carried
///     across the source partitions into the single value each target gets.
struct ReshardHooks {
  std::function<std::vector<size_t>(std::string_view key,
                                    size_t num_partitions)>
      route;
  std::function<std::string(std::string_view key,
                            const std::vector<std::string>& values)>
      merge;
};

/// Owns every PersistentMap in the system — N warehouse partitions plus any
/// number of flat stores (subscriptions, users, outbox) — behind one small
/// fsynced manifest that records the store names, the partition count, the
/// partition-layout generation, and the last committed checkpoint epoch.
/// The manifest is the single source of truth for storage topology, which
/// decouples it from pipeline topology (DESIGN.md §12):
///
///   * Open() with M partitions against a store written with N != M
///     re-scatters the partitioned records through ReshardHooks, writes the
///     new layout under fresh generation-numbered file names, and commits it
///     with one atomic manifest replace — a crash at any instant leaves
///     either the old N-way layout or the new M-way one, never a mix.
///   * An orphan scan over Env::ListDir removes partition files that belong
///     to another generation or to partition indices beyond the current
///     count (the leftovers of an old layout or an interrupted reshard).
///   * Checkpoints are epoch-coordinated: callers BeginEpoch(), checkpoint
///     each store on whatever thread suits them (warehouse partitions
///     checkpoint on their own pipeline shard threads, concurrently), and
///     CommitEpoch() persists the epoch in the manifest once all stores
///     reached it.
///
/// Every store gets the same auto-checkpoint bound (Options), so the
/// subscription/user/outbox logs no longer grow without bound between
/// explicit checkpoints.
///
/// Thread-safety: Open/store/partition hand out stable pointers; the maps
/// themselves are single-writer (the hub does not lock them). BeginEpoch,
/// CommitEpoch and manifest writes are serialized by an internal mutex.
class StorageHub {
 public:
  struct StoreSpec {
    std::string name;
    std::string path;
  };

  struct Options {
    /// Durability knobs + Env shared by every store and the manifest.
    LogStore::Options log;
    /// Auto-checkpoint bound applied to every store (0 disables).
    size_t auto_checkpoint_bytes = 64u << 20;
    /// Flat (unpartitioned) stores, opened in order.
    std::vector<StoreSpec> stores;
    /// The partitioned store ("" = none). `partitions` is the *desired*
    /// count; if the manifest records a different count the hub reshards
    /// during Open via `reshard`.
    std::string partitioned_name;
    std::string partitioned_path;
    size_t partitions = 1;
    ReshardHooks reshard;
    /// Manifest location; "" derives `<partitioned_path>.manifest` (or
    /// `<first store path>.manifest` when nothing is partitioned).
    std::string manifest_path;
  };

  StorageHub(const StorageHub&) = delete;
  StorageHub& operator=(const StorageHub&) = delete;

  /// Opens (recovering) every configured store, resharding the partitioned
  /// store if the manifest disagrees with the requested partition count,
  /// scanning for and deleting orphaned partition files, and writing the
  /// manifest if it did not exist yet.
  static Result<std::unique_ptr<StorageHub>> Open(const Options& options);

  /// The flat store registered under `name`; nullptr if not configured.
  PersistentMap* store(std::string_view name);

  PersistentMap* partition(size_t i) { return partitions_[i].get(); }
  size_t partition_count() const { return partitions_.size(); }

  /// On-disk file of partition `index` at the committed layout — what a
  /// shard worker process opens for itself in process mode.
  std::string partition_file_path(size_t index) const {
    return PartitionPath(options_.partitioned_path, generation_, index);
  }

  /// Closes partition `index`'s map (partition(index) becomes nullptr) while
  /// keeping the flat stores and the manifest machinery. Process-mode
  /// handoff (DESIGN.md §14): the supervisor harvests what it needs from
  /// the recovered partition, releases it, and the shard's worker process
  /// opens the partition file exclusively. ReopenPartition is refused
  /// afterwards — the workers own the files.
  void ReleasePartition(size_t index);

  /// True once a partition was released (worker processes own the files).
  bool partitions_released() const { return released_; }

  /// Durability knobs every store was opened with — forwarded to worker
  /// processes so they open their partition with identical semantics.
  const LogStore::Options& log_options() const { return options_.log; }
  size_t auto_checkpoint_bytes() const {
    return options_.auto_checkpoint_bytes;
  }

  /// Closes partition `i` and re-opens (recovers) it from its on-disk file
  /// at the committed layout — the storage half of a pipeline shard restart
  /// (DESIGN.md §13): the in-memory state is discarded, the log + last
  /// checkpoint are replayed, and partition(i) returns a fresh pointer.
  /// The caller must guarantee nothing touches the old pointer concurrently
  /// (the monitor quiesces the shard first).
  Status ReopenPartition(size_t index);

  /// Partition-layout generation (bumped by every reshard).
  uint64_t generation() const { return generation_; }

  /// True when Open() had to rewrite the partition layout.
  bool resharded_on_open() const { return resharded_; }

  const std::string& manifest_path() const { return manifest_path_; }

  /// Epoch of the last fully committed coordinated checkpoint (0 = none).
  uint64_t last_committed_epoch() const;

  /// Starts a coordinated checkpoint; returns its epoch (monotonic).
  uint64_t BeginEpoch();

  /// Persists `epoch` in the manifest. Call only after every store has
  /// checkpointed at this epoch; the manifest write is the commit point.
  Status CommitEpoch(uint64_t epoch);

  /// Sequential convenience: checkpoints every flat store and partition,
  /// then commits a fresh epoch. The monitor instead checkpoints
  /// partitions on their shard threads and calls CommitEpoch itself.
  Status CheckpointAll();

  /// On-disk name of partition `index` under `generation` (generation 0
  /// keeps the legacy `base` / `base.s<i>` names, so stores written before
  /// the manifest existed open unchanged).
  static std::string PartitionPath(const std::string& base,
                                   uint64_t generation, size_t index);

 private:
  StorageHub() = default;

  Status WriteManifestLocked();
  Status Reshard(uint64_t old_generation, size_t old_count, size_t new_count);
  Status ScanForOrphans();

  Options options_;
  Env* env_ = nullptr;
  std::string manifest_path_;
  std::vector<std::pair<std::string, std::unique_ptr<PersistentMap>>> stores_;
  std::vector<std::unique_ptr<PersistentMap>> partitions_;
  uint64_t generation_ = 0;
  size_t num_partitions_ = 0;  // committed layout (partitions_ once open)
  bool resharded_ = false;
  bool released_ = false;      // partitions handed to worker processes

  mutable std::mutex mu_;      // guards the epoch state + manifest writes
  uint64_t committed_epoch_ = 0;
  uint64_t next_epoch_ = 0;
};

}  // namespace xymon::storage

#endif  // XYMON_STORAGE_STORAGE_HUB_H_
