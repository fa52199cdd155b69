#include "src/storage/storage_hub.h"

#include <algorithm>

namespace xymon::storage {
namespace {

/// What the manifest records about the committed layout.
struct ManifestState {
  uint64_t generation = 0;
  size_t partitions = 0;
  uint64_t epoch = 0;
};

bool ParseNumber(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

Result<std::string> ReadFileFully(Env* env, const std::string& path) {
  auto file = env->NewSequentialFile(path);
  if (!file.ok()) return file.status();
  std::string content;
  char buf[4096];
  for (;;) {
    auto n = (*file)->Read(sizeof(buf), buf);
    if (!n.ok()) return n.status();
    if (*n == 0) break;
    content.append(buf, *n);
  }
  return content;
}

/// The manifest is a short text file whose last line carries a CRC-32 of
/// everything before it, so a torn manifest write (impossible under the
/// tmp+rename protocol, but cheap to guard) reads as Corruption rather than
/// as a bogus layout.
Status ParseManifest(const std::string& content, ManifestState* out) {
  size_t crc_pos = content.rfind("crc ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && content[crc_pos - 1] != '\n')) {
    return Status::Corruption("storage manifest: missing crc line");
  }
  uint64_t crc = 0;
  std::string_view crc_line = std::string_view(content).substr(crc_pos + 4);
  if (!crc_line.empty() && crc_line.back() == '\n') {
    crc_line.remove_suffix(1);
  }
  if (!ParseNumber(crc_line, &crc)) {
    return Status::Corruption("storage manifest: malformed crc line");
  }
  const std::string_view body = std::string_view(content).substr(0, crc_pos);
  if (Crc32(body) != static_cast<uint32_t>(crc)) {
    return Status::Corruption("storage manifest: crc mismatch");
  }

  bool saw_header = false;
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string_view::npos) end = body.size();
    std::string_view line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != "xymon-storage-manifest 1") {
        return Status::Corruption("storage manifest: bad header");
      }
      saw_header = true;
      continue;
    }
    size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    std::string_view key = line.substr(0, space);
    std::string_view value = line.substr(space + 1);
    uint64_t number = 0;
    if (key == "generation" && ParseNumber(value, &number)) {
      out->generation = number;
    } else if (key == "partitions" && ParseNumber(value, &number)) {
      out->partitions = static_cast<size_t>(number);
    } else if (key == "epoch" && ParseNumber(value, &number)) {
      out->epoch = number;
    }
    // "partitioned"/"store" lines are informational (names + paths).
  }
  if (!saw_header) return Status::Corruption("storage manifest: empty");
  return Status::OK();
}

/// Parses a partition-file name relative to the base path: "", ".s<i>",
/// ".g<G>", ".g<G>.s<i>", each optionally followed by ".ckpt" or
/// ".ckpt.tmp". Returns false for names that are not partition files (those
/// are left alone by the orphan scan).
bool ParsePartitionSuffix(std::string_view suffix, uint64_t* generation,
                          size_t* index) {
  *generation = 0;
  *index = 0;
  for (std::string_view tail : {std::string_view(".ckpt.tmp"),
                                std::string_view(".ckpt")}) {
    if (suffix.size() >= tail.size() &&
        suffix.substr(suffix.size() - tail.size()) == tail) {
      suffix.remove_suffix(tail.size());
      break;
    }
  }
  auto eat_number = [&suffix](uint64_t* out) {
    size_t digits = 0;
    uint64_t value = 0;
    while (digits < suffix.size() && suffix[digits] >= '0' &&
           suffix[digits] <= '9') {
      value = value * 10 + static_cast<uint64_t>(suffix[digits] - '0');
      ++digits;
    }
    if (digits == 0) return false;
    suffix.remove_prefix(digits);
    *out = value;
    return true;
  };
  if (suffix.rfind(".g", 0) == 0) {
    suffix.remove_prefix(2);
    if (!eat_number(generation)) return false;
  }
  if (suffix.rfind(".s", 0) == 0) {
    suffix.remove_prefix(2);
    uint64_t value = 0;
    if (!eat_number(&value)) return false;
    *index = static_cast<size_t>(value);
  }
  return suffix.empty();
}

}  // namespace

std::string StorageHub::PartitionPath(const std::string& base,
                                      uint64_t generation, size_t index) {
  std::string path = base;
  if (generation > 0) path += ".g" + std::to_string(generation);
  if (index > 0) path += ".s" + std::to_string(index);
  return path;
}

Result<std::unique_ptr<StorageHub>> StorageHub::Open(const Options& options) {
  const bool partitioned = !options.partitioned_name.empty();
  if (!partitioned && options.stores.empty()) {
    return Status::InvalidArgument("StorageHub: no stores configured");
  }

  auto hub = std::unique_ptr<StorageHub>(new StorageHub());
  hub->options_ = options;
  hub->env_ = options.log.env != nullptr ? options.log.env : Env::Default();
  Env* env = hub->env_;

  const std::string base =
      partitioned ? options.partitioned_path : options.stores.front().path;
  hub->manifest_path_ =
      options.manifest_path.empty() ? base + ".manifest" : options.manifest_path;

  // A leftover manifest temp file is a layout change that never committed.
  const std::string manifest_tmp = hub->manifest_path_ + ".tmp";
  if (env->FileExists(manifest_tmp)) {
    XYMON_RETURN_IF_ERROR(env->DeleteFile(manifest_tmp));
    XYMON_RETURN_IF_ERROR(env->SyncDir(DirnameOf(hub->manifest_path_)));
  }

  const size_t desired =
      partitioned ? std::max<size_t>(1, options.partitions) : 0;
  size_t committed = desired;
  bool had_manifest = false;
  if (env->FileExists(hub->manifest_path_)) {
    auto content = ReadFileFully(env, hub->manifest_path_);
    if (!content.ok()) return content.status();
    ManifestState state;
    XYMON_RETURN_IF_ERROR(ParseManifest(*content, &state));
    had_manifest = true;
    hub->generation_ = state.generation;
    hub->committed_epoch_ = state.epoch;
    hub->next_epoch_ = state.epoch;
    if (partitioned && state.partitions > 0) committed = state.partitions;
  } else if (partitioned &&
             (env->FileExists(base) || env->FileExists(base + ".ckpt"))) {
    // Pre-manifest store: the layout is whatever contiguous run of legacy
    // partition files exists on disk.
    size_t probe = 1;
    while (env->FileExists(PartitionPath(base, 0, probe)) ||
           env->FileExists(PartitionPath(base, 0, probe) + ".ckpt")) {
      ++probe;
    }
    committed = probe;
  }

  hub->num_partitions_ = committed;
  bool layout_changed = false;
  if (partitioned && committed != desired) {
    // Drop the leftovers of any interrupted reshard first, so the fresh
    // generation files are written onto clean names.
    XYMON_RETURN_IF_ERROR(hub->ScanForOrphans());
    XYMON_RETURN_IF_ERROR(hub->Reshard(hub->generation_, committed, desired));
    layout_changed = true;
  }

  if (!had_manifest && !layout_changed) {
    std::lock_guard<std::mutex> lock(hub->mu_);
    XYMON_RETURN_IF_ERROR(hub->WriteManifestLocked());
  }

  // Remove partition files the committed layout does not own (an old
  // generation, or indices beyond the partition count).
  if (partitioned) XYMON_RETURN_IF_ERROR(hub->ScanForOrphans());

  // Open (recover) everything at the committed layout, and give every store
  // the same auto-checkpoint bound.
  if (partitioned) {
    for (size_t i = 0; i < hub->num_partitions_; ++i) {
      auto map = PersistentMap::Open(PartitionPath(base, hub->generation_, i),
                                     options.log);
      if (!map.ok()) return map.status();
      auto owned = std::make_unique<PersistentMap>(std::move(map).value());
      owned->SetAutoCheckpoint(options.auto_checkpoint_bytes);
      hub->partitions_.push_back(std::move(owned));
    }
  }
  for (const auto& spec : options.stores) {
    if (hub->store(spec.name) != nullptr || spec.name == options.partitioned_name) {
      return Status::InvalidArgument("StorageHub: duplicate store " +
                                     spec.name);
    }
    auto map = PersistentMap::Open(spec.path, options.log);
    if (!map.ok()) return map.status();
    auto owned = std::make_unique<PersistentMap>(std::move(map).value());
    owned->SetAutoCheckpoint(options.auto_checkpoint_bytes);
    hub->stores_.emplace_back(spec.name, std::move(owned));
  }
  return hub;
}

void StorageHub::ReleasePartition(size_t index) {
  partitions_[index].reset();
  released_ = true;
}

Status StorageHub::ReopenPartition(size_t index) {
  if (index >= partitions_.size()) {
    return Status::InvalidArgument("StorageHub: no partition " +
                                   std::to_string(index));
  }
  if (released_) {
    return Status::FailedPrecondition(
        "StorageHub: partitions were released to worker processes");
  }
  // Release the old map first — its log handle must be closed before the
  // same file is opened for recovery.
  partitions_[index].reset();
  auto map = PersistentMap::Open(
      PartitionPath(options_.partitioned_path, generation_, index),
      options_.log);
  if (!map.ok()) return map.status();
  auto owned = std::make_unique<PersistentMap>(std::move(map).value());
  owned->SetAutoCheckpoint(options_.auto_checkpoint_bytes);
  partitions_[index] = std::move(owned);
  return Status::OK();
}

PersistentMap* StorageHub::store(std::string_view name) {
  for (auto& [store_name, map] : stores_) {
    if (store_name == name) return map.get();
  }
  return nullptr;
}

uint64_t StorageHub::last_committed_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_epoch_;
}

uint64_t StorageHub::BeginEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_epoch_ < committed_epoch_) next_epoch_ = committed_epoch_;
  return ++next_epoch_;
}

Status StorageHub::CommitEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch <= committed_epoch_) return Status::OK();  // stale commit
  committed_epoch_ = epoch;
  return WriteManifestLocked();
}

Status StorageHub::CheckpointAll() {
  const uint64_t epoch = BeginEpoch();
  for (auto& [name, map] : stores_) {
    XYMON_RETURN_IF_ERROR(map->Checkpoint());
  }
  for (auto& partition : partitions_) {
    if (partition != nullptr) XYMON_RETURN_IF_ERROR(partition->Checkpoint());
  }
  return CommitEpoch(epoch);
}

Status StorageHub::WriteManifestLocked() {
  std::string body = "xymon-storage-manifest 1\n";
  body += "generation " + std::to_string(generation_) + "\n";
  body += "partitions " + std::to_string(num_partitions_) + "\n";
  body += "epoch " + std::to_string(committed_epoch_) + "\n";
  if (!options_.partitioned_name.empty()) {
    body += "partitioned " + options_.partitioned_name + " " +
            options_.partitioned_path + "\n";
  }
  for (const auto& spec : options_.stores) {
    body += "store " + spec.name + " " + spec.path + "\n";
  }
  body += "crc " + std::to_string(Crc32(body)) + "\n";

  // tmp + fsync + rename + dir fsync: the rename is the commit point.
  const std::string tmp = manifest_path_ + ".tmp";
  auto file = env_->NewWritableFile(tmp, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status st = (*file)->Append(body);
  if (st.ok()) st = (*file)->Sync();
  if (st.ok()) st = (*file)->Close();
  if (!st.ok()) {
    (void)env_->DeleteFile(tmp);  // Best effort; Open cleans up orphans.
    return st;
  }
  XYMON_RETURN_IF_ERROR(env_->RenameFile(tmp, manifest_path_));
  return env_->SyncDir(DirnameOf(manifest_path_));
}

Status StorageHub::Reshard(uint64_t old_generation, size_t old_count,
                           size_t new_count) {
  if (!options_.reshard.route) {
    return Status::FailedPrecondition(
        "StorageHub: partition count changed from " +
        std::to_string(old_count) + " to " + std::to_string(new_count) +
        " but no ReshardHooks were supplied");
  }
  const std::string& base = options_.partitioned_path;

  // Gather: for every target partition, the values each key carried across
  // the source partitions (in source order, so merges are deterministic).
  std::vector<std::map<std::string, std::vector<std::string>>> gathered(
      new_count);
  for (size_t i = 0; i < old_count; ++i) {
    auto source =
        PersistentMap::Open(PartitionPath(base, old_generation, i), options_.log);
    if (!source.ok()) return source.status();
    for (const auto& [key, value] : source->data()) {
      for (size_t target : options_.reshard.route(key, new_count)) {
        if (target >= new_count) {
          return Status::InvalidArgument(
              "StorageHub: ReshardHooks routed key out of range");
        }
        gathered[target][key].push_back(value);
      }
    }
  }

  // Materialize the new layout under fresh generation-numbered names. The
  // old files stay untouched: a crash anywhere in here recovers the old
  // layout, and the half-written new generation is swept as orphans.
  const uint64_t new_generation = old_generation + 1;
  for (size_t j = 0; j < new_count; ++j) {
    std::map<std::string, std::string> data;
    for (auto& [key, values] : gathered[j]) {
      data[key] = values.size() == 1 || !options_.reshard.merge
                      ? std::move(values.front())
                      : options_.reshard.merge(key, values);
    }
    XYMON_RETURN_IF_ERROR(PersistentMap::WriteSnapshot(
        PartitionPath(base, new_generation, j), data, options_.log));
  }

  // Commit point: the manifest flip makes the new generation the layout.
  generation_ = new_generation;
  num_partitions_ = new_count;
  {
    std::lock_guard<std::mutex> lock(mu_);
    XYMON_RETURN_IF_ERROR(WriteManifestLocked());
  }
  resharded_ = true;
  return Status::OK();
}

Status StorageHub::ScanForOrphans() {
  const std::string& base = options_.partitioned_path;
  const std::string dir = DirnameOf(base);
  auto listing = env_->ListDir(dir);
  if (!listing.ok()) return listing.status();
  bool deleted_any = false;
  for (const std::string& path : *listing) {
    if (path == manifest_path_ || path == manifest_path_ + ".tmp") continue;
    if (path.size() < base.size() ||
        path.compare(0, base.size(), base) != 0) {
      continue;
    }
    if (path.size() > base.size() && path[base.size()] != '.') continue;
    uint64_t generation = 0;
    size_t index = 0;
    if (!ParsePartitionSuffix(std::string_view(path).substr(base.size()),
                              &generation, &index)) {
      continue;
    }
    if (generation == generation_ && index < num_partitions_) continue;
    XYMON_RETURN_IF_ERROR(env_->DeleteFile(path));
    deleted_any = true;
  }
  if (deleted_any) XYMON_RETURN_IF_ERROR(env_->SyncDir(dir));
  return Status::OK();
}

}  // namespace xymon::storage
