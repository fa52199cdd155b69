#include "src/system/pipeline.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <set>
#include <thread>
#include <utility>

#include "src/common/hash.h"
#include "src/system/stage_faults.h"
#include "src/system/worker_proxy.h"

namespace xymon::system {

namespace {

using steady = std::chrono::steady_clock;

uint64_t MicrosSince(steady::time_point t0, steady::time_point t1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
}

/// Waits on `cv` for `ready`, until `deadline` if there is one. False means
/// the deadline passed first.
template <typename Pred>
bool WaitUntil(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
               const std::optional<steady::time_point>& deadline, Pred ready) {
  if (!deadline.has_value()) {
    cv.wait(lock, ready);
    return true;
  }
  return cv.wait_until(lock, *deadline, ready);
}

// Default stage adapters: thin seams over the shard's own components.

class WarehouseIngestStage : public IngestStage {
 public:
  explicit WarehouseIngestStage(warehouse::Warehouse* warehouse)
      : warehouse_(warehouse) {}

  warehouse::IngestResult Ingest(const warehouse::FetchedContent& page,
                                 Timestamp now,
                                 uint64_t preassigned_docid) override {
    return warehouse_->Ingest(page, now, preassigned_docid);
  }

  Result<warehouse::IngestResult> Delete(const std::string& url,
                                         Timestamp now) override {
    return warehouse_->MarkDeleted(url, now);
  }

 private:
  warehouse::Warehouse* warehouse_;
};

class AlerterDetectStage : public DetectStage {
 public:
  explicit AlerterDetectStage(const alerters::AlertPipeline* pipeline)
      : pipeline_(pipeline) {}

  std::optional<mqp::AlertMessage> Detect(
      const warehouse::IngestResult& ingest, std::string_view raw_body)
      override {
    return pipeline_->BuildAlert(ingest, raw_body);
  }

 private:
  const alerters::AlertPipeline* pipeline_;
};

class MqpMatchStage : public MatchStage {
 public:
  explicit MqpMatchStage(const mqp::MonitoringQueryProcessor* mqp)
      : mqp_(mqp) {}

  void Match(const mqp::AlertMessage& alert,
             std::vector<mqp::MqpNotification>* out) override {
    mqp_->Process(alert, out);
  }

 private:
  const mqp::MonitoringQueryProcessor* mqp_;
};

}  // namespace

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

PipelineShard::PipelineShard(const warehouse::DomainClassifier* classifier,
                             uint32_t max_parse_failures,
                             warehouse::DtdRegistry* dtd_registry,
                             StageFaultInjector* faults)
    : warehouse(classifier),
      alert_pipeline(&url_alerter, &xml_alerter, &html_alerter),
      ingest_stage(std::make_unique<WarehouseIngestStage>(&warehouse)),
      detect_stage(std::make_unique<AlerterDetectStage>(&alert_pipeline)),
      match_stage(std::make_unique<MqpMatchStage>(&mqp)) {
  warehouse.set_max_parse_failures(max_parse_failures);
  warehouse.set_dtd_registry(dtd_registry);
  if (faults != nullptr) {
    ingest_stage =
        std::make_unique<FaultyIngestStage>(std::move(ingest_stage), faults);
    detect_stage =
        std::make_unique<FaultyDetectStage>(std::move(detect_stage), faults);
    match_stage =
        std::make_unique<FaultyMatchStage>(std::move(match_stage), faults);
  }
}

ReplicaCommand ReplicaCommand::Subscribe(std::string_view text,
                                         std::string_view email,
                                         Timestamp now) {
  ReplicaCommand command;
  command.now = now;
  command.text = text;
  command.email = email;
  return command;
}

ReplicaCommand ReplicaCommand::Unsubscribe(std::string_view name,
                                           Timestamp now) {
  ReplicaCommand command;
  command.kind = Kind::kUnsubscribe;
  command.now = now;
  command.name = name;
  return command;
}

ReplicaCommand ReplicaCommand::DomainRule(
    const warehouse::DomainClassifier::Rule& rule) {
  ReplicaCommand command;
  command.kind = Kind::kDomainRule;
  command.rule = &rule;
  return command;
}

void BatchState::Publish(size_t slot, DocOutcome outcome) {
  bool batch_done;
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (!abandoned) {
      outcomes[slot] = std::move(outcome);
      done[slot] = 1;
    }
    batch_done = --remaining == 0;
  }
  // An abandoned batch's owner is long gone; the notify is harmless (the
  // BatchState lives as long as any shard still references it).
  if (batch_done) cv.notify_all();
}

// Aggregated read view over every shard's partition, re-sorted by DOCID —
// with centrally allocated ids that is submission order, so continuous
// queries see the same binding order at every shard count and on every
// substrate. A single warehouse iterates its entries in hash order, which
// only coincides with submission order by accident; sorting here is what
// makes the order a contract.
class IngestPipeline::ShardedSource : public warehouse::DocumentSource {
 public:
  explicit ShardedSource(const IngestPipeline* pipeline)
      : pipeline_(pipeline) {}

  std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
  DocumentsInDomain(std::string_view domain) const override {
    std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
        out;
    for (const auto& transport : pipeline_->transports_) {
      transport->CollectDocuments(domain, &out);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first->docid < b.first->docid;
    });
    return out;
  }

 private:
  const IngestPipeline* pipeline_;
};

// The in-process substrate. With several shards, a worker thread drains a
// FIFO queue of slots and checkpoint markers; markers ride the same queue,
// so a shard checkpoints exactly at a batch boundary. The barrier waits on
// the BatchState, not on queue emptiness, so a marker draining slowly on
// one shard never blocks the other shards' batches. With one shard there
// is no thread: the caller runs each slot inside Send, so an uncontained
// throw leaves ProcessBatch.
class IngestPipeline::ThreadTransport : public ShardTransport {
 public:
  ThreadTransport(IngestPipeline* pipeline, size_t index)
      : pipeline_(pipeline),
        index_(index),
        threaded_(pipeline->options_.num_shards > 1) {}
  ~ThreadTransport() override { Stop(); }

  Status Start(PipelineShard* shard) override {
    shard_ = shard;
    if (hub_ != nullptr) {
      // Restart: reopen the partition from disk and recover the warehouse
      // from it. The central DOCID map and the DTD registry already cover
      // what it holds (the store is write-through, ids come from the
      // registry), so nothing else is rebuilt.
      XYMON_RETURN_IF_ERROR(hub_->ReopenPartition(index_));
      XYMON_RETURN_IF_ERROR(
          shard->warehouse.AttachStore(hub_->partition(index_)));
    }
    if (threaded_) {
      stop_ = false;
      worker_ = std::thread(&ThreadTransport::Loop, this);
    }
    return Status::OK();
  }

  void Stop() override {
    if (!worker_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    // The join bounds the teardown: the worker drains its queue (leftover
    // checkpoint markers complete with Unavailable, leftover documents
    // belong to abandoned batches and are skipped) and exits. A stage
    // wedged forever blocks here — a thread cannot be killed; a worker
    // process (ShardMode::kProcess) can.
    worker_.join();
  }

  Status Send(const std::shared_ptr<BatchState>& batch, size_t slot,
              uint64_t docid_hint) override {
    if (!threaded_) {
      batch->Publish(slot, Run(*batch, slot, docid_hint));
      return Status::OK();
    }
    const size_t limit = pipeline_->options_.queue_high_water_limit;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (limit > 0 && queue_.size() >= limit) {
        // Backpressure: block until the worker drains. With a deadline the
        // wait is bounded; a timeout is a watchdog verdict on the shard.
        ++backpressure_waits_;
        if (!WaitUntil(cv_, lock, batch->deadline,
                       [&] { return queue_.size() < limit; })) {
          return Status::DeadlineExceeded(
              "batch deadline blown waiting for queue space on shard " +
              std::to_string(index_));
        }
      }
      queue_.push_back(Item{batch, slot, docid_hint, nullptr});
      queue_high_water_ =
          std::max<uint64_t>(queue_high_water_, queue_.size());
    }
    cv_.notify_one();
    return Status::OK();
  }

  Status Checkpoint(const std::shared_ptr<CheckpointTicket>& ticket) override {
    if (!threaded_) {
      ticket->Complete(shard_->warehouse.CheckpointStorage());
      return Status::OK();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(Item{nullptr, 0, 0, ticket});
    }
    cv_.notify_one();
    return Status::OK();
  }

  Status Attach(storage::StorageHub* hub,
                const std::function<void(const warehouse::Warehouse&)>&
                    recovered) override {
    XYMON_RETURN_IF_ERROR(
        shard_->warehouse.AttachStore(hub->partition(index_)));
    hub_ = hub;
    recovered(shard_->warehouse);
    return Status::OK();
  }

  void CollectDocuments(
      std::string_view domain,
      std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>*
          out) override {
    auto part = shard_->warehouse.DocumentsInDomain(domain);
    out->insert(out->end(), part.begin(), part.end());
  }

  uint64_t document_count() const override {
    return shard_->warehouse.document_count();
  }

  void AddStats(PipelineStats* out) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    out->queue_high_water = std::max(out->queue_high_water, queue_high_water_);
    out->backpressure_waits += backpressure_waits_;
  }

 private:
  /// A slot of a batch, or (ticket set) a checkpoint marker.
  struct Item {
    std::shared_ptr<BatchState> batch;
    size_t slot;
    uint64_t docid_hint;
    std::shared_ptr<CheckpointTicket> ticket;
  };

  DocOutcome Run(const BatchState& batch, size_t slot, uint64_t docid_hint) {
    DocOutcome out;
    ProcessDocJob(*shard_, batch.jobs[slot], docid_hint, batch.now,
                  pipeline_->resolver_, &out);
    return out;
  }

  void Loop() {
    std::deque<Item> items;
    while (true) {
      bool stopping;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        stopping = stop_;
        if (queue_.empty()) return;  // stop requested, nothing queued
        items.swap(queue_);
      }
      // The swap emptied the queue: wake any scatter blocked on
      // backpressure.
      cv_.notify_all();
      for (Item& item : items) {
        if (item.ticket != nullptr) {
          // Queue order makes this a batch boundary: every document
          // scattered before the marker has already been processed. Only
          // this shard's later documents wait for the checkpoint; other
          // shards keep going.
          item.ticket->Complete(
              stopping ? Status::Unavailable("shard restarting")
                       : shard_->warehouse.CheckpointStorage());
          continue;
        }
        BatchState& batch = *item.batch;
        bool skip = stopping;
        if (!skip) {
          std::lock_guard<std::mutex> lock(batch.mutex);
          skip = batch.abandoned;
        }
        batch.Publish(item.slot,
                      skip ? DocOutcome() : Run(batch, item.slot,
                                                item.docid_hint));
      }
      items.clear();
    }
  }

  IngestPipeline* const pipeline_;
  const size_t index_;
  const bool threaded_;
  PipelineShard* shard_ = nullptr;
  /// Set by Attach; Start recovers a restarted shard from it.
  storage::StorageHub* hub_ = nullptr;

  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stop_ = false;
  uint64_t queue_high_water_ = 0;
  uint64_t backpressure_waits_ = 0;
  std::thread worker_;  // declared last: it runs over the members above
};

std::unique_ptr<PipelineShard> IngestPipeline::MakeShard() {
  return std::make_unique<PipelineShard>(
      classifier_, options_.max_parse_failures_per_url, &dtd_registry_,
      options_.stage_faults);
}

IngestPipeline::IngestPipeline(const SystemOptions& options,
                               const warehouse::DomainClassifier* classifier)
    : options_(options), classifier_(classifier) {
  options_.num_shards = std::max<size_t>(1, options.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(MakeShard());
  }
  sharded_source_ = std::make_unique<ShardedSource>(this);

  // The one place the substrate is chosen; past here the pipeline speaks
  // only to the ShardTransport seam.
  std::shared_ptr<ReplayLog> replay_log;
  if (options_.shard_mode == ShardMode::kProcess) {
    replay_log = std::make_shared<ReplayLog>();
  }
  transports_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    if (replay_log != nullptr) {
      ShardWorkerProxy::Supervision sup;
      sup.dtd_id_for = [this](const std::string& dtd_url) {
        return dtd_registry_.IdFor(dtd_url);
      };
      sup.on_down = [this](size_t shard_index, const std::string&) {
        QuarantineShard(shard_index);
      };
      sup.known_binding = [this](manager::BindingId id) {
        return !binding_check_ || binding_check_(id);
      };
      transports_.push_back(std::make_unique<ShardWorkerProxy>(
          i, options_, classifier_, replay_log, std::move(sup)));
    } else {
      transports_.push_back(std::make_unique<ThreadTransport>(this, i));
    }
    Status st = transports_[i]->Start(shards_[i].get());
    if (!st.ok()) {
      // The ctor cannot fail: the shard starts quarantined, the owner reads
      // worker_status() before going live.
      if (worker_status_.ok()) worker_status_ = st;
      QuarantineShard(i);
    }
  }
}

IngestPipeline::~IngestPipeline() = default;

bool IngestPipeline::IsQuarantined(size_t index) const {
  std::lock_guard<std::mutex> lock(shards_[index]->mutex);
  return shards_[index]->status.health == ShardHealth::kQuarantined;
}

void IngestPipeline::QuarantineShard(size_t index) {
  PipelineShard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.status.health = ShardHealth::kQuarantined;
}

void IngestPipeline::MarkStuck(size_t index) {
  PipelineShard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.status.health != ShardHealth::kQuarantined) {
    shard.status.health = ShardHealth::kQuarantined;
    ++shard.status.deadline_failures;
  }
}

size_t IngestPipeline::ShardFor(std::string_view url) const {
  return shards_.size() == 1 ? 0 : Fnv1a(url) % shards_.size();
}

const warehouse::DocumentSource* IngestPipeline::document_source() const {
  return sharded_source_.get();
}

uint64_t IngestPipeline::AssignDocid(const DocJob& job) {
  if (job.deletion) return 0;
  auto [it, inserted] = docids_.emplace(job.url, next_docid_);
  if (inserted) ++next_docid_;
  return it->second;
}

void ProcessDocJob(PipelineShard& shard, const DocJob& job,
                   uint64_t docid_hint, Timestamp now,
                   const NotifyResolver* resolver, DocOutcome* outp) {
  DocOutcome& out = *outp;
  StageCounters ingest_delta, detect_delta, match_delta, notify_delta;

  // Containment: a stage that throws fails this document, not the process.
  auto guarded = [&](const char* stage_name, auto&& fn) -> bool {
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      out.failed = true;
      out.failed_stage = stage_name;
      out.status = Status::Unavailable(std::string(stage_name) +
                                       " stage failed: " + e.what());
      return false;
    } catch (...) {
      out.failed = true;
      out.failed_stage = stage_name;
      out.status = Status::Unavailable(std::string(stage_name) +
                                       " stage failed: unknown exception");
      return false;
    }
  };

  auto t0 = steady::now();
  warehouse::IngestResult ingest;
  bool skip_rest = false;
  bool ok = guarded("ingest", [&] {
    if (job.deletion) {
      Result<warehouse::IngestResult> deleted =
          shard.ingest_stage->Delete(job.url, now);
      if (deleted.ok()) {
        out.processed = true;
        ingest = std::move(deleted.value());
      } else {
        out.status = deleted.status();
        skip_rest = true;
      }
    } else {
      ingest = shard.ingest_stage->Ingest({job.url, job.body}, now,
                                          docid_hint);
      out.processed = true;
      if (ingest.degraded) {
        out.degraded = true;
        skip_rest = true;
      }
    }
  });
  auto t1 = steady::now();
  ingest_delta = {1, MicrosSince(t0, t1)};

  std::optional<mqp::AlertMessage> alert;
  if (ok && !skip_rest) {
    ok = guarded("detect", [&] {
      alert = shard.detect_stage->Detect(
          ingest, job.deletion ? std::string_view() : job.body);
    });
    auto t2 = steady::now();
    detect_delta = {1, MicrosSince(t1, t2)};

    if (ok && alert.has_value()) {
      out.alert = true;
      std::vector<mqp::MqpNotification> matches;
      ok = guarded("match", [&] { shard.match_stage->Match(*alert, &matches); });
      auto t3 = steady::now();
      match_delta = {1, MicrosSince(t2, t3)};

      if (ok && !matches.empty() && resolver != nullptr) {
        ok = guarded("notify",
                     [&] { resolver->Resolve(ingest, matches, &out); });
        // Atomicity: a half-resolved document delivers nothing.
        if (!ok) out.actions.clear();
        notify_delta = {1, MicrosSince(t3, steady::now())};
      }
    }
  }

  std::lock_guard<std::mutex> lock(shard.mutex);
  auto merge = [](StageCounters* into, const StageCounters& delta) {
    into->documents += delta.documents;
    into->micros += delta.micros;
  };
  merge(&shard.ingest_counts, ingest_delta);
  merge(&shard.detect_counts, detect_delta);
  merge(&shard.match_counts, match_delta);
  merge(&shard.notify_counts, notify_delta);
}

void IngestPipeline::ProcessBatch(std::vector<DocJob> jobs, Timestamp now,
                                  DeliverySink* sink,
                                  std::vector<DocOutcome>* outcomes_out) {
  const size_t n = jobs.size();
  auto state = std::make_shared<BatchState>();
  state->jobs = std::move(jobs);
  state->now = now;
  if (options_.batch_deadline_ms > 0) {
    state->deadline =
        steady::now() + std::chrono::milliseconds(options_.batch_deadline_ms);
  }
  state->outcomes.resize(n);
  state->done.assign(n, 0);
  state->remaining = n;
  ++batches_;
  documents_ += n;

  // Scatter: pre-assign DOCIDs in submission order (what a 1-shard pipeline
  // would allocate sequentially), then hand each job to the transport of
  // the shard owning its URL — unless the URL is poisoned or the shard is
  // down. A slot that never reaches a shard is published failed here, so
  // the barrier counts every slot exactly once. Poison verdicts only change
  // after the gather, so they are fixed for the whole batch.
  for (size_t i = 0; i < n; ++i) {
    const DocJob& job = state->jobs[i];
    const uint64_t hint = AssignDocid(job);
    if (poisoned_.count(job.url) != 0) {
      ++poison_rejections_;
      state->Publish(i, DocOutcome::Failure(
                            "poisoned",
                            Status::ResourceExhausted(
                                job.url +
                                " quarantined after repeated stage failures")));
      continue;
    }
    const size_t idx = ShardFor(job.url);
    Status st = IsQuarantined(idx)
                    ? Status::Unavailable("shard " + std::to_string(idx) +
                                          " quarantined")
                    : transports_[idx]->Send(state, i, hint);
    if (st.ok()) continue;
    if (st.code() == StatusCode::kDeadlineExceeded) {
      MarkStuck(idx);
      ++deadline_exceeded_;
      state->Publish(i, DocOutcome::Failure("deadline", std::move(st)));
    } else {
      state->Publish(i, DocOutcome::Failure("shard", std::move(st)));
    }
  }

  // Barrier: wait until every slot is accounted for — or, with a deadline,
  // until the watchdog gives up. Abandoning the batch under state->mutex
  // makes late shards discard their results instead of writing into a
  // vector the gather is about to move out of. Without a deadline a worker
  // process still cannot hold the barrier forever: a wedged worker trips
  // the heartbeat timeout, is SIGKILLed, and its death path publishes its
  // slots.
  std::vector<DocOutcome> outcomes;
  std::set<size_t> stuck_shards;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    if (!WaitUntil(state->cv, lock, state->deadline,
                   [&state] { return state->remaining == 0; })) {
      state->abandoned = true;
      for (size_t i = 0; i < n; ++i) {
        if (state->done[i]) continue;
        state->outcomes[i] = DocOutcome::Failure(
            "deadline", Status::DeadlineExceeded(
                            "batch deadline exceeded (" +
                            std::to_string(options_.batch_deadline_ms) +
                            "ms)"));
        ++deadline_exceeded_;
        stuck_shards.insert(ShardFor(state->jobs[i].url));
      }
    }
    outcomes = std::move(state->outcomes);
  }
  for (size_t idx : stuck_shards) MarkStuck(idx);

  // Ordered gather: deliver in submission-slot order, independent of which
  // shard finished first.
  if (sink != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      sink->Deliver(state->jobs[i], outcomes[i]);
    }
  }
  UpdateBatchAccounting(state->jobs, outcomes);
  if (outcomes_out != nullptr) *outcomes_out = std::move(outcomes);
}

void IngestPipeline::UpdateBatchAccounting(
    const std::vector<DocJob>& jobs, const std::vector<DocOutcome>& outcomes) {
  std::vector<uint64_t> failures(shards_.size(), 0);
  std::vector<uint8_t> touched(shards_.size(), 0);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const DocOutcome& o = outcomes[i];
    size_t idx = ShardFor(jobs[i].url);
    touched[idx] = 1;
    if (o.failed) {
      // Pipeline-level failures (poison/deadline/shard-down) are not the
      // document's fault: they neither advance its poison count nor degrade
      // the shard's health here (the watchdog already quarantined it).
      if (o.failed_stage == "poisoned" || o.failed_stage == "deadline" ||
          o.failed_stage == "shard") {
        continue;
      }
      ++failures[idx];
      if (options_.max_stage_failures_per_url > 0 &&
          ++fail_counts_[jobs[i].url] >=
              options_.max_stage_failures_per_url) {
        poisoned_.insert(jobs[i].url);
      }
    } else if (o.processed) {
      // A clean pass resets the URL's consecutive-failure count.
      fail_counts_.erase(jobs[i].url);
    }
  }
  for (size_t idx = 0; idx < shards_.size(); ++idx) {
    if (failures[idx] == 0 && touched[idx] == 0) continue;
    PipelineShard& shard = *shards_[idx];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (failures[idx] > 0) {
      shard.status.stage_failures += failures[idx];
      shard.last_failure_batch = batches_;
      if (shard.status.health == ShardHealth::kHealthy) {
        shard.status.health = ShardHealth::kDegraded;
      }
    } else if (shard.status.health == ShardHealth::kDegraded &&
               batches_ - shard.last_failure_batch >=
                   options_.health_recovery_batches) {
      shard.status.health = ShardHealth::kHealthy;
    }
  }
}

Status IngestPipeline::AttachStorageHub(storage::StorageHub* hub) {
  if (hub->partition_count() != shards_.size()) {
    return Status::InvalidArgument(
        "pipeline has " + std::to_string(shards_.size()) +
        " shards but the storage hub opened " +
        std::to_string(hub->partition_count()) + " partitions");
  }
  // Recovery: rebuild the central URL → DOCID map (ids are always centrally
  // assigned) and re-seed the shared DTD registry from what each partition
  // persisted.
  auto recovered = [this](const warehouse::Warehouse& partition) {
    partition.ForEachMeta([this](const warehouse::DocMeta& meta) {
      docids_[meta.url] = meta.docid;
      next_docid_ = std::max(next_docid_, meta.docid + 1);
    });
    for (const auto& [dtd_url, id] : partition.dtd_ids()) {
      dtd_registry_.Seed(dtd_url, id);
    }
  };
  // First error wins; the remaining shards are still attached.
  Status first_error;
  for (auto& transport : transports_) {
    Status st = transport->Attach(hub, recovered);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

std::shared_ptr<CheckpointTicket> IngestPipeline::CheckpointWarehousesAsync() {
  auto ticket = std::make_shared<CheckpointTicket>(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A wedged shard would never reach the marker. Its partition is exactly
    // what the upcoming restart rebuilds from — skip it.
    Status st = IsQuarantined(i)
                    ? Status::Unavailable(
                          "shard quarantined; partition checkpoint skipped")
                    : transports_[i]->Checkpoint(ticket);
    if (!st.ok()) ticket->Complete(st);
  }
  return ticket;
}

bool IngestPipeline::has_unhealthy_shards() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (IsQuarantined(i)) return true;
  }
  return false;
}

Status IngestPipeline::RestartShard(size_t index) {
  if (index >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(index));
  }
  PipelineShard& old = *shards_[index];
  // Stop the substrate before the old shard is destroyed: no worker thread,
  // and no worker process's reader merging a late result's stage counters,
  // may touch it afterwards.
  transports_[index]->Stop();

  auto fresh = MakeShard();
  // Cumulative bookkeeping survives the restart (operators see monotonic
  // counters); health history rides along, the verdict resets below.
  fresh->status = old.status;
  ++fresh->status.restarts;
  fresh->last_failure_batch = old.last_failure_batch;
  fresh->ingest_counts = old.ingest_counts;
  fresh->detect_counts = old.detect_counts;
  fresh->match_counts = old.match_counts;
  fresh->notify_counts = old.notify_counts;
  // Destroy the old shard before its store is reopened underneath it.
  shards_[index] = std::move(fresh);
  PipelineShard& shard = *shards_[index];

  // Rebuild from durable state (the transport recovers the partition: a
  // thread shard reopens it, a respawned worker process reopens its own
  // file and replays the logged subscription commands).
  Status st = transports_[index]->Start(&shard);
  if (st.ok()) {
    // A rebuilt shard gets a clean poison slate for the URLs it owns.
    for (auto it = fail_counts_.begin(); it != fail_counts_.end();) {
      it = ShardFor(it->first) == index ? fail_counts_.erase(it)
                                        : std::next(it);
    }
    for (auto it = poisoned_.begin(); it != poisoned_.end();) {
      it = ShardFor(*it) == index ? poisoned_.erase(it) : std::next(it);
    }
  }
  // Re-register subscriptions on the fresh detection replica, even when
  // Start failed: the old replica is gone, and the manager must not keep
  // pointing into it.
  if (restart_hook_) {
    Status rebound = restart_hook_(index);
    if (st.ok()) st = rebound;
  }
  // Failing leaves the shard quarantined: the caller sees the error and
  // the scatter keeps routing around it.
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.status.health =
      st.ok() ? ShardHealth::kHealthy : ShardHealth::kQuarantined;
  return st;
}

Status IngestPipeline::RestartUnhealthyShards(size_t* restarted) {
  Status first_error;
  size_t count = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!IsQuarantined(i)) continue;
    Status st = RestartShard(i);
    if (st.ok()) {
      ++count;
    } else if (first_error.ok()) {
      first_error = st;
    }
  }
  if (restarted != nullptr) *restarted = count;
  return first_error;
}

std::vector<std::string> IngestPipeline::poisoned_urls() const {
  std::vector<std::string> out(poisoned_.begin(), poisoned_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void IngestPipeline::PollWorkers() {
  for (size_t i = 0; i < transports_.size(); ++i) {
    // A worker's death path quarantined its shard for an unexpected death;
    // this covers the rest (spawn never succeeded, respawn failed) so the
    // scatter routes around the dead worker either way.
    if (transports_[i]->PollDead()) QuarantineShard(i);
  }
}

Status IngestPipeline::Replicate(ReplicaCommand command) {
  command.seq = replica_seq_++;
  Status first_error;
  for (auto& transport : transports_) {
    Status st = transport->Replicate(command);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

int IngestPipeline::worker_pid(size_t index) const {
  PipelineStats own;
  if (index < transports_.size()) transports_[index]->AddStats(&own);
  if (own.workers.empty() || !own.workers[0].alive) return -1;
  return own.workers[0].pid;
}

PipelineStats IngestPipeline::stats() const {
  PipelineStats out;
  out.shards = shards_.size();
  out.batches = batches_;
  out.documents = documents_;
  out.deadline_exceeded = deadline_exceeded_;
  out.poison_rejections = poison_rejections_;
  out.poisoned_urls = poisoned_.size();
  auto add = [](StageCounters* into, const StageCounters& from) {
    into->documents += from.documents;
    into->micros += from.micros;
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    {
      const PipelineShard& shard = *shards_[i];
      std::lock_guard<std::mutex> lock(shard.mutex);
      out.stage_failures += shard.status.stage_failures;
      out.shard_restarts += shard.status.restarts;
      out.shard_status.push_back(shard.status);
      add(&out.ingest, shard.ingest_counts);
      add(&out.detect, shard.detect_counts);
      add(&out.match, shard.match_counts);
      add(&out.notify, shard.notify_counts);
    }
    transports_[i]->AddStats(&out);
  }
  return out;
}

uint64_t IngestPipeline::total_document_count() const {
  uint64_t total = 0;
  for (const auto& transport : transports_) {
    total += transport->document_count();
  }
  return total;
}

}  // namespace xymon::system
