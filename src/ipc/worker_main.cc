// Shard worker process (DESIGN.md §14): one PipelineShard behind a framed
// socketpair. The supervisor (ShardWorkerProxy) forked us with the wire fd
// dup'd to 3 and passed as argv[1]; everything after the versioned handshake
// is the stage-seam conversation — OpenPartition, subscription replay,
// scattered slots, checkpoint markers, heartbeats, domain queries.
//
// The worker is deliberately single-threaded: slots arrive in scatter order
// and are processed FIFO, so per-URL call order (what the poison tracker and
// the fault plans key on) is identical to a thread-mode shard. Exit codes:
//   0 — clean shutdown (kShutdown frame)
//   2 — supervisor went away (read error / EOF)
//   3 — protocol violation (bad handshake, corrupt frame, unknown type)

#include <unistd.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ipc/wire.h"
#include "src/manager/subscription_manager.h"
#include "src/query/engine.h"
#include "src/reporter/reporter.h"
#include "src/storage/persistent_map.h"
#include "src/system/binding_resolver.h"
#include "src/system/pipeline.h"
#include "src/system/stage_faults.h"
#include "src/trigger/trigger_engine.h"
#include "src/warehouse/warehouse.h"
#include "src/xml/serializer.h"

namespace xymon::ipc {
namespace {

constexpr int kExitClean = 0;
constexpr int kExitSupervisorGone = 2;
constexpr int kExitProtocol = 3;

[[noreturn]] void DieOn(const Status& status) {
  _exit(status.IsCorruption() ? kExitProtocol : kExitSupervisorGone);
}

/// DTD ids must be process-global across the supervisor and every worker
/// (a `DTDID =` condition names the same DTD everywhere), so a worker's
/// warehouse asks the supervisor's central registry over the wire on every
/// cache miss. Frames that arrive while we wait for the answer (queued
/// slots, pings) are stashed FIFO and dispatched after the current slot.
class RemoteDtdRegistry : public warehouse::DtdRegistry {
 public:
  RemoteDtdRegistry(int fd, std::deque<std::string>* pending)
      : fd_(fd), pending_(pending) {}

  uint32_t IdFor(const std::string& dtd_url) override {
    if (dtd_url.empty()) return 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = ids_.find(dtd_url);
      if (it != ids_.end()) return it->second;
    }
    Status s = WriteFrame(fd_, Encode(DtdIdReqMsg{dtd_url}));
    if (!s.ok()) DieOn(s);
    for (;;) {
      std::string payload;
      s = ReadFrame(fd_, &payload);
      if (!s.ok()) DieOn(s);
      MsgType type;
      if (!PeekType(payload, &type)) _exit(kExitProtocol);
      if (type != MsgType::kDtdIdResp) {
        pending_->push_back(std::move(payload));
        continue;
      }
      DtdIdRespMsg resp;
      if (!Decode(payload, &resp).ok()) _exit(kExitProtocol);
      std::lock_guard<std::mutex> lock(mutex_);
      ids_[resp.dtd_url] = resp.id;
      if (resp.dtd_url == dtd_url) return resp.id;
      // A different URL's answer can only be a stale duplicate; keep
      // waiting for ours.
    }
  }

 private:
  int fd_;
  std::deque<std::string>* pending_;
};

/// The worker's component stack — the same stack XylemeMonitor builds, minus
/// everything that lives supervisor-side (outbox delivery, trigger firing,
/// the crawler). The manager exists so subscription replay builds detection
/// structures identical to a thread-mode shard's; the resolver is the shared
/// stage-4a BindingResolver.
class WorkerRuntime {
 public:
  WorkerRuntime(int fd, HelloMsg hello)
      : fd_(fd),
        hello_(std::move(hello)),
        outbox_(reporter::Outbox::Options{0, true}),
        query_engine_(nullptr),
        reporter_(&outbox_, &query_engine_) {
    system::StageFaultPlan plan;
    for (const WireFault& f : hello_.faults) {
      system::StageFaultSpec spec;
      spec.stage = static_cast<system::StageKind>(f.stage);
      spec.kind = static_cast<system::StageFaultKind>(f.kind);
      spec.nth = f.nth;
      spec.stall_ms = f.stall_ms;
      spec.url = f.url;
      plan.faults.push_back(std::move(spec));
    }
    injector_.set_plan(std::move(plan));

    dtd_registry_ = std::make_unique<RemoteDtdRegistry>(fd_, &pending_);
    shard_ = std::make_unique<system::PipelineShard>(
        &classifier_, hello_.max_parse_failures,
        dtd_registry_.get(), hello_.faults.empty() ? nullptr : &injector_);

    query_engine_ = query::QueryEngine(&shard_->warehouse);
    manager::SubscriptionManager::Components components{
        {{&shard_->mqp, &shard_->url_alerter, &shard_->xml_alerter,
          &shard_->html_alerter, &shard_->alert_pipeline}},
        &trigger_engine_,
        &reporter_,
        &query_engine_,
        &clock_};
    manager_ =
        std::make_unique<manager::SubscriptionManager>(components);
    resolver_ =
        std::make_unique<system::BindingResolver>(manager_.get());
  }

  int Run() {
    for (;;) {
      std::string payload;
      if (!pending_.empty()) {
        payload = std::move(pending_.front());
        pending_.pop_front();
      } else {
        Status s = ReadFrame(fd_, &payload);
        if (!s.ok()) DieOn(s);
      }
      MsgType type;
      if (!PeekType(payload, &type)) return kExitProtocol;
      switch (type) {
        case MsgType::kOpenPartition:
          HandleOpenPartition(payload);
          break;
        case MsgType::kSubscribe:
          HandleSubscribe(payload);
          break;
        case MsgType::kUnsubscribe:
          HandleUnsubscribe(payload);
          break;
        case MsgType::kDomainRule:
          HandleDomainRule(payload);
          break;
        case MsgType::kSlot:
          HandleSlot(payload);
          break;
        case MsgType::kCheckpoint:
          HandleCheckpoint(payload);
          break;
        case MsgType::kPing:
          HandlePing(payload);
          break;
        case MsgType::kQueryDomain:
          HandleQueryDomain(payload);
          break;
        case MsgType::kShutdown:
          return kExitClean;
        default:
          return kExitProtocol;
      }
    }
  }

 private:
  template <typename Msg>
  Msg DecodeOrDie(std::string_view payload) {
    Msg msg;
    if (!Decode(payload, &msg).ok()) _exit(kExitProtocol);
    return msg;
  }

  template <typename Msg>
  void Send(const Msg& msg) {
    Status s = WriteFrame(fd_, Encode(msg));
    if (!s.ok()) DieOn(s);
  }

  void Ack(uint64_t seq, const Status& status) {
    Send(CmdAckMsg{seq, static_cast<uint8_t>(status.code()),
                   status.message()});
  }

  void HandleOpenPartition(std::string_view payload) {
    auto msg = DecodeOrDie<OpenPartitionMsg>(payload);
    storage::LogStore::Options log_options;
    log_options.fsync_every_n = msg.fsync_every_n;
    auto store = storage::PersistentMap::Open(msg.path, log_options);
    if (!store.ok()) {
      Ack(msg.seq, store.status());
      return;
    }
    store_ = std::move(store).value();
    store_->SetAutoCheckpoint(msg.auto_checkpoint_bytes);
    Ack(msg.seq, shard_->warehouse.AttachStore(&*store_));
  }

  void HandleSubscribe(std::string_view payload) {
    auto msg = DecodeOrDie<SubscribeMsg>(payload);
    clock_.Set(msg.now);
    // The supervisor already validated, priced and logged the subscription;
    // the replay is forced-privileged so this replica accepts exactly what
    // the primary accepted.
    Result<std::string> result =
        manager_->ReplaySubscribe(msg.text, msg.email);
    Ack(msg.seq, result.ok() ? Status::OK() : result.status());
  }

  void HandleUnsubscribe(std::string_view payload) {
    auto msg = DecodeOrDie<UnsubscribeMsg>(payload);
    clock_.Set(msg.now);
    Ack(msg.seq, manager_->Unsubscribe(msg.name));
  }

  void HandleDomainRule(std::string_view payload) {
    auto msg = DecodeOrDie<DomainRuleMsg>(payload);
    classifier_.AddRule({msg.domain, msg.doctype_name, msg.root_tag,
                         msg.url_substring});
    Ack(msg.seq, Status::OK());
  }

  void HandleSlot(std::string_view payload) {
    auto msg = DecodeOrDie<SlotMsg>(payload);
    clock_.Set(msg.now);
    system::DocJob job;
    job.url = std::move(msg.url);
    job.body = std::move(msg.body);
    job.deletion = msg.deletion != 0;

    // Single-threaded: counter snapshots need no shard lock.
    system::StageCounters before_ingest = shard_->ingest_counts;
    system::StageCounters before_detect = shard_->detect_counts;
    system::StageCounters before_match = shard_->match_counts;
    system::StageCounters before_notify = shard_->notify_counts;

    system::DocOutcome out;
    system::ProcessDocJob(*shard_, job, msg.docid_hint, msg.now,
                          resolver_.get(), &out);

    SlotResultMsg result;
    result.batch = msg.batch;
    result.slot = msg.slot;
    result.processed = out.processed ? 1 : 0;
    result.degraded = out.degraded ? 1 : 0;
    result.alert = out.alert ? 1 : 0;
    result.failed = out.failed ? 1 : 0;
    result.failed_stage = std::move(out.failed_stage);
    result.status_code = static_cast<uint8_t>(out.status.code());
    result.status_message = out.status.message();
    // Each payload string once: the resolver shares one object among the
    // subscribers of a recipe, and different objects may still hold equal
    // strings. Only distinct objects are hashed by their text.
    std::unordered_map<const void*, uint32_t> by_object;
    std::unordered_map<std::string_view, uint32_t> by_text;
    result.actions.reserve(out.actions.size());
    for (const system::DeliveryAction& action : out.actions) {
      const reporter::Payload& payload = action.payload;
      auto [object, fresh] = by_object.try_emplace(payload.identity(), 0);
      if (fresh) {
        const auto next = static_cast<uint32_t>(result.payloads.size());
        auto [text, new_text] = by_text.try_emplace(payload.xml(), next);
        if (new_text) result.payloads.push_back(payload.xml());
        object->second = text->second;
      }
      result.actions.push_back(WireAction{action.binding, object->second});
    }
    auto delta = [](const system::StageCounters& before,
                    const system::StageCounters& after) {
      return WireStageDelta{after.documents - before.documents,
                            after.micros - before.micros};
    };
    result.ingest = delta(before_ingest, shard_->ingest_counts);
    result.detect = delta(before_detect, shard_->detect_counts);
    result.match = delta(before_match, shard_->match_counts);
    result.notify = delta(before_notify, shard_->notify_counts);
    result.document_count = shard_->warehouse.document_count();
    Send(result);
  }

  void HandleCheckpoint(std::string_view payload) {
    auto msg = DecodeOrDie<CheckpointMsg>(payload);
    Status status = shard_->warehouse.CheckpointStorage();
    Send(CheckpointDoneMsg{msg.seq, static_cast<uint8_t>(status.code()),
                           status.message(),
                           shard_->warehouse.document_count()});
  }

  void HandlePing(std::string_view payload) {
    auto msg = DecodeOrDie<PingMsg>(payload);
    Send(PongMsg{msg.token, shard_->warehouse.document_count()});
  }

  void HandleQueryDomain(std::string_view payload) {
    auto msg = DecodeOrDie<QueryDomainMsg>(payload);
    DomainDocsMsg result;
    result.seq = msg.seq;
    for (const auto& [meta, doc] :
         shard_->warehouse.DocumentsInDomain(msg.domain)) {
      DomainDocsMsg::Doc out;
      out.meta.docid = meta->docid;
      out.meta.url = meta->url;
      out.meta.filename = meta->filename;
      out.meta.is_xml = meta->is_xml ? 1 : 0;
      out.meta.doctype_name = meta->doctype_name;
      out.meta.dtd_url = meta->dtd_url;
      out.meta.dtdid = meta->dtdid;
      out.meta.domain = meta->domain;
      out.meta.last_accessed = meta->last_accessed;
      out.meta.last_updated = meta->last_updated;
      out.meta.signature = meta->signature;
      out.meta.status = static_cast<uint8_t>(meta->status);
      if (doc != nullptr && doc->root != nullptr) {
        // Root subtree only; the doctype travels in the fields below
        // (Parse∘Serialize is a fixpoint, so the supervisor's re-parse is
        // lossless).
        out.doc_xml = xml::Serialize(*doc->root);
        out.doctype_name = doc->doctype_name;
        out.dtd_url = doc->dtd_url;
      }
      result.docs.push_back(std::move(out));
    }
    Send(result);
  }

  int fd_;
  HelloMsg hello_;
  SimClock clock_;
  warehouse::DomainClassifier classifier_;
  system::StageFaultInjector injector_;
  /// Frames stashed by RemoteDtdRegistry while it waited for its answer.
  std::deque<std::string> pending_;
  std::unique_ptr<RemoteDtdRegistry> dtd_registry_;
  std::unique_ptr<system::PipelineShard> shard_;
  std::optional<storage::PersistentMap> store_;
  reporter::Outbox outbox_;
  trigger::TriggerEngine trigger_engine_;
  query::QueryEngine query_engine_;
  reporter::Reporter reporter_;
  std::unique_ptr<manager::SubscriptionManager> manager_;
  std::unique_ptr<system::BindingResolver> resolver_;
};

int WorkerMain(int argc, char** argv) {
  if (argc < 2) return kExitProtocol;
  int fd = std::atoi(argv[1]);
  if (fd < 0) return kExitProtocol;
  InstallSigpipeIgnore();

  // Versioned handshake before any state is exchanged.
  std::string payload;
  Status s = ReadFrame(fd, &payload);
  if (!s.ok()) DieOn(s);
  HelloMsg hello;
  if (!Decode(payload, &hello).ok()) return kExitProtocol;
  if (hello.magic != kWireMagic || hello.version != kWireVersion) {
    return kExitProtocol;
  }
  s = WriteFrame(fd, Encode(HelloAckMsg{kWireVersion,
                                        static_cast<uint64_t>(getpid())}));
  if (!s.ok()) DieOn(s);

  WorkerRuntime runtime(fd, std::move(hello));
  return runtime.Run();
}

}  // namespace
}  // namespace xymon::ipc

int main(int argc, char** argv) {
  return xymon::ipc::WorkerMain(argc, argv);
}
