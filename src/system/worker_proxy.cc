#include "src/system/worker_proxy.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string_view>

#include "src/system/stage_faults.h"
#include "src/xml/parser.h"

namespace xymon::system {

namespace {

/// Bound on worker command round-trips (handshake, subscription broadcast
/// acks, checkpoints, domain queries) and on slot writes into a full socket
/// buffer.
constexpr uint32_t kCommandTimeoutMs = 10000;

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<DocOutcome> OutcomeFromWire(
    ipc::SlotResultMsg msg,
    const std::function<bool(manager::BindingId)>& known_binding) {
  DocOutcome out;
  out.processed = msg.processed != 0;
  out.degraded = msg.degraded != 0;
  out.alert = msg.alert != 0;
  out.failed = msg.failed != 0;
  out.failed_stage = std::move(msg.failed_stage);
  out.status =
      ipc::DecodeStatus(msg.status_code, std::move(msg.status_message));
  std::vector<reporter::Payload> payloads;
  payloads.reserve(msg.payloads.size());
  for (std::string& xml : msg.payloads) payloads.emplace_back(std::move(xml));
  out.actions.reserve(msg.actions.size());
  for (const ipc::WireAction& a : msg.actions) {
    if (a.payload >= payloads.size()) {
      return Status::Corruption("wire: SlotResult action names payload " +
                                std::to_string(a.payload) + " of " +
                                std::to_string(payloads.size()));
    }
    if (known_binding && !known_binding(a.binding)) {
      return Status::Corruption("wire: SlotResult names unknown binding " +
                                std::to_string(a.binding));
    }
    out.actions.push_back(DeliveryAction{a.binding, payloads[a.payload]});
  }
  return out;
}

const std::string& ReplayLog::Record(const ReplicaCommand& command) {
  if (!entries_.empty() && entries_.back().first == command.seq) {
    return entries_.back().second;
  }
  std::string payload;
  switch (command.kind) {
    case ReplicaCommand::Kind::kSubscribe: {
      ipc::SubscribeMsg msg;
      msg.seq = command.seq;
      msg.now = command.now;
      // The manager already validated and budgeted the subscription; the
      // worker replays it verbatim, so the privilege check must not re-run.
      msg.privileged = 1;
      msg.text = command.text;
      msg.email = command.email;
      payload = ipc::Encode(msg);
      break;
    }
    case ReplicaCommand::Kind::kUnsubscribe: {
      ipc::UnsubscribeMsg msg;
      msg.seq = command.seq;
      msg.now = command.now;
      msg.name = command.name;
      payload = ipc::Encode(msg);
      break;
    }
    case ReplicaCommand::Kind::kDomainRule: {
      ipc::DomainRuleMsg msg;
      msg.seq = command.seq;
      msg.domain = command.rule->domain;
      msg.doctype_name = command.rule->doctype_name;
      msg.root_tag = command.rule->root_tag;
      msg.url_substring = command.rule->url_substring;
      payload = ipc::Encode(msg);
      break;
    }
  }
  entries_.emplace_back(command.seq, std::move(payload));
  return entries_.back().second;
}

ShardWorkerProxy::ShardWorkerProxy(
    size_t shard_index, const SystemOptions& options,
    const warehouse::DomainClassifier* classifier,
    std::shared_ptr<ReplayLog> replay_log, Supervision supervision)
    : shard_index_(shard_index),
      options_(options),
      classifier_(classifier),
      replay_log_(std::move(replay_log)),
      supervision_(std::move(supervision)) {
  hello_.max_parse_failures = options.max_parse_failures_per_url;
  if (options.stage_faults != nullptr) {
    for (const StageFaultSpec& f : options.stage_faults->plan().faults) {
      ipc::WireFault wf;
      wf.stage = static_cast<uint8_t>(f.stage);
      wf.kind = static_cast<uint8_t>(f.kind);
      wf.nth = f.nth;
      wf.stall_ms = f.stall_ms;
      wf.url = f.url;
      hello_.faults.push_back(std::move(wf));
    }
  }
}

ShardWorkerProxy::~ShardWorkerProxy() { Shutdown(); }

Status ShardWorkerProxy::Start(PipelineShard* shard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counter_shard_ = shard;
  }
  const bool respawn = started_;
  started_ = true;
  XYMON_RETURN_IF_ERROR(Spawn());
  if (has_partition_) XYMON_RETURN_IF_ERROR(SendOpenPartition());
  // Full command history, in order: subscriptions AND unsubscriptions, so
  // the fresh replicas converge on the same subscription numbering.
  for (const auto& [seq, payload] : replay_log_->entries()) {
    XYMON_RETURN_IF_ERROR(Command(seq, payload));
  }
  if (respawn) {
    std::lock_guard<std::mutex> lock(mutex_);
    respawns_++;
  }
  return Status::OK();
}

Status ShardWorkerProxy::Spawn() {
  std::string binary = options_.worker_binary;
  if (binary.empty()) {
    const char* env = std::getenv("XYMON_WORKER_BIN");
    if (env != nullptr) binary = env;
  }
  if (binary.empty()) {
    return Status::InvalidArgument(
        "worker proxy: no worker binary (Options::worker_binary or "
        "$XYMON_WORKER_BIN)");
  }
  ipc::InstallSigpipeIgnore();

  // CLOEXEC keeps this proxy's socket out of siblings spawned later: a
  // leaked copy of the write end in another worker would hold the reader's
  // EOF hostage after this worker dies.
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::IOError("worker proxy: socketpair failed");
  }

  pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    return Status::IOError("worker proxy: fork failed");
  }
  if (pid == 0) {
    // Child, forked from a threaded supervisor: only async-signal-safe
    // calls until exec. dup2 clears CLOEXEC on the worker's end — unless
    // that end already is fd 3 (the supervisor started with fd 0, 1 or 2
    // closed), where dup2 is a no-op and the flag must be cleared by hand.
    if (sv[1] == 3) {
      if (fcntl(3, F_SETFD, 0) < 0) _exit(126);
    } else if (dup2(sv[1], 3) < 0) {
      _exit(126);
    }
    char arg_fd[] = "3";
    char* argv[] = {const_cast<char*>(binary.c_str()), arg_fd, nullptr};
    execv(binary.c_str(), argv);
    _exit(127);
  }
  close(sv[1]);

  auto abort_spawn = [&](Status status) {
    kill(pid, SIGKILL);
    int wstatus = 0;
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    close(sv[0]);
    return status;
  };

  // Versioned handshake before any state: Hello out, HelloAck back, both
  // bounded — a worker that never answers is killed here, not waited on.
  Status s = ipc::WriteFrame(sv[0], ipc::Encode(hello_), kCommandTimeoutMs);
  if (!s.ok()) return abort_spawn(std::move(s));
  std::string payload;
  s = ipc::ReadFrame(sv[0], &payload, kCommandTimeoutMs);
  if (!s.ok()) return abort_spawn(std::move(s));
  ipc::HelloAckMsg ack;
  s = ipc::Decode(payload, &ack);
  if (!s.ok()) return abort_spawn(std::move(s));
  if (ack.version != ipc::kWireVersion) {
    return abort_spawn(Status::FailedPrecondition(
        "worker proxy: version mismatch (worker " +
        std::to_string(ack.version) + ", supervisor " +
        std::to_string(ipc::kWireVersion) + ")"));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    fd_ = sv[0];
    pid_ = pid;
    spawned_ = true;
    dead_ = false;
    expected_down_ = false;
    reaped_ = false;
    stop_heartbeat_ = false;
    batch_.reset();
    outstanding_.clear();
    waiting_.clear();
    replies_.clear();
    checkpoints_.clear();
    last_rx_us_ = SteadyMicros();  // the HelloAck was a frame
  }
  reader_ = std::thread(&ShardWorkerProxy::ReaderLoop, this);
  if (options_.worker_heartbeat_interval_ms > 0) {
    heartbeat_ = std::thread(&ShardWorkerProxy::HeartbeatLoop, this);
  }
  return Status::OK();
}

Status ShardWorkerProxy::Attach(
    storage::StorageHub* hub,
    const std::function<void(const warehouse::Warehouse&)>& recovered) {
  if (hub->log_options().env != nullptr) {
    return Status::InvalidArgument(
        "process mode needs partitions on the real filesystem (a custom "
        "Env cannot cross a process boundary)");
  }
  {
    // Harvest the recovered partition before handing its file over; the
    // document count is refreshed by every SlotResult from here on.
    warehouse::Warehouse scratch(classifier_);
    XYMON_RETURN_IF_ERROR(scratch.AttachStore(hub->partition(shard_index_)));
    recovered(scratch);
    std::lock_guard<std::mutex> lock(mutex_);
    document_count_ = scratch.document_count();
  }
  // The worker owns the partition file from here on; it opens it
  // exclusively and recovers from it (now, and again on every respawn).
  hub->ReleasePartition(shard_index_);
  partition_cmd_.path = hub->partition_file_path(shard_index_);
  partition_cmd_.fsync_every_n = hub->log_options().fsync_every_n;
  partition_cmd_.auto_checkpoint_bytes = hub->auto_checkpoint_bytes();
  has_partition_ = true;
  bool was_alive;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    was_alive = spawned_ && !dead_;
  }
  Status st = SendOpenPartition();
  // A dead worker gets the partition on its respawn; its error is not ours
  // to fail on (the shard is quarantined and heals through the restart
  // path).
  return was_alive ? st : Status::OK();
}

Status ShardWorkerProxy::SendOpenPartition() {
  ipc::OpenPartitionMsg msg = partition_cmd_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    msg.seq = query_seq_++;
  }
  return Command(msg.seq, ipc::Encode(msg));
}

Status ShardWorkerProxy::Replicate(const ReplicaCommand& command) {
  // Log first: a worker that dies mid-broadcast is quarantined by its death
  // path and picks the command up from the replay on respawn.
  const std::string& payload = replay_log_->Record(command);
  return Command(command.seq, payload);
}

Status ShardWorkerProxy::Command(uint64_t seq, const std::string& payload) {
  Reply reply;
  XYMON_RETURN_IF_ERROR(Request(seq, payload, "worker command", &reply));
  return reply.status;
}

Status ShardWorkerProxy::Request(uint64_t seq, const std::string& payload,
                                 const char* what, Reply* reply) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    waiting_.insert(seq);
  }
  Status s = WriteFrameLocked(payload, kCommandTimeoutMs);
  std::unique_lock<std::mutex> lock(mutex_);
  if (s.ok()) {
    cv_.wait_for(lock, std::chrono::milliseconds(kCommandTimeoutMs),
                 [&] { return dead_ || replies_.count(seq) > 0; });
  }
  waiting_.erase(seq);
  auto arrived = replies_.extract(seq);
  if (!s.ok()) return s;
  if (!arrived.empty()) {
    *reply = std::move(arrived.mapped());
    return Status::OK();
  }
  if (dead_) return Status::Unavailable("worker down");
  return Status::DeadlineExceeded(std::string(what) + " " +
                                  std::to_string(seq) + " timed out");
}

Status ShardWorkerProxy::Send(const std::shared_ptr<BatchState>& batch,
                              size_t slot, uint64_t docid_hint) {
  ipc::SlotMsg msg;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    if (batch_ != batch) {
      // New batch: anything still outstanding from the previous one was
      // already failed (watchdog abandonment) — results for it are dropped
      // by their batch number, never misattributed. Holding `batch_` keeps
      // the old BatchState's address from being reused by a newer batch.
      batch_ = batch;
      ++batch_seq_;
      outstanding_.clear();
    }
    outstanding_.insert(slot);
    msg.batch = batch_seq_;
  }

  const DocJob& job = batch->jobs[slot];
  msg.slot = static_cast<uint32_t>(slot);
  msg.deletion = job.deletion ? 1 : 0;
  msg.docid_hint = docid_hint;
  msg.now = batch->now;
  msg.url = job.url;
  msg.body = job.body;
  Status s = WriteFrameLocked(ipc::Encode(msg), kCommandTimeoutMs);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    outstanding_.erase(slot);
  }
  return s;
}

Status ShardWorkerProxy::Checkpoint(
    const std::shared_ptr<CheckpointTicket>& ticket) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return Status::Unavailable("worker down");
    seq = query_seq_++;
    checkpoints_[seq] = ticket;
  }
  Status s = WriteFrameLocked(ipc::Encode(ipc::CheckpointMsg{seq}),
                              kCommandTimeoutMs);
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    checkpoints_.erase(seq);
  }
  return s;
}

void ShardWorkerProxy::CollectDocuments(
    std::string_view domain,
    std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>*
        out) {
  // Pointers handed out by the previous call for this domain die here; a
  // query engine fetches each domain once per evaluation, so the documents
  // of its other bindings stay alive (the monitor's API serialization
  // keeps evaluations apart).
  std::vector<std::unique_ptr<OwnedDoc>>& held =
      documents_[std::string(domain)];
  held.clear();
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = query_seq_++;
  }
  Reply reply;
  Status s = Request(seq,
                     ipc::Encode(ipc::QueryDomainMsg{seq, std::string(domain)}),
                     "worker domain query", &reply);
  if (!s.ok()) return;  // worker down: degrade to live partitions
  for (auto& doc : reply.docs.docs) {
    auto parsed = xml::Parse(doc.doc_xml);
    if (!parsed.ok()) continue;
    auto owned = std::make_unique<OwnedDoc>();
    owned->document = std::move(parsed.value());
    owned->document.doctype_name = doc.doctype_name;
    owned->document.dtd_url = doc.dtd_url;
    warehouse::DocMeta& m = owned->meta;
    m.docid = doc.meta.docid;
    m.url = std::move(doc.meta.url);
    m.filename = std::move(doc.meta.filename);
    m.is_xml = doc.meta.is_xml != 0;
    m.doctype_name = std::move(doc.meta.doctype_name);
    m.dtd_url = std::move(doc.meta.dtd_url);
    m.dtdid = doc.meta.dtdid;
    m.domain = std::move(doc.meta.domain);
    m.last_accessed = doc.meta.last_accessed;
    m.last_updated = doc.meta.last_updated;
    m.signature = doc.meta.signature;
    m.status = static_cast<warehouse::DocStatus>(doc.meta.status);
    out->emplace_back(&owned->meta, &owned->document);
    held.push_back(std::move(owned));
  }
}

void ShardWorkerProxy::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spawned_) return;
    expected_down_ = true;
    stop_heartbeat_ = true;
    if (pid_ > 0 && !reaped_) kill(pid_, SIGKILL);
    // Unblocks the reader out of its blocking ReadFrame.
    if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
  }
  cv_.notify_all();
  JoinThreads();
  HandleDown("killed by supervisor", /*proto_error=*/false);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!reaped_ && pid_ > 0) {
    // The SIGKILL above guarantees this converges.
    int wstatus = 0;
    pid_t r;
    do {
      r = waitpid(pid_, &wstatus, 0);
    } while (r < 0 && errno == EINTR);
    reaped_ = true;
  }
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  spawned_ = false;
}

void ShardWorkerProxy::Shutdown() {
  bool try_graceful = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spawned_) return;
    if (!dead_) {
      expected_down_ = true;
      try_graceful = true;
    }
  }
  if (try_graceful) {
    if (WriteFrameLocked(ipc::Encode(ipc::ShutdownMsg{}), /*deadline_ms=*/1000)
            .ok()) {
      // Bounded grace period, then the SIGKILL path below.
      for (int i = 0; i < 200; ++i) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (reaped_) break;
          int wstatus = 0;
          pid_t r = waitpid(pid_, &wstatus, WNOHANG);
          if (r == pid_ || (r < 0 && errno == ECHILD)) {
            reaped_ = true;
            break;
          }
        }
        usleep(10 * 1000);
      }
    }
  }
  Stop();
}

bool ShardWorkerProxy::PollDead() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spawned_) return true;
    if (dead_) return true;
    int wstatus = 0;
    pid_t r = waitpid(pid_, &wstatus, WNOHANG);
    if (r == 0) return false;
    if (r == pid_) reaped_ = true;
    // r < 0 (ECHILD: someone reaped it, or it never existed) also means
    // the worker is gone.
  }
  HandleDown("worker exited", /*proto_error=*/false);
  return true;
}

uint64_t ShardWorkerProxy::document_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return document_count_;
}

void ShardWorkerProxy::AddStats(PipelineStats* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkerStatus w;
  w.pid = static_cast<int>(pid_);
  w.shard = shard_index_;
  w.alive = spawned_ && !dead_;
  w.restarts = respawns_;
  w.crashes = crashes_;
  w.proto_errors = proto_errors_;
  w.last_heartbeat_ms =
      last_rx_us_ < 0 ? -1 : (SteadyMicros() - last_rx_us_) / 1000;
  out->worker_crashes += w.crashes;
  out->worker_proto_errors += w.proto_errors;
  out->worker_respawns += w.restarts;
  out->workers.push_back(w);
}

// -- Threads -----------------------------------------------------------------

void ShardWorkerProxy::ReaderLoop() {
  for (;;) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (dead_) return;
      fd = fd_;
    }
    std::string payload;
    Status s = ipc::ReadFrame(fd, &payload);
    if (!s.ok()) {
      // EOF / truncated stream is a death; a bad CRC or length is a
      // protocol corruption — either way the worker is torn down and the
      // shard quarantined. Never the supervisor's problem.
      HandleDown(s.message(), /*proto_error=*/s.code() ==
                                  StatusCode::kCorruption);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      last_rx_us_ = SteadyMicros();
    }
    ipc::MsgType type;
    if (!ipc::PeekType(payload, &type)) {
      HandleDown("wire: unknown message type", /*proto_error=*/true);
      return;
    }
    // A frame that does not decode runs the death path with Decode's reason.
    auto decode = [&](auto* msg) {
      Status st = ipc::Decode(payload, msg);
      if (!st.ok()) HandleDown(st.message(), /*proto_error=*/true);
      return st.ok();
    };
    // Hands a reply to the Request waiting on `seq`; a reply that arrives
    // after its Request gave up is dropped.
    auto answer = [&](uint64_t seq, Reply reply) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (waiting_.count(seq) > 0) replies_[seq] = std::move(reply);
      }
      cv_.notify_all();
    };

    switch (type) {
      case ipc::MsgType::kSlotResult: {
        ipc::SlotResultMsg msg;
        if (!decode(&msg)) return;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          document_count_ = msg.document_count;
          if (msg.batch != batch_seq_ || !batch_) break;  // stale batch
          if (outstanding_.count(msg.slot) == 0) break;  // slot already failed
        }
        const size_t slot = msg.slot;
        const ipc::WireStageDelta deltas[] = {msg.ingest, msg.detect,
                                              msg.match, msg.notify};
        // Ids are checked while the slot is still outstanding, so an
        // unknown one fails it on the death path like a malformed frame.
        Result<DocOutcome> outcome =
            OutcomeFromWire(std::move(msg), supervision_.known_binding);
        if (!outcome.ok()) {
          HandleDown(outcome.status().message(), /*proto_error=*/true);
          return;
        }
        std::shared_ptr<BatchState> bs;
        PipelineShard* counters = nullptr;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = outstanding_.find(slot);
          if (it == outstanding_.end()) break;  // slot already failed
          outstanding_.erase(it);
          bs = batch_;
          counters = counter_shard_;
        }
        if (counters != nullptr) {
          std::lock_guard<std::mutex> lock(counters->mutex);
          StageCounters* into[] = {
              &counters->ingest_counts, &counters->detect_counts,
              &counters->match_counts, &counters->notify_counts};
          for (size_t i = 0; i < 4; ++i) {
            into[i]->documents += deltas[i].documents;
            into[i]->micros += deltas[i].micros;
          }
        }
        bs->Publish(slot, std::move(outcome).value());
        break;
      }
      case ipc::MsgType::kCmdAck: {
        ipc::CmdAckMsg msg;
        if (!decode(&msg)) return;
        Status ack =
            ipc::DecodeStatus(msg.status_code, std::move(msg.status_message));
        answer(msg.seq, {std::move(ack), {}});
        break;
      }
      case ipc::MsgType::kCheckpointDone: {
        ipc::CheckpointDoneMsg msg;
        if (!decode(&msg)) return;
        std::shared_ptr<CheckpointTicket> ticket;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          document_count_ = msg.document_count;
          auto it = checkpoints_.find(msg.seq);
          if (it != checkpoints_.end()) {
            ticket = std::move(it->second);
            checkpoints_.erase(it);
          }
        }
        if (ticket) {
          ticket->Complete(
              ipc::DecodeStatus(msg.status_code, std::move(msg.status_message)));
        }
        break;
      }
      case ipc::MsgType::kPong: {
        ipc::PongMsg msg;
        if (!decode(&msg)) return;
        std::lock_guard<std::mutex> lock(mutex_);
        document_count_ = msg.document_count;
        break;
      }
      case ipc::MsgType::kDomainDocs: {
        ipc::DomainDocsMsg msg;
        if (!decode(&msg)) return;
        const uint64_t seq = msg.seq;
        answer(seq, {Status::OK(), std::move(msg)});
        break;
      }
      case ipc::MsgType::kDtdIdReq: {
        ipc::DtdIdReqMsg msg;
        if (!decode(&msg)) return;
        const uint32_t id = supervision_.dtd_id_for
                                ? supervision_.dtd_id_for(msg.dtd_url)
                                : 0;
        // The worker blocks on this answer mid-slot; an unresponsive write
        // here means the worker is doomed anyway — the heartbeat reaps it.
        Status write_status =
            WriteFrameLocked(ipc::Encode(ipc::DtdIdRespMsg{msg.dtd_url, id}),
                             kCommandTimeoutMs);
        (void)write_status;
        break;
      }
      default:
        // A frame type the supervisor never expects from a worker.
        HandleDown("wire: unexpected " +
                       std::string(ipc::MsgTypeName(type)) + " from worker",
                   /*proto_error=*/true);
        return;
    }
  }
}

void ShardWorkerProxy::HeartbeatLoop() {
  for (;;) {
    uint64_t token;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock,
                   std::chrono::milliseconds(
                       options_.worker_heartbeat_interval_ms),
                   [this] { return stop_heartbeat_ || dead_; });
      if (stop_heartbeat_ || dead_) return;
      if (options_.worker_heartbeat_timeout_ms > 0 && last_rx_us_ >= 0) {
        int64_t age_ms = (SteadyMicros() - last_rx_us_) / 1000;
        if (age_ms >
            static_cast<int64_t>(options_.worker_heartbeat_timeout_ms)) {
          // Wedged: no frame for a full timeout despite the pings below.
          // SIGKILL turns the wedge into an EOF; the reader runs the death
          // path (shutdown on the socket makes its blocking read return).
          if (pid_ > 0 && !reaped_) kill(pid_, SIGKILL);
          if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
          return;
        }
      }
      token = ++ping_token_;
    }
    // Failure is the reader's signal, not ours.
    Status ping_status =
        WriteFrameLocked(ipc::Encode(ipc::PingMsg{token}),
                         options_.worker_heartbeat_interval_ms);
    (void)ping_status;
  }
}

// -- Death path --------------------------------------------------------------

void ShardWorkerProxy::HandleDown(const std::string& reason,
                                  bool proto_error) {
  std::function<void(size_t, const std::string&)> on_down;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || !spawned_) return;  // first death wins; others are echoes
    dead_ = true;
    if (proto_error) proto_errors_++;
    if (!expected_down_) {
      crashes_++;
      on_down = supervision_.on_down;
    }
  }
  // Quarantine before the failed slots below release the barrier: the
  // caller leaving it must already see the shard down, or its restart sweep
  // runs first and nothing respawns the worker.
  if (on_down) on_down(shard_index_, reason);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    FailOutstandingLocked(lock);
    ReapLocked();
  }
  cv_.notify_all();
}

void ShardWorkerProxy::FailOutstandingLocked(
    std::unique_lock<std::mutex>& lock) {
  // Outstanding slots: published as failed "shard" outcomes so the barrier
  // releases and UpdateBatchAccounting sees the same shape RestartShard
  // recovery expects.
  if (batch_ != nullptr && !outstanding_.empty()) {
    std::shared_ptr<BatchState> bs = batch_;
    std::unordered_set<size_t> slots;
    slots.swap(outstanding_);
    lock.unlock();
    for (size_t slot : slots) {
      bs->Publish(slot,
                  DocOutcome::Failure(
                      "shard", Status::Unavailable("worker process down")));
    }
    lock.lock();
  }
  // Waiting Requests see dead_ and return Unavailable.
  // Checkpoint markers complete Unavailable — the partition on disk is what
  // the respawn rebuilds from.
  std::map<uint64_t, std::shared_ptr<CheckpointTicket>> checkpoints;
  checkpoints.swap(checkpoints_);
  lock.unlock();
  for (auto& [seq, ticket] : checkpoints) {
    ticket->Complete(Status::Unavailable("worker down"));
  }
  lock.lock();
}

Status ShardWorkerProxy::WriteFrameLocked(const std::string& payload,
                                          uint32_t deadline_ms) {
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  int fd;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || fd_ < 0) return Status::Unavailable("worker down");
    fd = fd_;
  }
  return ipc::WriteFrame(fd, payload, deadline_ms);
}

void ShardWorkerProxy::ReapLocked() {
  if (reaped_ || pid_ <= 0) return;
  int wstatus = 0;
  pid_t r = waitpid(pid_, &wstatus, WNOHANG);
  if (r == pid_ || (r < 0 && errno == ECHILD)) reaped_ = true;
}

void ShardWorkerProxy::JoinThreads() {
  if (reader_.joinable()) reader_.join();
  if (heartbeat_.joinable()) heartbeat_.join();
}

}  // namespace xymon::system
