#ifndef XYMON_REPORTER_OUTBOX_H_
#define XYMON_REPORTER_OUTBOX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/storage/persistent_map.h"

namespace xymon::reporter {

/// One outgoing report e-mail.
struct Email {
  std::string to;
  std::string subject;
  std::string body;
  Timestamp time = 0;
  /// Delivery attempts made so far (maintained by the Outbox retry loop).
  uint32_t attempts = 0;
  /// Monotonic delivery sequence number, assigned by the Outbox at Send
  /// time and never reused (persisted across restarts). Receivers can
  /// dedup at-least-once redelivery on (to, seq).
  uint64_t seq = 0;
};

/// The UNIX sendmail substitute. The paper's Reporter "supports hundreds of
/// thousands of emails per day on a single PC. This limitation is due to the
/// UNIX send-mail daemon implementation" — we simulate that boundary with a
/// configurable per-day capacity so bench_reporter can reproduce the load
/// behaviour (excess mail is queued, counted and drained over time).
///
/// Real sendmail also *fails*: an injectable send hook lets tests and the
/// fault soak simulate delivery errors. A failed e-mail is re-queued and
/// retried on later Drain calls, up to Options::max_send_attempts, after
/// which it is dropped and counted in dropped_after_retries().
///
/// With AttachStore the outbox is crash-safe: every e-mail is persisted
/// before the first delivery attempt and erased once delivered (or given
/// up on), so a restart re-queues exactly the undelivered backlog. The
/// acknowledge-after-deliver order makes delivery at-least-once — a crash
/// between the send and the acknowledgement redelivers, it never loses.
class Outbox {
 public:
  struct Options {
    /// 0 = unlimited. The paper's figure: "hundreds of thousands" per day.
    uint64_t daily_capacity = 0;
    /// Retain message bodies (tests/examples) or count only (benches).
    bool keep_bodies = true;
    /// Delivery attempts per e-mail before it is dropped (applies when a
    /// send hook is installed and failing).
    uint32_t max_send_attempts = 3;
  };

  /// Returns true when the e-mail was delivered, false on a send failure.
  using SendHook = std::function<bool(const Email&)>;

  Outbox() : Outbox(Options{}) {}
  explicit Outbox(const Options& options) : options_(options) {}

  /// Attaches the durable backlog `store`: recovers undelivered e-mails
  /// into the queue (in seq order) and the seq counter past every number
  /// ever assigned, then writes through to it. The caller owns the store
  /// (the StorageHub when the monitor runs). nullptr detaches.
  Status AttachStore(storage::PersistentMap* store);

  /// Atomically compacts the backing store (no-op without storage).
  Status CheckpointStorage() {
    return store_ != nullptr ? store_->Checkpoint() : Status::OK();
  }

  /// Installs the delivery hook (nullptr = always succeeds).
  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }

  /// Queues or sends one e-mail at time `email.time`.
  void Send(Email email);

  /// Drains the backlog within the daily capacity. Call once per simulated
  /// tick with the current time. E-mails failing the send hook during this
  /// drain are re-queued for the next one (the daemon stays broken for the
  /// rest of the tick).
  void Drain(Timestamp now);

  uint64_t sent_count() const { return sent_count_; }
  uint64_t queued_count() const { return queue_.size(); }
  uint64_t send_failures() const { return send_failures_; }
  uint64_t dropped_after_retries() const { return dropped_after_retries_; }
  /// E-mails whose durable record could not be written (delivery was still
  /// attempted; they just won't survive a crash).
  uint64_t persist_failures() const { return persist_failures_; }

  /// Sent messages (empty bodies if keep_bodies is false).
  const std::vector<Email>& sent() const { return sent_; }
  /// Most recent sent e-mail; nullptr if none.
  const Email* last() const { return sent_.empty() ? nullptr : &sent_.back(); }

 private:
  bool CapacityAvailable(Timestamp now);
  void Deliver(Email email);
  /// One delivery attempt; failures re-queue (bounded) or drop.
  void AttemptDelivery(Email email);
  void PersistPending(const Email& email);
  void ErasePending(uint64_t seq);

  Options options_;
  SendHook send_hook_;
  std::vector<Email> sent_;
  std::vector<Email> queue_;
  storage::PersistentMap* store_ = nullptr;
  uint64_t next_seq_ = 1;
  uint64_t sent_count_ = 0;
  uint64_t send_failures_ = 0;
  uint64_t dropped_after_retries_ = 0;
  uint64_t persist_failures_ = 0;
  Timestamp window_start_ = 0;
  uint64_t window_sent_ = 0;
};

}  // namespace xymon::reporter

#endif  // XYMON_REPORTER_OUTBOX_H_
