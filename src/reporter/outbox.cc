#include "src/reporter/outbox.h"

#include <algorithm>

#include "src/xml/codec.h"

namespace xymon::reporter {
namespace {

// Store layout: "n" -> next_seq varint; "p" + big-endian seq -> email.
// Big-endian keys make std::map order equal seq order on recovery.
constexpr char kSeqKey[] = "n";

std::string PendingKey(uint64_t seq) {
  std::string key("p");
  for (int shift = 56; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>((seq >> shift) & 0xFF));
  }
  return key;
}

uint64_t SeqOfPendingKey(const std::string& key) {
  uint64_t seq = 0;
  for (size_t i = 1; i < key.size(); ++i) {
    seq = (seq << 8) | static_cast<unsigned char>(key[i]);
  }
  return seq;
}

std::string EncodeEmail(const Email& email) {
  std::string out;
  xml::PutString(email.to, &out);
  xml::PutString(email.subject, &out);
  xml::PutString(email.body, &out);
  xml::PutVarint(static_cast<uint64_t>(email.time), &out);
  return out;
}

bool DecodeEmail(std::string_view data, Email* email) {
  uint64_t time = 0;
  if (!xml::GetString(&data, &email->to) ||
      !xml::GetString(&data, &email->subject) ||
      !xml::GetString(&data, &email->body) || !xml::GetVarint(&data, &time)) {
    return false;
  }
  email->time = static_cast<Timestamp>(time);
  return true;
}

}  // namespace

Status Outbox::AttachStore(storage::PersistentMap* store) {
  store_ = store;
  if (store_ == nullptr) return Status::OK();

  if (auto n = store_->Get(kSeqKey); n.has_value()) {
    std::string_view data(*n);
    if (!xml::GetVarint(&data, &next_seq_)) {
      return Status::Corruption("bad outbox seq record");
    }
  }
  // Re-queue the undelivered backlog in seq order (map keys are big-endian
  // seqs, so store order is already delivery order). Redelivery of an
  // e-mail whose crash hit between send and acknowledge is the documented
  // at-least-once behaviour.
  for (const auto& [key, value] : store_->data()) {
    if (key.empty() || key[0] != 'p') continue;
    Email email;
    if (!DecodeEmail(value, &email)) {
      return Status::Corruption("bad outbox pending record");
    }
    email.seq = SeqOfPendingKey(key);
    next_seq_ = std::max(next_seq_, email.seq + 1);
    queue_.push_back(std::move(email));
  }
  return Status::OK();
}

void Outbox::PersistPending(const Email& email) {
  if (store_ == nullptr) return;
  std::string seq_record;
  xml::PutVarint(next_seq_, &seq_record);
  // The e-mail record must be durable before the first delivery attempt;
  // a persist failure is counted, delivery still proceeds (degrade, don't
  // silently park mail in volatile memory and claim otherwise).
  if (!store_->Put(kSeqKey, seq_record).ok() ||
      !store_->Put(PendingKey(email.seq), EncodeEmail(email)).ok()) {
    ++persist_failures_;
  }
}

void Outbox::ErasePending(uint64_t seq) {
  if (store_ == nullptr || seq == 0) return;
  (void)store_->Delete(PendingKey(seq));
}

bool Outbox::CapacityAvailable(Timestamp now) {
  if (options_.daily_capacity == 0) return true;
  if (now - window_start_ >= kDay) {
    window_start_ = now - (now % kDay);
    window_sent_ = 0;
  }
  return window_sent_ < options_.daily_capacity;
}

void Outbox::Deliver(Email email) {
  ErasePending(email.seq);
  if (!options_.keep_bodies) {
    email.body.clear();
  }
  sent_.push_back(std::move(email));
  ++sent_count_;
  ++window_sent_;
}

void Outbox::AttemptDelivery(Email email) {
  if (send_hook_) {
    ++email.attempts;
    if (!send_hook_(email)) {
      ++send_failures_;
      if (email.attempts >= options_.max_send_attempts) {
        // The daemon rejected it max_send_attempts times: give up, but
        // visibly — silent drops hide delivery incidents from operators.
        ++dropped_after_retries_;
        ErasePending(email.seq);
      } else {
        queue_.push_back(std::move(email));
      }
      return;
    }
  }
  Deliver(std::move(email));
}

void Outbox::Send(Email email) {
  if (email.seq == 0) {
    email.seq = next_seq_++;
    PersistPending(email);
  }
  if (!CapacityAvailable(email.time)) {
    queue_.push_back(std::move(email));
    return;
  }
  AttemptDelivery(std::move(email));
}

void Outbox::Drain(Timestamp now) {
  // Swap the backlog out first: e-mails that fail the hook during this
  // drain re-enter queue_ and must wait for the *next* Drain, and capacity
  // leftovers are re-queued untouched.
  std::vector<Email> pending;
  pending.swap(queue_);
  size_t i = 0;
  for (; i < pending.size() && CapacityAvailable(now); ++i) {
    Email email = std::move(pending[i]);
    email.time = now;
    AttemptDelivery(std::move(email));
  }
  for (; i < pending.size(); ++i) {
    queue_.push_back(std::move(pending[i]));
  }
}

}  // namespace xymon::reporter
