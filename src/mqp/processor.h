#ifndef XYMON_MQP_PROCESSOR_H_
#define XYMON_MQP_PROCESSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mqp/aes_matcher.h"
#include "src/mqp/matcher.h"

namespace xymon::mqp {

/// The alert sent by the alerters for one document: the ordered set of
/// atomic events detected, plus the "requested data" passed through
/// untouched (paper §4.1: the MQP "has no semantic knowledge of the data
/// associated to the atomic or complex events it handles. Such additional
/// information is passed in XML format ... in a transparent manner").
struct AlertMessage {
  uint64_t docid = 0;
  std::string url;
  EventSet events;
  /// Opaque XML payload assembled by the alerters, forwarded to the Reporter.
  std::string info_xml;
};

/// One detected complex event for one document. It refers to its alert
/// instead of copying the URL and info XML: the caller of Process keeps the
/// alert alive while the notifications are read.
struct MqpNotification {
  ComplexEventId complex_event = kNoComplexEvent;
  const AlertMessage* alert = nullptr;
};

/// The Monitoring Query Processor proper: a Matcher plus the notification
/// envelope. All complex events detected on a document are emitted in one
/// batch (paper §3 footnote 1).
class MonitoringQueryProcessor {
 public:
  /// Uses the AES matcher (the paper's algorithm) by default.
  MonitoringQueryProcessor()
      : MonitoringQueryProcessor(std::make_unique<AesMatcher>()) {}
  explicit MonitoringQueryProcessor(std::unique_ptr<Matcher> matcher)
      : matcher_(std::move(matcher)) {}

  Status Register(ComplexEventId id, const EventSet& events) {
    return matcher_->Insert(id, events);
  }
  Status Unregister(ComplexEventId id) { return matcher_->Erase(id); }

  /// Matches the alert and appends one notification per detected complex
  /// event to `out`, each pointing at `alert`.
  void Process(const AlertMessage& alert,
               std::vector<MqpNotification>* out) const {
    scratch_.clear();
    matcher_->Match(alert.events, &scratch_);
    for (ComplexEventId id : scratch_) {
      out->push_back(MqpNotification{id, &alert});
    }
  }

  const Matcher& matcher() const { return *matcher_; }

 private:
  std::unique_ptr<Matcher> matcher_;
  mutable std::vector<ComplexEventId> scratch_;
};

/// Memory-axis distribution (paper §4.2, "we can split the subscriptions
/// into several partitions and assign a Monitoring Query Processor to each
/// block"): complex events are spread round-robin over N matchers, every
/// alert is offered to all partitions. Each partition's structure is ~N×
/// smaller, so partitions can live on separate machines.
class SubscriptionPartitionedMatcher : public Matcher {
 public:
  explicit SubscriptionPartitionedMatcher(size_t partitions);

  Status Insert(ComplexEventId id, const EventSet& events) override;
  Status Erase(ComplexEventId id) override;
  void Match(const EventSet& s,
             std::vector<ComplexEventId>* out) const override;
  size_t size() const override;
  size_t MemoryUsage() const override;
  const MatchStats& stats() const override { return stats_; }
  const char* name() const override { return "aes-partitioned"; }

  size_t partitions() const { return parts_.size(); }
  /// Largest per-partition structure, the per-machine memory footprint.
  size_t MaxPartitionBytes() const;

 private:
  std::vector<std::unique_ptr<AesMatcher>> parts_;
  std::vector<size_t> owner_;  // id -> partition (dense ids expected)
  mutable MatchStats stats_;
};

}  // namespace xymon::mqp

#endif  // XYMON_MQP_PROCESSOR_H_
