#ifndef XYMON_SYSTEM_BINDING_RESOLVER_H_
#define XYMON_SYSTEM_BINDING_RESOLVER_H_

#include <string>
#include <vector>

#include "src/manager/subscription_manager.h"
#include "src/mqp/processor.h"
#include "src/system/pipeline.h"
#include "src/warehouse/warehouse.h"

namespace xymon::system {

/// Stage 4a as a standalone component: complex-event matches → deliverable
/// DeliveryActions, via the manager's QueryBindings (binding lookup,
/// per-query dedup, select-clause payload assembly). Payloads are memoised
/// per document by the binding's PayloadRecipe: subscribers sharing a recipe
/// share one Payload object, built once (DESIGN.md §15). Factored out of
/// XylemeMonitor so a shard worker *process* can run the identical
/// resolution over its own replayed SubscriptionManager (DESIGN.md §14) —
/// the actions it ships back over the wire are byte-identical to what the
/// in-process monitor would have produced.
///
/// Read-only over the manager; the caller quiesces every mutation of
/// manager state around batches (the same contract as NotifyResolver).
/// Stateless — the memo lives in one Resolve call — so one instance serves
/// every shard thread.
class BindingResolver : public NotifyResolver {
 public:
  explicit BindingResolver(const manager::SubscriptionManager* manager)
      : manager_(manager) {}

  void Resolve(const warehouse::IngestResult& ingest,
               const std::vector<mqp::MqpNotification>& matches,
               DocOutcome* out) const override;

 private:
  const manager::SubscriptionManager* manager_;
};

}  // namespace xymon::system

#endif  // XYMON_SYSTEM_BINDING_RESOLVER_H_
