#ifndef XYMON_SYSTEM_BINDING_RESOLVER_H_
#define XYMON_SYSTEM_BINDING_RESOLVER_H_

#include <vector>

#include "src/manager/subscription_manager.h"
#include "src/mqp/processor.h"
#include "src/system/pipeline.h"
#include "src/warehouse/warehouse.h"

namespace xymon::system {

/// Stage 4a as a standalone component: complex-event matches → deliverable
/// DeliveryActions. Each match names an interned event set; it expands into
/// the set's bindings, newest first, with the per-query dedup and the
/// select-clause payload assembly. Payloads are memoised per document by
/// RecipeId: subscribers sharing a recipe share one Payload object, built
/// once (DESIGN.md §15). Factored out of XylemeMonitor so a shard worker
/// *process* can run the identical resolution over its own replayed
/// SubscriptionManager (DESIGN.md §14) — its binding ids are the
/// supervisor's, since both managers saw the same successful commands.
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
