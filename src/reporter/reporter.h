#ifndef XYMON_REPORTER_REPORTER_H_
#define XYMON_REPORTER_REPORTER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/query/engine.h"
#include "src/reporter/outbox.h"
#include "src/reporter/payload.h"
#include "src/reporter/web_portal.h"
#include "src/sublang/ast.h"

namespace xymon::reporter {

/// One entry of the notification stream (Figure 2): a monitoring-query match
/// or a continuous-query evaluation, addressed to a subscription.
struct Notification {
  std::string subscription;
  std::string query_name;  // monitoring or continuous query name
  Payload payload;         // shared with every other subscriber of the match
  Timestamp time = 0;
};

/// An emitted report (also archived when the subscription asks for it).
struct Report {
  std::string subscription;
  Timestamp time = 0;
  std::string xml;
};

/// The (Xyleme) Reporter of Figure 3: buffers notifications per
/// subscription, evaluates report conditions (`when`), applies the report
/// query, enforces `atmost` limits, archives per `archive`, and hands the
/// result to the Outbox ("sent by email").
///
/// Subscription state sits in a dense table: AddSubscription returns the
/// subscription's index, and each of its query names gets an ordinal. The
/// delivery path (AddNotification by index and ordinal) touches no string.
/// Tick walks the subscriptions in name order, so outbox sequence numbers
/// do not depend on registration order.
///
/// Virtual subscriptions (§5.4) register as extra listeners on another
/// subscription's queries: the notification is duplicated into their buffer,
/// which "only puts stress on the Reporter" — exactly the paper's cost
/// model.
class Reporter {
 public:
  static constexpr uint32_t kNoOrdinal = UINT32_MAX;

  Reporter(Outbox* outbox, const query::QueryEngine* engine)
      : outbox_(outbox), engine_(engine) {}

  /// Enables the web-publication channel; subscriptions whose report spec
  /// says `publish` go to the portal instead of the outbox.
  void set_web_portal(WebPortal* portal) { web_portal_ = portal; }

  /// Registers a subscription's report spec and recipients and returns its
  /// index. `query_names` (duplicates allowed) get the first ordinals, in
  /// first-seen order; the query names of `count(Q)` atoms are resolved to
  /// ordinals here too. A removed subscription's index may be reused.
  Result<uint32_t> AddSubscription(
      const std::string& name, const sublang::ReportSpec& spec,
      std::vector<std::string> recipients, Timestamp now,
      const std::vector<std::string>& query_names = {});
  Status RemoveSubscription(const std::string& name);

  /// Adds another e-mail recipient to a registered subscription.
  Status AddRecipient(const std::string& name, const std::string& email);

  /// Routes notifications of (`target_sub`, `target_query`) additionally to
  /// `virtual_sub`'s buffer.
  Status AddVirtualListener(const std::string& virtual_sub,
                            const std::string& target_sub,
                            const std::string& target_query);

  /// The ordinal of `query` in subscription `index`; kNoOrdinal if the
  /// subscription has no query of that name.
  uint32_t QueryOrdinal(uint32_t index, std::string_view query) const;

  /// Appends `payload` to the buffer of subscription `index` (and to the
  /// buffers of the virtual listeners on its query `ordinal` — each shares
  /// the payload) and evaluates the report condition.
  void AddNotification(uint32_t index, uint32_t ordinal, Payload payload,
                       Timestamp time);

  /// The same by names: finds the subscription's index and the query's
  /// ordinal (a query name the subscription did not register gets a new
  /// one), then takes the indexed path. An unknown subscription is counted
  /// as received and dropped.
  void AddNotification(Notification notification);

  /// Evaluates time-based conditions (periodic atoms, atmost-rate backlog,
  /// archive GC) and drains the outbox.
  void Tick(Timestamp now);

  // -- Introspection ----------------------------------------------------------

  uint64_t reports_generated() const { return reports_generated_; }
  uint64_t notifications_received() const { return notifications_received_; }
  uint64_t notifications_dropped() const { return notifications_dropped_; }

  /// Most recent report of a subscription; nullptr if none yet.
  const Report* LastReport(const std::string& subscription) const;
  /// Archived reports of a subscription (only kept with an archive clause).
  std::vector<const Report*> ArchivedReports(
      const std::string& subscription) const;
  /// Buffered (not yet reported) notification count.
  size_t BufferedCount(const std::string& subscription) const;

 private:
  static constexpr uint32_t kNoIndex = UINT32_MAX;

  /// A virtual subscriber of one query: its index and its own ordinal for
  /// the query's name.
  struct Listener {
    uint32_t index;
    uint32_t ordinal;
  };

  struct SubState {
    std::string name;  // empty: a free slot
    sublang::ReportSpec spec;
    std::vector<std::string> recipients;
    std::vector<Payload> buffer;
    std::vector<std::string> queries;  // by ordinal
    /// By ordinal, since the last report; only as long as the highest
    /// ordinal a count(Q) atom reads.
    std::vector<uint64_t> counts;
    /// Virtual subscribers, by ordinal of this subscription's query; only
    /// as long as the highest ordinal that has any.
    std::vector<std::vector<Listener>> listeners;
    /// Per `when` atom: the ordinal a count(Q) atom counts.
    std::vector<uint32_t> atom_ordinals;
    Timestamp last_report_time = 0;
    bool has_reported = false;
    bool pending = false;  // condition held but atmost-rate deferred it
    std::unique_ptr<Report> last_report;
    std::deque<Report> archive;
  };

  /// Index of the live subscription `name`; kNoIndex if none.
  uint32_t Find(std::string_view name) const;
  /// The ordinal of `query` in `sub`, assigning the next one if it is new.
  static uint32_t OrdinalOf(SubState* sub, const std::string& query);
  /// Rebuilds `target`'s listener lists from virtual_listeners_.
  void RefreshListeners(const std::string& target);
  /// Buffers `payload` in subscription `index` unless its atmost cap is
  /// reached, then evaluates its report condition.
  void Enqueue(uint32_t index, uint32_t ordinal, Payload payload,
               Timestamp time);
  bool ConditionHolds(const SubState& sub, Timestamp now) const;
  void MaybeReport(SubState* sub, Timestamp now);
  void GenerateReport(SubState* sub, Timestamp now);

  Outbox* outbox_;
  WebPortal* web_portal_ = nullptr;
  const query::QueryEngine* engine_;
  std::vector<SubState> subs_;  // by index
  std::vector<uint32_t> free_;  // free slots of subs_
  /// The live indices, sorted by name: Tick's order and the name lookup.
  std::vector<uint32_t> by_name_;
  /// Registrations: (target sub, query) -> virtual subscriber names. The
  /// listener lists in SubState are derived from these.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      virtual_listeners_;
  uint64_t reports_generated_ = 0;
  uint64_t notifications_received_ = 0;
  uint64_t notifications_dropped_ = 0;
};

}  // namespace xymon::reporter

#endif  // XYMON_REPORTER_REPORTER_H_
