#ifndef XYMON_REPORTER_REPORTER_H_
#define XYMON_REPORTER_REPORTER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
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
/// Virtual subscriptions (§5.4) register as extra listeners on another
/// subscription's queries: the notification is duplicated into their buffer,
/// which "only puts stress on the Reporter" — exactly the paper's cost
/// model.
class Reporter {
 public:
  Reporter(Outbox* outbox, const query::QueryEngine* engine)
      : outbox_(outbox), engine_(engine) {}

  /// Enables the web-publication channel; subscriptions whose report spec
  /// says `publish` go to the portal instead of the outbox.
  void set_web_portal(WebPortal* portal) { web_portal_ = portal; }

  /// Registers a subscription's report spec and recipients.
  Status AddSubscription(const std::string& name,
                         const sublang::ReportSpec& spec,
                         std::vector<std::string> recipients,
                         Timestamp now);
  Status RemoveSubscription(const std::string& name);

  /// Adds another e-mail recipient to a registered subscription.
  Status AddRecipient(const std::string& name, const std::string& email);

  /// Routes notifications of (`target_sub`, `target_query`) additionally to
  /// `virtual_sub`'s buffer.
  Status AddVirtualListener(const std::string& virtual_sub,
                            const std::string& target_sub,
                            const std::string& target_query);

  /// Appends to the subscription's buffer (and to the buffers of its
  /// virtual listeners — each gets a copy sharing the payload) and evaluates
  /// the report condition. The subscription is found in O(1).
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
  struct SubState {
    sublang::ReportSpec spec;
    std::vector<std::string> recipients;
    std::vector<Notification> buffer;
    std::map<std::string, uint64_t> counts_by_query;
    Timestamp last_report_time = 0;
    bool has_reported = false;
    bool pending = false;  // condition held but atmost-rate deferred it
    std::unique_ptr<Report> last_report;
    std::deque<Report> archive;
  };

  using SubMap = std::map<std::string, SubState>;

  /// Buffers `notification` in `it`'s subscription unless its atmost cap is
  /// reached, then evaluates its report condition.
  void Enqueue(SubMap::iterator it, Notification notification);
  bool ConditionHolds(const SubState& sub, Timestamp now) const;
  void MaybeReport(const std::string& name, SubState* sub, Timestamp now);
  void GenerateReport(const std::string& name, SubState* sub, Timestamp now);

  Outbox* outbox_;
  WebPortal* web_portal_ = nullptr;
  const query::QueryEngine* engine_;
  /// Name-ordered: Tick walks it, so outbox sequence numbers do not depend
  /// on registration order.
  SubMap subs_;
  /// The O(1) lookup beside it, keyed by views of subs_' own keys.
  std::unordered_map<std::string_view, SubMap::iterator> index_;
  // (target sub, query) -> virtual subscriber names.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      virtual_listeners_;
  uint64_t reports_generated_ = 0;
  uint64_t notifications_received_ = 0;
  uint64_t notifications_dropped_ = 0;
};

}  // namespace xymon::reporter

#endif  // XYMON_REPORTER_REPORTER_H_
