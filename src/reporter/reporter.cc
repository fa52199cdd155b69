#include "src/reporter/reporter.h"

#include "src/xml/serializer.h"

namespace xymon::reporter {
namespace {

using sublang::ReportCondition;

bool CompareCount(uint64_t count, alerters::Comparator cmp, uint64_t bound) {
  switch (cmp) {
    case alerters::Comparator::kLt:
      return count < bound;
    case alerters::Comparator::kLe:
      return count <= bound;
    case alerters::Comparator::kEq:
      return count == bound;
    case alerters::Comparator::kGe:
      return count >= bound;
    case alerters::Comparator::kGt:
      return count > bound;
  }
  return false;
}

/// The indented `<Report>` document over `buffer`, built from each payload's
/// cached rendering. It is byte-for-byte Serialize({.indent = true}) of the
/// tree with every payload's ReportChild() under a `<Report>` root: every
/// child is an element, so a child's indentation never depends on its
/// siblings.
std::string ReportBody(const std::string& name, const std::string& date,
                       const std::vector<Notification>& buffer) {
  std::string body = "<Report subscription=\"" +
                     xml::EscapeText(name, /*in_attribute=*/true) +
                     "\" date=\"" +
                     xml::EscapeText(date, /*in_attribute=*/true) + "\"";
  const size_t head = body.size();
  body += ">\n";
  for (const Notification& n : buffer) body += n.payload.ReportRendering();
  if (body.size() == head + 2) {
    body.resize(head);
    body += "/>\n";  // no child: an empty element
  } else {
    body += "</Report>\n";
  }
  return body;
}

}  // namespace

Status Reporter::AddSubscription(const std::string& name,
                                 const sublang::ReportSpec& spec,
                                 std::vector<std::string> recipients,
                                 Timestamp now) {
  auto [it, inserted] = subs_.emplace(name, SubState{});
  if (!inserted) {
    return Status::AlreadyExists("subscription '" + name +
                                 "' already registered with the reporter");
  }
  it->second.spec = spec;
  it->second.recipients = std::move(recipients);
  it->second.last_report_time = now;
  index_.emplace(it->first, it);
  return Status::OK();
}

Status Reporter::RemoveSubscription(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  SubMap::iterator sub = it->second;
  index_.erase(it);
  subs_.erase(sub);
  for (auto& [key, listeners] : virtual_listeners_) {
    (void)key;
    std::erase(listeners, name);
  }
  return Status::OK();
}

Status Reporter::AddRecipient(const std::string& name,
                              const std::string& email) {
  auto it = subs_.find(name);
  if (it == subs_.end()) {
    return Status::NotFound("subscription '" + name + "'");
  }
  it->second.recipients.push_back(email);
  return Status::OK();
}

Status Reporter::AddVirtualListener(const std::string& virtual_sub,
                                    const std::string& target_sub,
                                    const std::string& target_query) {
  virtual_listeners_[{target_sub, target_query}].push_back(virtual_sub);
  return Status::OK();
}

void Reporter::AddNotification(Notification notification) {
  ++notifications_received_;

  const std::vector<std::string>* listeners = nullptr;
  if (!virtual_listeners_.empty()) {
    auto vit = virtual_listeners_.find(
        {notification.subscription, notification.query_name});
    if (vit != virtual_listeners_.end()) listeners = &vit->second;
  }
  auto it = index_.find(notification.subscription);
  if (listeners == nullptr) {
    if (it != index_.end()) Enqueue(it->second, std::move(notification));
    return;
  }
  if (it != index_.end()) Enqueue(it->second, notification);
  for (const std::string& virtual_sub : *listeners) {
    auto vit = index_.find(virtual_sub);
    if (vit != index_.end()) Enqueue(vit->second, notification);
  }
}

void Reporter::Enqueue(SubMap::iterator it, Notification notification) {
  SubState& sub = it->second;
  const Timestamp time = notification.time;
  // atmost N: stop registering notifications past the cap until the next
  // report (paper §5.3).
  if (sub.spec.atmost_count.has_value() &&
      sub.buffer.size() >= *sub.spec.atmost_count) {
    ++notifications_dropped_;
  } else {
    ++sub.counts_by_query[notification.query_name];
    sub.buffer.push_back(std::move(notification));
  }
  MaybeReport(it->first, &sub, time);
}

bool Reporter::ConditionHolds(const SubState& sub, Timestamp now) const {
  for (const ReportCondition::Atom& atom : sub.spec.when.atoms) {
    switch (atom.kind) {
      case ReportCondition::Atom::Kind::kImmediate:
        if (!sub.buffer.empty()) return true;
        break;
      case ReportCondition::Atom::Kind::kCount:
        if (CompareCount(sub.buffer.size(), atom.cmp, atom.count)) return true;
        break;
      case ReportCondition::Atom::Kind::kNamedCount: {
        auto it = sub.counts_by_query.find(atom.query_name);
        uint64_t count = it == sub.counts_by_query.end() ? 0 : it->second;
        if (CompareCount(count, atom.cmp, atom.count)) return true;
        break;
      }
      case ReportCondition::Atom::Kind::kPeriodic:
        if (!sub.buffer.empty() &&
            now - sub.last_report_time >=
                sublang::FrequencyPeriod(atom.frequency)) {
          return true;
        }
        break;
    }
  }
  return false;
}

void Reporter::MaybeReport(const std::string& name, SubState* sub,
                           Timestamp now) {
  if (!sub->pending && !ConditionHolds(*sub, now)) return;
  // atmost <freq>: never report more often than the rate, even when the
  // when-condition triggers (paper §5.3); the report stays pending.
  if (sub->spec.atmost_rate.has_value() && sub->has_reported &&
      now - sub->last_report_time <
          sublang::FrequencyPeriod(*sub->spec.atmost_rate)) {
    sub->pending = true;
    return;
  }
  sub->pending = false;
  GenerateReport(name, sub, now);
}

void Reporter::GenerateReport(const std::string& name, SubState* sub,
                              Timestamp now) {
  const std::string date = FormatTimestamp(now);
  std::string body;
  if (!sub->spec.query_text.empty() && engine_ != nullptr) {
    // The report query (the Xyleme Reporter step) evaluates over the
    // notification buffer assembled as one XML document.
    auto buffer_root = xml::Node::Element("Report");
    buffer_root->SetAttribute("subscription", name);
    buffer_root->SetAttribute("date", date);
    for (const Notification& n : sub->buffer) {
      std::unique_ptr<xml::Node> child = n.payload.ReportChild();
      if (child != nullptr) buffer_root->AddChild(std::move(child));
    }
    auto parsed_query = query::ParseQuery("Report", sub->spec.query_text);
    if (parsed_query.ok()) {
      auto result = engine_->EvaluateOn(*parsed_query, *buffer_root);
      if (result.ok()) {
        result.value()->SetAttribute("subscription", name);
        result.value()->SetAttribute("date", date);
        body = xml::Serialize(*result.value(), {.indent = true});
      }
    }
    if (body.empty()) {
      // A broken report query must not swallow the data.
      body = xml::Serialize(*buffer_root, {.indent = true});
    }
  } else {
    body = ReportBody(name, date, sub->buffer);
  }

  Report report{name, now, body};
  if (sub->spec.publish_web && web_portal_ != nullptr) {
    // Web publication (§3): the subscriber consults the report with a
    // browser instead of receiving an e-mail.
    web_portal_->Publish(name, now, body);
  } else {
    for (const std::string& recipient : sub->recipients) {
      outbox_->Send(Email{recipient, "Xyleme report: " + name, body, now});
    }
  }
  ++reports_generated_;

  sub->last_report = std::make_unique<Report>(report);
  if (sub->spec.archive.has_value()) {
    sub->archive.push_back(std::move(report));
  }
  // "The generation of a report empties the global buffer" (§5.3).
  sub->buffer.clear();
  sub->counts_by_query.clear();
  sub->last_report_time = now;
  sub->has_reported = true;
}

void Reporter::Tick(Timestamp now) {
  for (auto& [name, sub] : subs_) {
    MaybeReport(name, &sub, now);
    // Archive GC: keep reports for one archive period (§5.3).
    if (sub.spec.archive.has_value()) {
      Timestamp retention = sublang::FrequencyPeriod(*sub.spec.archive);
      while (!sub.archive.empty() &&
             now - sub.archive.front().time > retention) {
        sub.archive.pop_front();
      }
    }
  }
  outbox_->Drain(now);
}

const Report* Reporter::LastReport(const std::string& subscription) const {
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return nullptr;
  return it->second.last_report.get();
}

std::vector<const Report*> Reporter::ArchivedReports(
    const std::string& subscription) const {
  std::vector<const Report*> out;
  auto it = subs_.find(subscription);
  if (it == subs_.end()) return out;
  for (const Report& r : it->second.archive) out.push_back(&r);
  return out;
}

size_t Reporter::BufferedCount(const std::string& subscription) const {
  auto it = subs_.find(subscription);
  return it == subs_.end() ? 0 : it->second.buffer.size();
}

}  // namespace xymon::reporter
