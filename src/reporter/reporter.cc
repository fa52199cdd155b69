#include "src/reporter/reporter.h"

#include <algorithm>

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
                       const std::vector<Payload>& buffer) {
  std::string body = "<Report subscription=\"" +
                     xml::EscapeText(name, /*in_attribute=*/true) +
                     "\" date=\"" +
                     xml::EscapeText(date, /*in_attribute=*/true) + "\"";
  const size_t head = body.size();
  body += ">\n";
  for (const Payload& payload : buffer) body += payload.ReportRendering();
  if (body.size() == head + 2) {
    body.resize(head);
    body += "/>\n";  // no child: an empty element
  } else {
    body += "</Report>\n";
  }
  return body;
}

}  // namespace

uint32_t Reporter::Find(std::string_view name) const {
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](uint32_t i, std::string_view n) { return subs_[i].name < n; });
  return it != by_name_.end() && subs_[*it].name == name ? *it : kNoIndex;
}

uint32_t Reporter::OrdinalOf(SubState* sub, const std::string& query) {
  auto it = std::find(sub->queries.begin(), sub->queries.end(), query);
  if (it != sub->queries.end()) {
    return static_cast<uint32_t>(it - sub->queries.begin());
  }
  sub->queries.push_back(query);
  return static_cast<uint32_t>(sub->queries.size() - 1);
}

uint32_t Reporter::QueryOrdinal(uint32_t index, std::string_view query) const {
  const std::vector<std::string>& queries = subs_[index].queries;
  auto it = std::find(queries.begin(), queries.end(), query);
  return it == queries.end() ? kNoOrdinal
                             : static_cast<uint32_t>(it - queries.begin());
}

Result<uint32_t> Reporter::AddSubscription(
    const std::string& name, const sublang::ReportSpec& spec,
    std::vector<std::string> recipients, Timestamp now,
    const std::vector<std::string>& query_names) {
  if (Find(name) != kNoIndex) {
    return Status::AlreadyExists("subscription '" + name +
                                 "' already registered with the reporter");
  }
  uint32_t index = static_cast<uint32_t>(subs_.size());
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    subs_.emplace_back();
  }
  SubState& sub = subs_[index];
  sub.name = name;
  sub.spec = spec;
  sub.recipients = std::move(recipients);
  sub.last_report_time = now;
  for (const std::string& query : query_names) OrdinalOf(&sub, query);
  for (const ReportCondition::Atom& atom : spec.when.atoms) {
    uint32_t ordinal = kNoOrdinal;
    if (atom.kind == ReportCondition::Atom::Kind::kNamedCount) {
      ordinal = OrdinalOf(&sub, atom.query_name);
      // Only the queries a count(Q) atom reads are counted.
      if (sub.counts.size() <= ordinal) sub.counts.resize(ordinal + 1, 0);
    }
    sub.atom_ordinals.push_back(ordinal);
  }
  auto at = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](uint32_t i, const std::string& n) { return subs_[i].name < n; });
  by_name_.insert(at, index);
  RefreshListeners(name);
  return index;
}

Status Reporter::RemoveSubscription(const std::string& name) {
  const uint32_t index = Find(name);
  if (index == kNoIndex) {
    return Status::NotFound("subscription '" + name + "'");
  }
  std::erase(by_name_, index);
  subs_[index] = SubState{};
  free_.push_back(index);
  // A removed subscriber stops listening; a removed target keeps its
  // registrations, which bind again if it comes back.
  std::vector<std::string> targets;
  for (auto& [key, listeners] : virtual_listeners_) {
    if (std::erase(listeners, name) != 0) targets.push_back(key.first);
  }
  for (const std::string& target : targets) RefreshListeners(target);
  return Status::OK();
}

Status Reporter::AddRecipient(const std::string& name,
                              const std::string& email) {
  const uint32_t index = Find(name);
  if (index == kNoIndex) {
    return Status::NotFound("subscription '" + name + "'");
  }
  subs_[index].recipients.push_back(email);
  return Status::OK();
}

Status Reporter::AddVirtualListener(const std::string& virtual_sub,
                                    const std::string& target_sub,
                                    const std::string& target_query) {
  virtual_listeners_[{target_sub, target_query}].push_back(virtual_sub);
  RefreshListeners(target_sub);
  return Status::OK();
}

void Reporter::RefreshListeners(const std::string& target) {
  const uint32_t index = Find(target);
  if (index == kNoIndex) return;
  subs_[index].listeners.clear();
  for (auto it = virtual_listeners_.lower_bound({target, ""});
       it != virtual_listeners_.end() && it->first.first == target; ++it) {
    const std::string& query = it->first.second;
    const uint32_t ordinal = OrdinalOf(&subs_[index], query);
    for (const std::string& virtual_sub : it->second) {
      const uint32_t v = Find(virtual_sub);
      if (v == kNoIndex) continue;
      const uint32_t v_ordinal = OrdinalOf(&subs_[v], query);
      std::vector<std::vector<Listener>>& listeners = subs_[index].listeners;
      if (listeners.size() <= ordinal) listeners.resize(ordinal + 1);
      listeners[ordinal].push_back({v, v_ordinal});
    }
  }
}

void Reporter::AddNotification(uint32_t index, uint32_t ordinal,
                               Payload payload, Timestamp time) {
  ++notifications_received_;
  const std::vector<std::vector<Listener>>& by_ordinal =
      subs_[index].listeners;
  if (ordinal >= by_ordinal.size() || by_ordinal[ordinal].empty()) {
    Enqueue(index, ordinal, std::move(payload), time);
    return;
  }
  // Enqueue never changes the listener lists.
  Enqueue(index, ordinal, payload, time);
  for (const Listener& listener : by_ordinal[ordinal]) {
    Enqueue(listener.index, listener.ordinal, payload, time);
  }
}

void Reporter::AddNotification(Notification notification) {
  const uint32_t index = Find(notification.subscription);
  if (index == kNoIndex) {
    ++notifications_received_;
    return;
  }
  const uint32_t ordinal = OrdinalOf(&subs_[index], notification.query_name);
  AddNotification(index, ordinal, std::move(notification.payload),
                  notification.time);
}

void Reporter::Enqueue(uint32_t index, uint32_t ordinal, Payload payload,
                       Timestamp time) {
  SubState& sub = subs_[index];
  // atmost N: stop registering notifications past the cap until the next
  // report (paper §5.3).
  if (sub.spec.atmost_count.has_value() &&
      sub.buffer.size() >= *sub.spec.atmost_count) {
    ++notifications_dropped_;
  } else {
    if (ordinal < sub.counts.size()) ++sub.counts[ordinal];
    sub.buffer.push_back(std::move(payload));
  }
  MaybeReport(&sub, time);
}

bool Reporter::ConditionHolds(const SubState& sub, Timestamp now) const {
  for (size_t i = 0; i < sub.spec.when.atoms.size(); ++i) {
    const ReportCondition::Atom& atom = sub.spec.when.atoms[i];
    switch (atom.kind) {
      case ReportCondition::Atom::Kind::kImmediate:
        if (!sub.buffer.empty()) return true;
        break;
      case ReportCondition::Atom::Kind::kCount:
        if (CompareCount(sub.buffer.size(), atom.cmp, atom.count)) return true;
        break;
      case ReportCondition::Atom::Kind::kNamedCount:
        if (CompareCount(sub.counts[sub.atom_ordinals[i]], atom.cmp,
                         atom.count)) {
          return true;
        }
        break;
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

void Reporter::MaybeReport(SubState* sub, Timestamp now) {
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
  GenerateReport(sub, now);
}

void Reporter::GenerateReport(SubState* sub, Timestamp now) {
  const std::string& name = sub->name;
  const std::string date = FormatTimestamp(now);
  std::string body;
  if (!sub->spec.query_text.empty() && engine_ != nullptr) {
    // The report query (the Xyleme Reporter step) evaluates over the
    // notification buffer assembled as one XML document.
    auto buffer_root = xml::Node::Element("Report");
    buffer_root->SetAttribute("subscription", name);
    buffer_root->SetAttribute("date", date);
    for (const Payload& payload : sub->buffer) {
      std::unique_ptr<xml::Node> child = payload.ReportChild();
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

  Report report{name, now, std::move(body)};
  if (sub->spec.archive.has_value()) sub->archive.push_back(report);
  sub->last_report = std::make_unique<Report>(std::move(report));
  // "The generation of a report empties the global buffer" (§5.3).
  sub->buffer.clear();
  std::fill(sub->counts.begin(), sub->counts.end(), 0);
  sub->last_report_time = now;
  sub->has_reported = true;
}

void Reporter::Tick(Timestamp now) {
  for (uint32_t index : by_name_) {
    SubState& sub = subs_[index];
    MaybeReport(&sub, now);
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
  const uint32_t index = Find(subscription);
  return index == kNoIndex ? nullptr : subs_[index].last_report.get();
}

std::vector<const Report*> Reporter::ArchivedReports(
    const std::string& subscription) const {
  std::vector<const Report*> out;
  const uint32_t index = Find(subscription);
  if (index == kNoIndex) return out;
  for (const Report& r : subs_[index].archive) out.push_back(&r);
  return out;
}

size_t Reporter::BufferedCount(const std::string& subscription) const {
  const uint32_t index = Find(subscription);
  return index == kNoIndex ? 0 : subs_[index].buffer.size();
}

}  // namespace xymon::reporter
