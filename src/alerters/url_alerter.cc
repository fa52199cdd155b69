#include "src/alerters/url_alerter.h"

#include <algorithm>

namespace xymon::alerters {

Status UrlAlerter::Register(mqp::AtomicEvent code, const Condition& c) {
  switch (c.kind) {
    case ConditionKind::kUrlEquals:
      url_equals_[c.str_value] = code;
      break;
    case ConditionKind::kUrlExtends:
      prefixes_.Add(c.str_value, code);
      break;
    case ConditionKind::kFilenameEquals:
      filename_equals_[c.str_value] = code;
      break;
    case ConditionKind::kDocIdEquals:
      docid_equals_[c.num_value] = code;
      break;
    case ConditionKind::kDtdIdEquals:
      dtdid_equals_[c.num_value] = code;
      break;
    case ConditionKind::kDtdUrlEquals:
      dtd_url_equals_[c.str_value] = code;
      break;
    case ConditionKind::kDomainEquals:
      domain_equals_[c.str_value] = code;
      break;
    case ConditionKind::kLastAccessedCmp:
      last_accessed_.push_back(DateCondition{c.cmp, c.date_value, code});
      break;
    case ConditionKind::kLastUpdateCmp:
      last_update_.push_back(DateCondition{c.cmp, c.date_value, code});
      break;
    case ConditionKind::kDocStatus:
      status_codes_[static_cast<int>(c.status)] = code;
      break;
    default:
      return Status::InvalidArgument(
          "condition is not a URL-alerter condition: " + c.Key());
  }
  ++condition_count_;
  return Status::OK();
}

Status UrlAlerter::Unregister(mqp::AtomicEvent code, const Condition& c) {
  (void)code;
  switch (c.kind) {
    case ConditionKind::kUrlEquals:
      url_equals_.erase(c.str_value);
      break;
    case ConditionKind::kUrlExtends:
      prefixes_.Remove(c.str_value);
      break;
    case ConditionKind::kFilenameEquals:
      filename_equals_.erase(c.str_value);
      break;
    case ConditionKind::kDocIdEquals:
      docid_equals_.erase(c.num_value);
      break;
    case ConditionKind::kDtdIdEquals:
      dtdid_equals_.erase(c.num_value);
      break;
    case ConditionKind::kDtdUrlEquals:
      dtd_url_equals_.erase(c.str_value);
      break;
    case ConditionKind::kDomainEquals:
      domain_equals_.erase(c.str_value);
      break;
    case ConditionKind::kLastAccessedCmp: {
      auto pred = [&](const DateCondition& d) {
        return d.cmp == c.cmp && d.date == c.date_value;
      };
      last_accessed_.erase(std::remove_if(last_accessed_.begin(),
                                          last_accessed_.end(), pred),
                           last_accessed_.end());
      break;
    }
    case ConditionKind::kLastUpdateCmp: {
      auto pred = [&](const DateCondition& d) {
        return d.cmp == c.cmp && d.date == c.date_value;
      };
      last_update_.erase(
          std::remove_if(last_update_.begin(), last_update_.end(), pred),
          last_update_.end());
      break;
    }
    case ConditionKind::kDocStatus:
      status_codes_[static_cast<int>(c.status)] = mqp::kNoAtomicEvent;
      break;
    default:
      return Status::InvalidArgument(
          "condition is not a URL-alerter condition: " + c.Key());
  }
  if (condition_count_ > 0) --condition_count_;
  return Status::OK();
}

void UrlAlerter::Detect(const warehouse::DocMeta& meta,
                        std::vector<mqp::AtomicEvent>* out) const {
  prefixes_.Match(meta.url, out);

  auto probe_str = [&](const std::unordered_map<std::string, mqp::AtomicEvent>&
                           table,
                       const std::string& key) {
    if (table.empty()) return;
    auto it = table.find(key);
    if (it != table.end()) out->push_back(it->second);
  };
  probe_str(url_equals_, meta.url);
  probe_str(filename_equals_, meta.filename);
  probe_str(dtd_url_equals_, meta.dtd_url);
  probe_str(domain_equals_, meta.domain);

  if (!docid_equals_.empty()) {
    auto it = docid_equals_.find(meta.docid);
    if (it != docid_equals_.end()) out->push_back(it->second);
  }
  if (!dtdid_equals_.empty() && meta.dtdid != 0) {
    auto it = dtdid_equals_.find(meta.dtdid);
    if (it != dtdid_equals_.end()) out->push_back(it->second);
  }

  for (const DateCondition& d : last_accessed_) {
    if (CompareTimestamps(meta.last_accessed, d.cmp, d.date)) {
      out->push_back(d.code);
    }
  }
  for (const DateCondition& d : last_update_) {
    if (CompareTimestamps(meta.last_updated, d.cmp, d.date)) {
      out->push_back(d.code);
    }
  }

  mqp::AtomicEvent status_code = status_codes_[static_cast<int>(meta.status)];
  if (status_code != mqp::kNoAtomicEvent) out->push_back(status_code);
}

}  // namespace xymon::alerters
