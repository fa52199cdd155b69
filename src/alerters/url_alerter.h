#ifndef XYMON_ALERTERS_URL_ALERTER_H_
#define XYMON_ALERTERS_URL_ALERTER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/alerters/condition.h"
#include "src/alerters/prefix_matcher.h"
#include "src/common/status.h"
#include "src/mqp/event.h"
#include "src/warehouse/metadata.h"

namespace xymon::alerters {

/// The URL Alerter (paper §6.2): detects atomic events over document
/// metadata — URL patterns, filename, DOCID/DTDID/DTD, domain, dates and the
/// weak document-status events. Placed "next to the URL manager"; here it
/// reads the DocMeta the warehouse produced for the fetch.
///
/// The Subscription Manager registers and unregisters conditions at runtime
/// (codes are chosen by the manager). Detection appends codes unordered;
/// the pipeline sorts the final set once.
class UrlAlerter {
 public:
  /// Registers `condition` under `code`. InvalidArgument if the condition
  /// kind is not a metadata condition.
  Status Register(mqp::AtomicEvent code, const Condition& condition);
  Status Unregister(mqp::AtomicEvent code, const Condition& condition);

  /// Appends every registered code the document's metadata raises.
  void Detect(const warehouse::DocMeta& meta,
              std::vector<mqp::AtomicEvent>* out) const;

  size_t condition_count() const { return condition_count_; }

 private:
  struct DateCondition {
    Comparator cmp;
    Timestamp date;
    mqp::AtomicEvent code;
  };

  /// `URL extends` patterns in the hash table the paper shipped (the trie
  /// costs too much memory at millions of patterns, §6.2).
  HashPrefixMatcher prefixes_;
  std::unordered_map<std::string, mqp::AtomicEvent> url_equals_;
  std::unordered_map<std::string, mqp::AtomicEvent> filename_equals_;
  std::unordered_map<uint64_t, mqp::AtomicEvent> docid_equals_;
  std::unordered_map<uint64_t, mqp::AtomicEvent> dtdid_equals_;
  std::unordered_map<std::string, mqp::AtomicEvent> dtd_url_equals_;
  std::unordered_map<std::string, mqp::AtomicEvent> domain_equals_;
  std::vector<DateCondition> last_accessed_;
  std::vector<DateCondition> last_update_;
  mqp::AtomicEvent status_codes_[4] = {mqp::kNoAtomicEvent, mqp::kNoAtomicEvent,
                                       mqp::kNoAtomicEvent,
                                       mqp::kNoAtomicEvent};
  size_t condition_count_ = 0;
};

}  // namespace xymon::alerters

#endif  // XYMON_ALERTERS_URL_ALERTER_H_
