#ifndef XYMON_ALERTERS_XML_ALERTER_H_
#define XYMON_ALERTERS_XML_ALERTER_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/alerters/condition.h"
#include "src/common/status.h"
#include "src/mqp/event.h"
#include "src/warehouse/warehouse.h"

namespace xymon::alerters {

/// The XML Alerter (paper §6.3): detects element-level atomic events
///
///   (changetype)? tag (strict)? (contains word)?      and
///   self contains word
///
/// using the paper's data structures (Figure 8): a WordTable mapping each
/// interesting word to a TagTable of (tag → event entries), driven by a
/// postorder traversal of the DOM that maintains, per node, the list of
/// interesting words in its subtree (a stack of word lists — each node sees
/// its subtree's words "at no cost"). Change types (new/updated/deleted)
/// come from the warehouse diff of the previous version.
class XmlAlerter {
 public:
  Status Register(mqp::AtomicEvent code, const Condition& condition);
  Status Unregister(mqp::AtomicEvent code, const Condition& condition);

  /// Appends every element-level code raised by this ingest: the current
  /// version is traversed for presence/new/updated conditions, deleted
  /// subtrees (from the diff, rooted in the previous version) for deleted
  /// conditions. Codes may repeat; the pipeline dedupes.
  void Detect(const warehouse::IngestResult& ingest,
              std::vector<mqp::AtomicEvent>* out) const;

  size_t condition_count() const { return condition_count_; }

 private:
  friend class XmlTraversal;

  struct TagEntry {
    std::optional<xmldiff::ChangeOp> op;  // nullopt = mere presence
    mqp::AtomicEvent code;
  };
  struct WordTagEntry {
    std::optional<xmldiff::ChangeOp> op;
    bool strict;
    mqp::AtomicEvent code;
  };
  /// One interesting word: its TagTable (Figure 8) and its `self contains`
  /// code. The entry lives while either part is registered.
  struct WordEntry {
    std::unordered_map<std::string, std::vector<WordTagEntry>> tags;
    std::optional<mqp::AtomicEvent> self_contains;
  };
  /// Hashes std::string and std::string_view alike, so a token is looked up
  /// without building a string.
  struct WordHash {
    using is_transparent = void;
    size_t operator()(std::string_view word) const {
      return std::hash<std::string_view>()(word);
    }
  };

  // tag -> conditions without a contains part.
  std::unordered_map<std::string, std::vector<TagEntry>> tag_only_;
  // lower-cased word -> its conditions (the WordTable of Figure 8).
  std::unordered_map<std::string, WordEntry, WordHash, std::equal_to<>>
      word_table_;
  size_t condition_count_ = 0;
};

}  // namespace xymon::alerters

#endif  // XYMON_ALERTERS_XML_ALERTER_H_
