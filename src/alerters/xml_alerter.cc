#include "src/alerters/xml_alerter.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "src/common/string_util.h"

namespace xymon::alerters {
namespace {

using xmldiff::ChangeOp;

uint8_t OpBit(ChangeOp op) { return static_cast<uint8_t>(1u << static_cast<int>(op)); }

}  // namespace

/// Postorder walk maintaining per-node interesting-word lists (the paper's
/// "stack of lists of words"). The lists are ranges of one reused buffer of
/// word entries: a walk leaves its subtree's words, deduplicated, at the end
/// of the buffer, so a node's range is its children's ranges followed by the
/// words of its own text.
class XmlTraversal {
 public:
  XmlTraversal(const XmlAlerter& alerter,
               const std::unordered_map<const xml::Node*, uint8_t>& ops,
               std::vector<mqp::AtomicEvent>* out)
      : alerter_(alerter), ops_(ops), out_(out) {}

  /// Walks the live document, then raises the `self contains` codes of
  /// every word it holds.
  void WalkDocument(const xml::Node& root) {
    words_.clear();
    for (size_t k = Walk(root, /*forced_ops=*/0); k < words_.size(); ++k) {
      if (words_[k]->self_contains) out_->push_back(*words_[k]->self_contains);
    }
  }

  /// Walks a deleted subtree with the deleted bit forced on every element.
  void WalkDeleted(const xml::Node& subtree) {
    words_.clear();
    Walk(subtree, OpBit(ChangeOp::kDeleted));
  }

 private:
  using WordEntry = XmlAlerter::WordEntry;

  /// Walks the subtree of the element `node`; `forced_ops` is OR-ed into
  /// every element's op mask. Leaves the subtree's words in
  /// words_[begin, end) and returns begin.
  size_t Walk(const xml::Node& node, uint8_t forced_ops) {
    const size_t begin = words_.size();
    for (const auto& child : node.children()) {
      if (child->is_element()) Walk(*child, forced_ops);
    }
    const size_t direct = words_.size();
    if (!alerter_.word_table_.empty()) {
      for (const auto& child : node.children()) {
        if (child->is_text()) AppendWords(child->text());
      }
    }
    uint8_t mask = forced_ops;
    auto op = ops_.find(&node);
    if (op != ops_.end()) mask |= op->second;
    auto tag = alerter_.tag_only_.find(node.name());
    if (tag != alerter_.tag_only_.end()) {
      for (const XmlAlerter::TagEntry& e : tag->second) {
        if (OpMatches(e.op, mask)) out_->push_back(e.code);
      }
    }
    Dedupe(direct);
    Probe(node, mask, direct, /*strict=*/true);
    Dedupe(begin);
    Probe(node, mask, begin, /*strict=*/false);
    return begin;
  }

  /// Appends the entry of every interesting word of `text` with one lookup
  /// per word, lower-casing through a reused buffer only words that have an
  /// upper-case letter.
  void AppendWords(std::string_view text) {
    ForEachWord(text, [this](std::string_view word) {
      auto is_upper = [](char c) {
        return isupper(static_cast<unsigned char>(c)) != 0;
      };
      if (std::any_of(word.begin(), word.end(), is_upper)) {
        lower_.assign(word);
        for (char& c : lower_) {
          c = static_cast<char>(tolower(static_cast<unsigned char>(c)));
        }
        word = lower_;
      }
      auto it = alerter_.word_table_.find(word);
      if (it != alerter_.word_table_.end()) words_.push_back(&it->second);
    });
  }

  /// Sorts and deduplicates words_[from, end).
  void Dedupe(size_t from) {
    auto first = words_.begin() + static_cast<std::ptrdiff_t>(from);
    std::sort(first, words_.end());
    words_.erase(std::unique(first, words_.end()), words_.end());
  }

  static bool OpMatches(const std::optional<ChangeOp>& op, uint8_t mask) {
    return !op.has_value() || (mask & OpBit(*op)) != 0;
  }

  /// `contains` conditions on the node's tag for the words in
  /// words_[from, end): strict ones for its direct words, the others for
  /// its subtree's.
  void Probe(const xml::Node& node, uint8_t mask, size_t from, bool strict) {
    for (size_t k = from; k < words_.size(); ++k) {
      const WordEntry& word = *words_[k];
      if (word.tags.empty()) continue;
      auto tt = word.tags.find(node.name());
      if (tt == word.tags.end()) continue;
      for (const XmlAlerter::WordTagEntry& e : tt->second) {
        if (e.strict == strict && OpMatches(e.op, mask)) {
          out_->push_back(e.code);
        }
      }
    }
  }

  const XmlAlerter& alerter_;
  const std::unordered_map<const xml::Node*, uint8_t>& ops_;
  std::vector<mqp::AtomicEvent>* out_;
  std::vector<const WordEntry*> words_;
  std::string lower_;
};

Status XmlAlerter::Register(mqp::AtomicEvent code, const Condition& c) {
  if (c.kind == ConditionKind::kSelfContains) {
    word_table_[ToLower(c.str_value)].self_contains = code;
    ++condition_count_;
    return Status::OK();
  }
  if (c.kind != ConditionKind::kElementChange) {
    return Status::InvalidArgument(
        "condition is not an XML-alerter condition: " + c.Key());
  }
  if (c.tag.empty()) {
    return Status::InvalidArgument("element condition requires a tag");
  }
  if (c.word.empty()) {
    tag_only_[c.tag].push_back(TagEntry{c.change_op, code});
  } else {
    word_table_[ToLower(c.word)].tags[c.tag].push_back(
        WordTagEntry{c.change_op, c.strict, code});
  }
  ++condition_count_;
  return Status::OK();
}

Status XmlAlerter::Unregister(mqp::AtomicEvent code, const Condition& c) {
  if (c.kind == ConditionKind::kSelfContains) {
    auto wt = word_table_.find(ToLower(c.str_value));
    if (wt != word_table_.end()) {
      wt->second.self_contains.reset();
      if (wt->second.tags.empty()) word_table_.erase(wt);
    }
    if (condition_count_ > 0) --condition_count_;
    return Status::OK();
  }
  if (c.kind != ConditionKind::kElementChange) {
    return Status::InvalidArgument(
        "condition is not an XML-alerter condition: " + c.Key());
  }
  auto drop_code = [code](auto& vec) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [code](const auto& e) { return e.code == code; }),
              vec.end());
  };
  if (c.word.empty()) {
    auto it = tag_only_.find(c.tag);
    if (it != tag_only_.end()) {
      drop_code(it->second);
      if (it->second.empty()) tag_only_.erase(it);
    }
  } else {
    auto wt = word_table_.find(ToLower(c.word));
    if (wt != word_table_.end()) {
      auto& tags = wt->second.tags;
      auto tt = tags.find(c.tag);
      if (tt != tags.end()) {
        drop_code(tt->second);
        if (tt->second.empty()) tags.erase(tt);
      }
      if (tags.empty() && !wt->second.self_contains) word_table_.erase(wt);
    }
  }
  if (condition_count_ > 0) --condition_count_;
  return Status::OK();
}

void XmlAlerter::Detect(const warehouse::IngestResult& ingest,
                        std::vector<mqp::AtomicEvent>* out) const {
  if (condition_count_ == 0) return;

  // Op mask per element of the current version (new/updated).
  std::unordered_map<const xml::Node*, uint8_t> ops;
  std::unordered_set<const xml::Node*> deleted;
  for (const xmldiff::ElementChange& change : ingest.diff.changes) {
    if (change.op == ChangeOp::kDeleted) {
      deleted.insert(change.element);
    } else {
      ops[change.element] |= OpBit(change.op);
    }
  }

  XmlTraversal traversal(*this, ops, out);
  if (ingest.current != nullptr && ingest.current->root != nullptr &&
      ingest.meta.status != warehouse::DocStatus::kDeleted) {
    traversal.WalkDocument(*ingest.current->root);
  }

  // Deleted subtrees live in the previous version (or the current one when
  // the whole document was deleted): walk each maximal deleted subtree once
  // with the deleted bit forced.
  for (const xml::Node* node : deleted) {
    if (node->parent() != nullptr && deleted.count(node->parent()) != 0) {
      continue;  // An ancestor covers this node.
    }
    traversal.WalkDeleted(*node);
  }
}

}  // namespace xymon::alerters
