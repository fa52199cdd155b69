#include "src/xmldiff/diff.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/xmldiff/lcs.h"

namespace xymon::xmldiff {
namespace {

using xml::Node;
using xml::NodeType;

/// Gives equal keys equal ids, counting up from `first_id` in key order:
/// (*ids)[pos] for every (key, pos) of `keyed`, which ends up sorted.
template <typename Key>
void AssignDenseIds(std::vector<std::pair<Key, uint32_t>>* keyed,
                    uint32_t first_id, std::vector<uint32_t>* ids) {
  std::sort(keyed->begin(), keyed->end());
  uint32_t id = first_id;
  for (size_t k = 0; k < keyed->size(); ++k) {
    if (k > 0 && (*keyed)[k].first != (*keyed)[k - 1].first) ++id;
    (*ids)[(*keyed)[k].second] = id;
  }
}

class Differ {
 public:
  Differ(XidAllocator* alloc, DiffResult* out) : alloc_(alloc), out_(out) {}

  /// Matched pair of elements with the same tag: propagate the XID and diff
  /// attributes + children. Returns true if anything in the subtree changed;
  /// such an element is "updated" for the subscription language — the paper's
  /// `updated Product contains "camera"` fires when a camera product's price
  /// text (a grandchild) changes.
  bool MatchElements(const Node& o, Node* n) {
    n->set_xid(o.xid());
    bool updated = false;
    if (o.attributes() != n->attributes()) {
      DeltaOp op;
      op.type = DeltaOpType::kUpdateAttrs;
      op.xid = o.xid();
      op.new_attributes = n->attributes();
      out_->delta.ops.push_back(std::move(op));
      updated = true;
    }
    if (DiffChildren(o, n)) updated = true;
    if (updated) {
      out_->changes.push_back(ElementChange{ChangeOp::kUpdated, n});
    }
    return updated;
  }

 private:
  /// Parallel walk over structurally identical subtrees to carry XIDs over.
  static void CopyXids(const Node& o, Node* n) {
    n->set_xid(o.xid());
    for (size_t i = 0; i < o.child_count(); ++i) {
      CopyXids(*o.child(i), n->child(i));
    }
  }

  void RecordDeleted(const Node& subtree) {
    subtree.VisitPostorder([this](const Node& d) {
      if (d.is_element()) {
        out_->changes.push_back(ElementChange{ChangeOp::kDeleted, &d});
      }
    });
  }

  void RecordInserted(Node* subtree) {
    alloc_->AssignAll(subtree);
    subtree->VisitPostorder([this](const Node& d) {
      if (d.is_element()) {
        out_->changes.push_back(ElementChange{ChangeOp::kNew, &d});
      }
    });
  }

  /// Anchor-pass ids of o's children followed by n's: equal (type, subtree
  /// hash) gives an equal id.
  void AnchorIds(const Node& o, const Node& n, std::vector<uint32_t>* ids) {
    const size_t n_old = o.child_count();
    ids->resize(n_old + n.child_count());
    anchor_keys_.clear();
    for (size_t i = 0; i < ids->size(); ++i) {
      const Node* c = i < n_old ? o.child(i) : n.child(i - n_old);
      anchor_keys_.push_back(
          {{c->SubtreeHash(), c->type()}, static_cast<uint32_t>(i)});
    }
    AssignDenseIds(&anchor_keys_, 0, ids);
  }

  /// Gap-pass ids of o's children `go` followed by n's children `gn`:
  /// elements pair by tag, text with text, comments and PIs never.
  void GapIds(const Node& o, const Node& n, const std::vector<size_t>& go,
              const std::vector<size_t>& gn, std::vector<uint32_t>* ids) {
    ids->assign(go.size() + gn.size(), kNoPairKey);
    tag_keys_.clear();
    for (size_t k = 0; k < ids->size(); ++k) {
      const Node* c =
          k < go.size() ? o.child(go[k]) : n.child(gn[k - go.size()]);
      if (c->is_element()) {
        tag_keys_.emplace_back(c->name(), static_cast<uint32_t>(k));
      } else if (c->is_text()) {
        (*ids)[k] = 0;
      }
    }
    AssignDenseIds(&tag_keys_, 1, ids);
  }

  /// Diffs the child lists of a matched element pair. Returns true if the
  /// element's direct content changed (a child inserted/deleted or a direct
  /// text child updated) — that is what makes the element itself "updated"
  /// for the subscription language.
  bool DiffChildren(const Node& o, Node* n) {
    const size_t n_old = o.child_count();
    const size_t n_new = n->child_count();

    // Pass 1: anchor identical subtrees (unchanged content).
    std::vector<uint32_t> ids;
    AnchorIds(o, *n, &ids);
    const std::span<const uint32_t> old_ids(ids.data(), n_old);
    const std::span<const uint32_t> new_ids(ids.data() + n_old, n_new);
    auto anchors = Lcs(old_ids, new_ids);

    bool direct_change = false;

    std::vector<bool> old_matched(n_old, false), new_matched(n_new, false);
    for (auto [i, j] : anchors) {
      old_matched[i] = true;
      new_matched[j] = true;
      CopyXids(*o.child(i), n->child(j));
    }

    // Pass 2: inside each gap between anchors, pair nodes of compatible kind
    // in order (same tag for elements, text with text) and recurse/update.
    size_t prev_i = 0, prev_j = 0;
    std::vector<size_t> go, gn;
    std::vector<uint32_t> gap_ids;
    auto process_gap = [&](size_t end_i, size_t end_j) {
      go.clear();
      gn.clear();
      for (size_t i = prev_i; i < end_i; ++i) {
        if (!old_matched[i]) go.push_back(i);
      }
      for (size_t j = prev_j; j < end_j; ++j) {
        if (!new_matched[j]) gn.push_back(j);
      }
      if (go.empty() || gn.empty()) return;
      GapIds(o, *n, go, gn, &gap_ids);
      auto pairs = Lcs(std::span<const uint32_t>(gap_ids).first(go.size()),
                       std::span<const uint32_t>(gap_ids).subspan(go.size()));
      for (auto [a, b] : pairs) {
        const Node* oc = o.child(go[a]);
        Node* nc = n->child(gn[b]);
        old_matched[go[a]] = true;
        new_matched[gn[b]] = true;
        if (oc->is_element()) {
          if (MatchElements(*oc, nc)) direct_change = true;
        } else {
          // Text (or comment/PI) whose data changed.
          nc->set_xid(oc->xid());
          if (oc->text() != nc->text()) {
            DeltaOp op;
            op.type = DeltaOpType::kUpdateText;
            op.xid = oc->xid();
            op.new_text = nc->text();
            out_->delta.ops.push_back(std::move(op));
            direct_change = true;
          }
        }
      }
    };
    for (auto [ai, aj] : anchors) {
      process_gap(ai, aj);
      prev_i = ai + 1;
      prev_j = aj + 1;
    }
    process_gap(n_old, n_new);

    // Move pass (XyDiff [17]): an unmatched old child and an unmatched new
    // child with identical content are the same node reordered among its
    // siblings — emit kMove, keep its identity, and fire neither "new" nor
    // "deleted" for it.
    for (size_t j = 0; j < n_new; ++j) {
      if (new_matched[j]) continue;
      for (size_t i = 0; i < n_old; ++i) {
        if (old_matched[i] || old_ids[i] != new_ids[j]) continue;
        old_matched[i] = true;
        new_matched[j] = true;
        CopyXids(*o.child(i), n->child(j));
        DeltaOp op;
        op.type = DeltaOpType::kMove;
        op.xid = o.child(i)->xid();
        op.parent_xid = n->xid();
        op.position = j;
        out_->delta.ops.push_back(std::move(op));
        direct_change = true;
        break;
      }
    }

    // Leftovers: deletions and insertions.
    for (size_t i = 0; i < n_old; ++i) {
      if (old_matched[i]) continue;
      DeltaOp op;
      op.type = DeltaOpType::kDelete;
      op.xid = o.child(i)->xid();
      out_->delta.ops.push_back(std::move(op));
      RecordDeleted(*o.child(i));
      direct_change = true;
    }
    for (size_t j = 0; j < n_new; ++j) {
      if (new_matched[j]) continue;
      RecordInserted(n->child(j));
      DeltaOp op;
      op.type = DeltaOpType::kInsert;
      op.xid = n->child(j)->xid();
      op.parent_xid = n->xid();
      op.position = j;
      op.subtree = n->child(j)->Clone();
      out_->delta.ops.push_back(std::move(op));
      direct_change = true;
    }
    return direct_change;
  }

  XidAllocator* alloc_;
  DiffResult* out_;
  // Sort scratch of AnchorIds and GapIds, reused across calls.
  std::vector<std::pair<std::pair<uint64_t, NodeType>, uint32_t>>
      anchor_keys_;
  std::vector<std::pair<std::string_view, uint32_t>> tag_keys_;
};

}  // namespace

DiffResult Diff(const xml::Node& old_root, xml::Node* new_root,
                XidAllocator* alloc) {
  DiffResult out;
  if (old_root.is_element() && new_root->is_element() &&
      old_root.name() == new_root->name()) {
    Differ(alloc, &out).MatchElements(old_root, new_root);
  } else {
    // Root replaced outright: the whole old tree is deleted, the new one
    // inserted. parent_xid 0 denotes "document".
    alloc->AssignAll(new_root);
    DeltaOp del;
    del.type = DeltaOpType::kDelete;
    del.xid = old_root.xid();
    out.delta.ops.push_back(std::move(del));
    DeltaOp ins;
    ins.type = DeltaOpType::kInsert;
    ins.xid = new_root->xid();
    ins.parent_xid = 0;
    ins.position = 0;
    ins.subtree = new_root->Clone();
    out.delta.ops.push_back(std::move(ins));
    old_root.VisitPostorder([&out](const xml::Node& d) {
      if (d.is_element()) {
        out.changes.push_back(ElementChange{ChangeOp::kDeleted, &d});
      }
    });
    new_root->VisitPostorder([&out](const xml::Node& d) {
      if (d.is_element()) {
        out.changes.push_back(ElementChange{ChangeOp::kNew, &d});
      }
    });
  }
  return out;
}

Result<std::unique_ptr<xml::Node>> Apply(const xml::Node& old_root,
                                         const Delta& delta) {
  std::unique_ptr<Node> result = old_root.Clone();

  // Root replacement is a special two-op delta.
  for (const DeltaOp& op : delta.ops) {
    if (op.type == DeltaOpType::kInsert && op.parent_xid == 0) {
      return op.subtree->Clone();
    }
  }

  XidIndex index(result.get());
  // Deletes first — insert/move positions are final indices and assume the
  // kept sequence only.
  for (const DeltaOp& op : delta.ops) {
    if (op.type != DeltaOpType::kDelete) continue;
    Node* target = index.Find(op.xid);
    if (target == nullptr) {
      return Status::Corruption("delta deletes unknown XID " +
                                std::to_string(op.xid));
    }
    Node* parent = target->parent();
    if (parent == nullptr) {
      return Status::Corruption("delta deletes the root element");
    }
    parent->RemoveChild(parent->IndexOfChild(target));
  }
  // Detach moved nodes (they re-enter at their final positions below).
  std::unordered_map<uint64_t, std::unique_ptr<Node>> detached;
  for (const DeltaOp& op : delta.ops) {
    if (op.type != DeltaOpType::kMove) continue;
    Node* target = index.Find(op.xid);
    if (target == nullptr || target->parent() == nullptr) {
      return Status::Corruption("delta moves unknown XID " +
                                std::to_string(op.xid));
    }
    Node* parent = target->parent();
    detached.emplace(op.xid, parent->RemoveChild(parent->IndexOfChild(target)));
  }
  for (const DeltaOp& op : delta.ops) {
    switch (op.type) {
      case DeltaOpType::kUpdateText: {
        Node* target = index.Find(op.xid);
        if (target == nullptr) {
          return Status::Corruption("delta updates unknown XID " +
                                    std::to_string(op.xid));
        }
        target->set_text(op.new_text);
        break;
      }
      case DeltaOpType::kUpdateAttrs: {
        Node* target = index.Find(op.xid);
        if (target == nullptr) {
          return Status::Corruption("delta updates unknown XID " +
                                    std::to_string(op.xid));
        }
        target->ReplaceAttributes(op.new_attributes);
        break;
      }
      default:
        break;
    }
  }
  // Placements last: inserts and move re-insertions together, in ascending
  // final position per parent (stable sort keeps same-position recording
  // order).
  std::vector<const DeltaOp*> placements;
  for (const DeltaOp& op : delta.ops) {
    if (op.type == DeltaOpType::kInsert || op.type == DeltaOpType::kMove) {
      placements.push_back(&op);
    }
  }
  std::stable_sort(placements.begin(), placements.end(),
                   [](const DeltaOp* a, const DeltaOp* b) {
                     return a->position < b->position;
                   });
  for (const DeltaOp* op : placements) {
    Node* parent = index.Find(op->parent_xid);
    if (parent == nullptr) {
      return Status::Corruption("delta places under unknown XID " +
                                std::to_string(op->parent_xid));
    }
    if (op->type == DeltaOpType::kInsert) {
      parent->InsertChild(op->position, op->subtree->Clone());
    } else {
      auto it = detached.find(op->xid);
      if (it == detached.end()) {
        return Status::Corruption("move target vanished for XID " +
                                  std::to_string(op->xid));
      }
      parent->InsertChild(op->position, std::move(it->second));
      detached.erase(it);
    }
  }
  return result;
}

}  // namespace xymon::xmldiff
