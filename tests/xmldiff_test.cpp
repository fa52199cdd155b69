#include <gtest/gtest.h>

#include <functional>

#include "src/common/rng.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/warehouse/warehouse.h"
#include "src/xmldiff/diff.h"
#include "src/xmldiff/lcs.h"

namespace xymon::xmldiff {
namespace {

using xml::Node;

std::unique_ptr<Node> MustParse(std::string_view text) {
  auto doc = xml::ParseFragment(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

struct Versions {
  std::unique_ptr<Node> old_root;
  std::unique_ptr<Node> new_root;
  XidAllocator alloc;
  DiffResult result;
};

Versions DiffTexts(std::string_view old_text, std::string_view new_text) {
  Versions v;
  v.old_root = MustParse(old_text);
  v.alloc.AssignAll(v.old_root.get());
  v.new_root = MustParse(new_text);
  v.result = Diff(*v.old_root, v.new_root.get(), &v.alloc);
  return v;
}

size_t CountChanges(const DiffResult& result, ChangeOp op,
                    std::string_view tag) {
  size_t n = 0;
  for (const ElementChange& c : result.changes) {
    if (c.op == op && c.element->name() == tag) ++n;
  }
  return n;
}

// ------------------------------------------------------------------ XIDs --

TEST(XidTest, AssignAllGivesUniqueIds) {
  auto root = MustParse("<a><b/><c><d/></c></a>");
  XidAllocator alloc;
  alloc.AssignAll(root.get());
  XidIndex index(root.get());
  EXPECT_EQ(index.size(), 4u);
  EXPECT_NE(root->xid(), 0u);
}

TEST(XidTest, AssignAllPreservesExistingIds) {
  auto root = MustParse("<a><b/></a>");
  root->set_xid(99);
  XidAllocator alloc(100);
  alloc.AssignAll(root.get());
  EXPECT_EQ(root->xid(), 99u);
  EXPECT_EQ(root->child(0)->xid(), 100u);
}

TEST(XidTest, IndexFindsNodes) {
  auto root = MustParse("<a><b/></a>");
  XidAllocator alloc;
  alloc.AssignAll(root.get());
  XidIndex index(root.get());
  EXPECT_EQ(index.Find(root->xid()), root.get());
  EXPECT_EQ(index.Find(12345), nullptr);
}

// ------------------------------------------------------------------ Diff --

TEST(DiffTest, IdenticalDocumentsEmptyDelta) {
  auto v = DiffTexts("<a><b>x</b></a>", "<a><b>x</b></a>");
  EXPECT_TRUE(v.result.delta.empty());
  EXPECT_TRUE(v.result.changes.empty());
}

TEST(DiffTest, XidsPropagateToUnchangedContent) {
  auto v = DiffTexts("<a><b>x</b><c/></a>", "<a><b>x</b><c/></a>");
  EXPECT_EQ(v.new_root->xid(), v.old_root->xid());
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(0)->xid());
  EXPECT_EQ(v.new_root->child(1)->xid(), v.old_root->child(1)->xid());
}

TEST(DiffTest, InsertedElementDetected) {
  auto v = DiffTexts("<cat><p>1</p></cat>", "<cat><p>1</p><p>2</p></cat>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "p"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 0u);
  ASSERT_EQ(v.result.delta.ops.size(), 1u);
  EXPECT_EQ(v.result.delta.ops[0].type, DeltaOpType::kInsert);
  EXPECT_EQ(v.result.delta.ops[0].position, 1u);
  EXPECT_EQ(v.result.delta.ops[0].parent_xid, v.old_root->xid());
}

TEST(DiffTest, InsertedSubtreeMarksAllElementsNew) {
  auto v = DiffTexts("<a/>", "<a><entry><Product><name>n</name></Product></entry></a>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "entry"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "Product"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "name"), 1u);
}

TEST(DiffTest, DeletedElementDetected) {
  auto v = DiffTexts("<cat><p>1</p><p>2</p></cat>", "<cat><p>2</p></cat>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 1u);
  // The surviving <p> keeps its XID.
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(1)->xid());
}

TEST(DiffTest, TextUpdateDetected) {
  auto v = DiffTexts("<a><price>10</price></a>", "<a><price>20</price></a>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "price"), 1u);
  bool saw_text_update = false;
  for (const DeltaOp& op : v.result.delta.ops) {
    if (op.type == DeltaOpType::kUpdateText) {
      saw_text_update = true;
      EXPECT_EQ(op.new_text, "20");
    }
  }
  EXPECT_TRUE(saw_text_update);
  // Element identity survives the update.
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(0)->xid());
}

TEST(DiffTest, AttributeUpdateDetected) {
  auto v = DiffTexts(R"(<a><p id="1"/></a>)", R"(<a><p id="2"/></a>)");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "p"), 1u);
  ASSERT_EQ(v.result.delta.ops.size(), 1u);
  EXPECT_EQ(v.result.delta.ops[0].type, DeltaOpType::kUpdateAttrs);
}

TEST(DiffTest, ParentOfChangedChildIsUpdated) {
  auto v = DiffTexts("<cat><p>1</p></cat>", "<cat><p>1</p><p>2</p></cat>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "cat"), 1u);
}

TEST(DiffTest, RootReplacedEntirely) {
  auto v = DiffTexts("<old><x/></old>", "<brand><y/></brand>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "old"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "brand"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "y"), 1u);
}

TEST(DiffTest, SlidingWindowProducesInsertAndDelete) {
  // Catalog-style change: first entry leaves, new entry arrives.
  auto v = DiffTexts(
      "<c><p id=\"1\">a</p><p id=\"2\">b</p><p id=\"3\">c</p></c>",
      "<c><p id=\"2\">b</p><p id=\"3\">c</p><p id=\"4\">d</p></c>");
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "p"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "p"), 0u);
}

TEST(DiffTest, DeltaToXmlHasPaperShape) {
  auto v = DiffTexts("<a><b>x</b></a>", "<a><b>y</b><c/></a>");
  auto delta_xml = v.result.delta.ToXml();
  EXPECT_EQ(delta_xml->name(), "delta");
  EXPECT_NE(delta_xml->FindChild("updated"), nullptr);
  EXPECT_NE(delta_xml->FindChild("inserted"), nullptr);
  const Node* ins = delta_xml->FindChild("inserted");
  EXPECT_NE(ins->GetAttribute("parent"), nullptr);
  EXPECT_NE(ins->GetAttribute("position"), nullptr);
}

// ----------------------------------------------------------------- Apply --

TEST(ApplyTest, ReconstructsNewVersion) {
  auto v = DiffTexts("<a><b>x</b><c/><d>z</d></a>",
                     "<a><b>y</b><d>z</d><e>new</e></a>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root))
      << xml::Serialize(**applied);
}

TEST(ApplyTest, RootReplacement) {
  auto v = DiffTexts("<old/>", "<brand><y/></brand>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root));
}

TEST(ApplyTest, UnknownXidIsCorruption) {
  auto old_root = MustParse("<a/>");
  XidAllocator alloc;
  alloc.AssignAll(old_root.get());
  Delta delta;
  DeltaOp op;
  op.type = DeltaOpType::kDelete;
  op.xid = 424242;
  delta.ops.push_back(std::move(op));
  EXPECT_TRUE(Apply(*old_root, delta).status().IsCorruption());
}

TEST(DiffTest, SiblingReorderIsAMoveNotInsertDelete) {
  auto v = DiffTexts(
      "<c><p id=\"1\"><t>alpha</t></p><p id=\"2\"><t>beta</t></p>"
      "<p id=\"3\"><t>gamma</t></p></c>",
      "<c><p id=\"3\"><t>gamma</t></p><p id=\"1\"><t>alpha</t></p>"
      "<p id=\"2\"><t>beta</t></p></c>");
  // The reordered element is neither new nor deleted (XyDiff move, [17]).
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kNew, "p"), 0u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kDeleted, "p"), 0u);
  // Exactly one move op; the parent counts as updated.
  size_t moves = 0;
  for (const DeltaOp& op : v.result.delta.ops) {
    if (op.type == DeltaOpType::kMove) ++moves;
  }
  EXPECT_EQ(moves, 1u);
  EXPECT_EQ(CountChanges(v.result, ChangeOp::kUpdated, "c"), 1u);
  // Identity survives the move.
  EXPECT_EQ(v.new_root->child(0)->xid(), v.old_root->child(2)->xid());
}

TEST(ApplyTest, MoveReconstructs) {
  auto v = DiffTexts(
      "<c><a>1</a><b>2</b><d>3</d></c>",
      "<c><d>3</d><b>2</b><a>1</a></c>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root))
      << xml::Serialize(**applied);
}

TEST(ApplyTest, MoveCombinedWithEditsReconstructs) {
  auto v = DiffTexts(
      "<c><a>1</a><b>2</b><d>3</d><e>4</e></c>",
      "<c><e>4</e><b>2x</b><f>new</f><a>1</a></c>");
  auto applied = Apply(*v.old_root, v.result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*v.new_root))
      << xml::Serialize(**applied);
}

TEST(DiffTest, MovedElementDoesNotAlertAsNew) {
  // End-to-end guard: a catalog reorder must not fire `new Product`.
  warehouse::Warehouse wh;
  wh.Ingest({"http://s/",
             "<c><Product id=\"1\"><name>tv</name></Product>"
             "<Product id=\"2\"><name>cam</name></Product></c>"},
            1);
  auto r = wh.Ingest({"http://s/",
                      "<c><Product id=\"2\"><name>cam</name></Product>"
                      "<Product id=\"1\"><name>tv</name></Product></c>"},
                     2);
  EXPECT_EQ(r.meta.status, warehouse::DocStatus::kUpdated);
  for (const auto& change : r.diff.changes) {
    EXPECT_NE(change.op, ChangeOp::kNew) << change.element->name();
    EXPECT_NE(change.op, ChangeOp::kDeleted) << change.element->name();
  }
}

// ------------------------------------------------------------------- LCS --

/// The O(n·m) DP table the diff used before the bit-parallel LCS, kept as the
/// reference: the new LCS must return exactly its pairs.
std::vector<std::pair<size_t, size_t>> ReferenceLcs(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  auto eq = [&](size_t i, size_t j) {
    return a[i] == b[j] && a[i] != kNoPairKey;
  };
  const size_t n_old = a.size();
  const size_t n_new = b.size();
  std::vector<std::vector<uint32_t>> dp(n_old + 1,
                                        std::vector<uint32_t>(n_new + 1, 0));
  for (size_t i = n_old; i-- > 0;) {
    for (size_t j = n_new; j-- > 0;) {
      dp[i][j] = eq(i, j) ? dp[i + 1][j + 1] + 1
                          : std::max(dp[i + 1][j], dp[i][j + 1]);
    }
  }
  std::vector<std::pair<size_t, size_t>> pairs;
  size_t i = 0, j = 0;
  while (i < n_old && j < n_new) {
    if (eq(i, j)) {
      pairs.emplace_back(i, j);
      ++i;
      ++j;
    } else if (dp[i + 1][j] >= dp[i][j + 1]) {
      ++i;
    } else {
      ++j;
    }
  }
  return pairs;
}

/// `len` keys over an alphabet of `alphabet` ids; each key is kNoPairKey
/// with probability `unpaired` (a comment or PI in the gap pass).
std::vector<uint32_t> RandomKeys(Rng* rng, size_t len, uint32_t alphabet,
                                 double unpaired) {
  std::vector<uint32_t> keys(len);
  for (uint32_t& key : keys) {
    key = rng->Bernoulli(unpaired)
              ? kNoPairKey
              : static_cast<uint32_t>(rng->Uniform(alphabet));
  }
  return keys;
}

/// `keys` after a few random deletions, insertions and replacements, so the
/// two sides share long runs and often a common prefix.
std::vector<uint32_t> Edited(std::vector<uint32_t> keys, Rng* rng,
                             uint32_t alphabet, double unpaired) {
  size_t edits = rng->Uniform(6);
  for (size_t e = 0; e < edits; ++e) {
    uint32_t key = RandomKeys(rng, 1, alphabet, unpaired)[0];
    size_t at = rng->Uniform(keys.size() + 1);
    switch (rng->Uniform(3)) {
      case 0:
        if (at < keys.size()) keys.erase(keys.begin() + at);
        break;
      case 1:
        keys.insert(keys.begin() + at, key);
        break;
      default:
        if (at < keys.size()) keys[at] = key;
        break;
    }
  }
  return keys;
}

void ExpectSameAsReference(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  EXPECT_EQ(Lcs(a, b), ReferenceLcs(a, b))
      << "n=" << a.size() << " m=" << b.size();
}

TEST(LcsTest, MatchesTheDpTableAtWordBoundaries) {
  // Every pair of lengths around one and two 64-bit words, n == m and n != m.
  const size_t kLengths[] = {0, 1, 2, 63, 64, 65, 127, 128, 129};
  Rng rng(1901);
  for (size_t n : kLengths) {
    for (size_t m : kLengths) {
      for (uint32_t alphabet : {1u, 2u, 8u}) {
        ExpectSameAsReference(RandomKeys(&rng, n, alphabet, 0),
                              RandomKeys(&rng, m, alphabet, 0));
      }
    }
  }
}

TEST(LcsTest, MatchesTheDpTableOnDuplicatedKeys) {
  // Alphabets of 1-8 keys make ties in the table common, so the walk's
  // tie-break is exercised on nearly every call.
  Rng rng(1902);
  for (int trial = 0; trial < 600; ++trial) {
    uint32_t alphabet = 1 + static_cast<uint32_t>(rng.Uniform(8));
    auto a = RandomKeys(&rng, rng.Uniform(301), alphabet, 0);
    auto b = rng.Bernoulli(0.5)
                 ? Edited(a, &rng, alphabet, 0)
                 : RandomKeys(&rng, rng.Uniform(301), alphabet, 0);
    ExpectSameAsReference(a, b);
  }
}

TEST(LcsTest, UnpairedKeysNeverPair) {
  // Gap-pass keys: tags and text pair, comments and PIs (kNoPairKey) never,
  // not even with each other.
  Rng rng(1903);
  for (int trial = 0; trial < 300; ++trial) {
    uint32_t alphabet = 1 + static_cast<uint32_t>(rng.Uniform(4));
    auto a = RandomKeys(&rng, rng.Uniform(140), alphabet, 0.3);
    auto b = rng.Bernoulli(0.5)
                 ? Edited(a, &rng, alphabet, 0.3)
                 : RandomKeys(&rng, rng.Uniform(140), alphabet, 0.3);
    ExpectSameAsReference(a, b);
    for (auto [i, j] : Lcs(a, b)) EXPECT_NE(a[i], kNoPairKey);
  }
  const std::vector<uint32_t> comments(70, kNoPairKey);
  EXPECT_TRUE(Lcs(comments, comments).empty());
}

// Property: Apply(old, Diff(old, new)) == new over random tree edits.
class DiffApplyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<Node> RandomTree(Rng* rng, int depth) {
  static const char* kTags[] = {"a", "b", "c", "item", "name"};
  auto node = Node::Element(kTags[rng->Uniform(5)]);
  if (rng->Bernoulli(0.3)) {
    node->SetAttribute("k", std::to_string(rng->Uniform(10)));
  }
  size_t children = depth > 0 ? rng->Uniform(4) : 0;
  for (size_t i = 0; i < children; ++i) {
    if (rng->Bernoulli(0.4)) {
      node->AddChild(Node::Text("t" + std::to_string(rng->Uniform(20))));
    } else {
      node->AddChild(RandomTree(rng, depth - 1));
    }
  }
  return node;
}

/// Applies 1-4 random edits (insert/delete/retext/reattr) to a clone.
std::unique_ptr<Node> Mutate(const Node& original, Rng* rng) {
  auto tree = original.Clone();
  std::vector<Node*> elements;
  std::vector<Node*> texts;
  std::function<void(Node*)> collect = [&](Node* n) {
    if (n->is_element()) elements.push_back(n);
    if (n->is_text()) texts.push_back(n);
    for (const auto& c : n->children()) collect(c.get());
  };
  collect(tree.get());

  size_t edits = 1 + rng->Uniform(4);
  for (size_t e = 0; e < edits; ++e) {
    switch (rng->Uniform(4)) {
      case 0: {  // Insert a small subtree under a random element.
        Node* parent = elements[rng->Uniform(elements.size())];
        parent->InsertChild(rng->Uniform(parent->child_count() + 1),
                            RandomTree(rng, 1));
        break;
      }
      case 1: {  // Delete a random non-root element.
        if (elements.size() > 1) {
          Node* victim = elements[1 + rng->Uniform(elements.size() - 1)];
          Node* parent = victim->parent();
          if (parent != nullptr) {
            parent->RemoveChild(parent->IndexOfChild(victim));
            // Recollect (pointers into the removed subtree are stale).
            elements.clear();
            texts.clear();
            collect(tree.get());
          }
        }
        break;
      }
      case 2: {  // Re-text a random text node.
        if (!texts.empty()) {
          texts[rng->Uniform(texts.size())]->set_text(
              "mut" + std::to_string(rng->Uniform(100)));
        }
        break;
      }
      case 3: {  // Change an attribute.
        Node* el = elements[rng->Uniform(elements.size())];
        el->SetAttribute("k", "new" + std::to_string(rng->Uniform(10)));
        break;
      }
    }
  }
  return tree;
}

TEST_P(DiffApplyPropertyTest, ApplyDiffReconstructs) {
  Rng rng(GetParam() * 7919 + 13);
  auto old_root = RandomTree(&rng, 4);
  XidAllocator alloc;
  alloc.AssignAll(old_root.get());

  auto new_root = Mutate(*old_root, &rng);
  // Fresh copy for diffing (Diff mutates xids of its new_root argument).
  auto expected = new_root->Clone();
  DiffResult result = Diff(*old_root, new_root.get(), &alloc);

  auto applied = Apply(*old_root, result.delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*applied)->EqualsIgnoringXids(*expected))
      << "old:      " << xml::Serialize(*old_root)
      << "\nexpected: " << xml::Serialize(*expected)
      << "\ngot:      " << xml::Serialize(**applied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffApplyPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace xymon::xmldiff
