#include <gtest/gtest.h>

#include <functional>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/xml/codec.h"
#include "src/xml/dom.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "src/xmldiff/diff.h"

namespace xymon::xml {
namespace {

Document MustParse(std::string_view text) {
  auto doc = Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << " for: " << text;
  return std::move(doc).value();
}

// ---------------------------------------------------------------- Parser --

TEST(XmlParserTest, MinimalElement) {
  Document doc = MustParse("<a/>");
  ASSERT_NE(doc.root, nullptr);
  EXPECT_EQ(doc.root->name(), "a");
  EXPECT_TRUE(doc.root->children().empty());
}

TEST(XmlParserTest, NestedElementsAndText) {
  Document doc = MustParse("<a><b>hello</b><c/></a>");
  ASSERT_EQ(doc.root->child_count(), 2u);
  EXPECT_EQ(doc.root->child(0)->name(), "b");
  EXPECT_EQ(doc.root->child(0)->TextContent(), "hello");
  EXPECT_EQ(doc.root->child(1)->name(), "c");
}

TEST(XmlParserTest, Attributes) {
  Document doc = MustParse(R"(<a x="1" y='two' z="a&amp;b"/>)");
  EXPECT_EQ(*doc.root->GetAttribute("x"), "1");
  EXPECT_EQ(*doc.root->GetAttribute("y"), "two");
  EXPECT_EQ(*doc.root->GetAttribute("z"), "a&b");
  EXPECT_EQ(doc.root->GetAttribute("w"), nullptr);
}

TEST(XmlParserTest, DuplicateAttributeRejected) {
  EXPECT_TRUE(Parse(R"(<a x="1" x="2"/>)").status().IsParseError());
}

TEST(XmlParserTest, PredefinedEntities) {
  Document doc = MustParse("<a>&lt;&gt;&amp;&apos;&quot;</a>");
  EXPECT_EQ(doc.root->TextContent(), "<>&'\"");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  Document doc = MustParse("<a>&#65;&#x42;&#233;</a>");
  EXPECT_EQ(doc.root->TextContent(), "AB\xC3\xA9");  // "ABé" in UTF-8
}

TEST(XmlParserTest, BadCharacterReference) {
  EXPECT_TRUE(Parse("<a>&#xZZ;</a>").status().IsParseError());
  EXPECT_TRUE(Parse("<a>&#;</a>").status().IsParseError());
  EXPECT_TRUE(Parse("<a>&#1114112;</a>").status().IsParseError());
}

TEST(XmlParserTest, UnknownEntityRejected) {
  EXPECT_TRUE(Parse("<a>&unknown;</a>").status().IsParseError());
}

TEST(XmlParserTest, CdataSection) {
  Document doc = MustParse("<a><![CDATA[<not> & parsed]]></a>");
  EXPECT_EQ(doc.root->TextContent(), "<not> & parsed");
}

TEST(XmlParserTest, CommentsIgnored) {
  Document doc = MustParse("<!-- head --><a>x<!-- mid -->y</a>");
  EXPECT_EQ(doc.root->TextContent(), "xy");
}

TEST(XmlParserTest, XmlDeclAndPi) {
  Document doc = MustParse("<?xml version=\"1.0\"?><?other pi?><a/>");
  EXPECT_EQ(doc.root->name(), "a");
}

TEST(XmlParserTest, DoctypeWithSystemId) {
  Document doc = MustParse(
      "<!DOCTYPE catalog SYSTEM \"http://ex.com/cat.dtd\"><catalog/>");
  EXPECT_EQ(doc.doctype_name, "catalog");
  EXPECT_EQ(doc.dtd_url, "http://ex.com/cat.dtd");
}

TEST(XmlParserTest, DoctypeWithPublicId) {
  Document doc = MustParse(
      "<!DOCTYPE html PUBLIC \"-//W3C//DTD\" \"http://w3.org/html.dtd\">"
      "<html/>");
  EXPECT_EQ(doc.doctype_name, "html");
  EXPECT_EQ(doc.dtd_url, "http://w3.org/html.dtd");
}

TEST(XmlParserTest, DoctypeInternalSubsetSkipped) {
  Document doc =
      MustParse("<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>t</a>");
  EXPECT_EQ(doc.doctype_name, "a");
  EXPECT_EQ(doc.root->TextContent(), "t");
}

TEST(XmlParserTest, MismatchedTagsRejected) {
  auto st = Parse("<a><b></a></b>").status();
  EXPECT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("mismatched"), std::string::npos);
}

TEST(XmlParserTest, TruncatedInputRejected) {
  EXPECT_TRUE(Parse("<a><b>").status().IsParseError());
  EXPECT_TRUE(Parse("<a attr=\"x").status().IsParseError());
  EXPECT_TRUE(Parse("").status().IsParseError());
}

TEST(XmlParserTest, TrailingContentRejected) {
  EXPECT_TRUE(Parse("<a/><b/>").status().IsParseError());
  EXPECT_TRUE(Parse("<a/>junk").status().IsParseError());
}

TEST(XmlParserTest, ErrorPositionsAreReported) {
  auto st = Parse("<a>\n<b x=></b></a>").status();
  ASSERT_TRUE(st.IsParseError());
  EXPECT_NE(st.message().find("2:"), std::string::npos) << st.ToString();
}

// Exact error texts, position included. Pinned so that a rewrite of the
// scanner keeps every message and every line:col.
TEST(XmlParserTest, ErrorTextsArePinned) {
  struct Case {
    std::string input;
    std::string error;
  };
  const Case kCases[] = {
      {"", "ParseError: expected root element at 1:1"},
      {"plain text", "ParseError: expected '<' at document root at 1:1"},
      {"<a>\n<b x=></b></a>", "ParseError: expected quoted literal at 2:6"},
      {"<a><b></a></b>", "ParseError: mismatched end tag </a> for <b> at 1:10"},
      {"<r>\n  <p>\n    &bogus; here\n  </p>\n</r>",
       "ParseError: unknown entity '&bogus;' at 3:12"},
      {"<a>&#xZZ;</a>", "ParseError: bad character reference at 1:10"},
      {"<a>\n&#;</a>", "ParseError: empty character reference at 2:4"},
      {"<a>&#1114112;</a>",
       "ParseError: character reference out of range at 1:14"},
      {"<a>&amp</a>", "ParseError: unterminated entity reference at 1:12"},
      {"<a attr=\"x\ny", "ParseError: unterminated literal at 2:2"},
      {"<a x=\"1\"\n   x='2'/>", "ParseError: duplicate attribute 'x' at 2:9"},
      {"<a 1=\"x\"/>", "ParseError: expected attribute name in <a> at 1:4"},
      {"<a b></a>", "ParseError: expected '=' after attribute at 1:5"},
      {"<a / >", "ParseError: expected '>' after '/' at 1:5"},
      {"<a\n", "ParseError: unterminated start tag <a at 2:1"},
      {"<a><b>text\n<!-- c -->",
       "ParseError: unexpected end of input inside <b> at 2:11"},
      {"<a><![CDATA[x\n]]</a>",
       "ParseError: unterminated CDATA section at 2:7"},
      {"<a></a\n", "ParseError: expected '>' in end tag at 2:1"},
      {"<a/>\n<!-- tail -->junk",
       "ParseError: trailing content after root element at 2:14"},
      {"<!DOCTYPE>", "ParseError: expected DOCTYPE name at 1:10"},
      {"<!DOCTYPE a SYSTEM \"x.dtd\"\n<a/>",
       "ParseError: unterminated DOCTYPE at 2:1"},
      {"<!DOCTYPE a SYSTEM x.dtd><a/>",
       "ParseError: expected quoted literal at 1:20"},
      {"<?xml version=\"1.0\"?>\n<!-- open",
       "ParseError: expected root element at 2:10"},
      {"<\xC3\xA9l\xC3\xA9ment>\n\t<?pi x?></x>",
       "ParseError: mismatched end tag </x> for <\xC3\xA9l\xC3\xA9ment> "
       "at 2:13"},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(Parse(c.input).status().ToString(), c.error)
        << "input: " << c.input;
  }
  ParseOptions shallow;
  shallow.max_depth = 2;
  EXPECT_EQ(Parse("<a><b><c/></b></a>", shallow).status().ToString(),
            "ResourceExhausted: element nesting exceeds the depth limit (2)");
  ParseOptions small;
  small.max_input_bytes = 4;
  EXPECT_EQ(Parse("<abc/>", small).status().ToString(),
            "ResourceExhausted: document exceeds the input limit (6 > 4 "
            "bytes)");
}

// Seeded mutation loop over a catalog page: every outcome (the encoded
// document, or the error text) feeds one digest that is pinned, so a
// scanner rewrite must accept, reject and report exactly as before. Each
// input gets 1-3 edits: a bit flip, a truncation, or an inserted markup
// character.
TEST(XmlParserTest, MutatedCatalogOutcomesArePinned) {
  const std::string page =
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE catalog SYSTEM \"http://shop.example/catalog.dtd\">\n"
      "<!-- weekly catalog -->\n"
      "<catalog shop=\"example\" updated='2001-05-21'>\n"
      "  <Product id=\"1\" kind=\"camera\">\n"
      "    <name>Digital camera &amp; lens</name>\n"
      "    <price currency=\"EUR\">199.99</price>\n"
      "    <desc>Compact, 3&#215; zoom &#x2014; "
      "<![CDATA[<b>new</b> & improved]]></desc>\n"
      "  </Product>\n"
      "  <?render inline?>\n"
      "  <Product id=\"2\">\n"
      "    <name>TV set</name><price>&lt;300</price>\n"
      "    <stock/>\n"
      "  </Product>\n"
      "  <Product id=\"3\" note=\"&quot;sale&quot;\"><name>Radio</name>\n"
      "    <price>49</price></Product>\n"
      "</catalog>\n";
  ASSERT_TRUE(Parse(page).ok());
  static constexpr std::string_view kInserted = "<>&/\"=;![]-?\n";
  Rng rng(20010521);
  uint64_t digest = kFnvOffset;
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string input = page;
    int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.Uniform(3)) {
        case 0:
          if (!input.empty()) {
            input[rng.Uniform(input.size())] ^=
                static_cast<char>(1u << rng.Uniform(8));
          }
          break;
        case 1:
          input.resize(rng.Uniform(input.size() + 1));
          break;
        default:
          input.insert(rng.Uniform(input.size() + 1), 1,
                       kInserted[rng.Uniform(kInserted.size())]);
          break;
      }
    }
    auto doc = Parse(input);
    std::string outcome =
        doc.ok() ? "OK " + EncodeDocument(*doc) : doc.status().ToString();
    if (doc.ok()) ++accepted;
    digest = HashCombine(digest, Fnv1a(outcome));
  }
  EXPECT_EQ(accepted, 480);
  EXPECT_EQ(digest, 0x8fe98ca97978b9dfull);
}

TEST(XmlParserTest, DeepNesting) {
  std::string text;
  constexpr int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) text += "<d>";
  text += "x";
  for (int i = 0; i < kDepth; ++i) text += "</d>";
  Document doc = MustParse(text);
  EXPECT_EQ(doc.root->TextContent(), "x");
}

// ------------------------------------------------------------------- DOM --

TEST(DomTest, AddAndFindChildren) {
  auto root = Node::Element("root");
  root->AddElement("a", "1");
  root->AddElement("b", "2");
  root->AddElement("a", "3");
  EXPECT_EQ(root->FindChild("b")->TextContent(), "2");
  EXPECT_EQ(root->FindChildren("a").size(), 2u);
  EXPECT_EQ(root->FindChild("zzz"), nullptr);
}

TEST(DomTest, FindDescendantsIncludesSelf) {
  Document doc = MustParse("<a><a><b><a/></b></a></a>");
  EXPECT_EQ(doc.root->FindDescendants("a").size(), 3u);
}

TEST(DomTest, InsertAndRemoveChild) {
  auto root = Node::Element("r");
  root->AddElement("a");
  root->AddElement("c");
  root->InsertChild(1, Node::Element("b"));
  ASSERT_EQ(root->child_count(), 3u);
  EXPECT_EQ(root->child(1)->name(), "b");
  auto removed = root->RemoveChild(0);
  EXPECT_EQ(removed->name(), "a");
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_EQ(root->child(0)->name(), "b");
}

TEST(DomTest, ParentLinksMaintained) {
  auto root = Node::Element("r");
  Node* child = root->AddElement("c");
  EXPECT_EQ(child->parent(), root.get());
  EXPECT_EQ(root->IndexOfChild(child), 0u);
  EXPECT_EQ(child->Depth(), 1);
}

TEST(DomTest, PostorderVisitsChildrenFirst) {
  Document doc = MustParse("<a><b><c/></b><d/></a>");
  std::vector<std::string> order;
  doc.root->VisitPostorder([&](const Node& n) {
    if (n.is_element()) order.push_back(n.name());
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<std::string>{"c", "b", "d", "a"}));
}

TEST(DomTest, CloneIsDeepAndEqual) {
  Document doc = MustParse(R"(<a x="1"><b>t</b></a>)");
  doc.root->set_xid(77);
  auto clone = doc.root->Clone();
  EXPECT_TRUE(doc.root->EqualsIgnoringXids(*clone));
  EXPECT_EQ(clone->xid(), 77u);
  // Mutating the clone must not touch the original (deep copy).
  clone->FindChild("b")->child(0)->set_text("changed");
  EXPECT_FALSE(doc.root->EqualsIgnoringXids(*clone));
  EXPECT_EQ(doc.root->FindChild("b")->TextContent(), "t");
}

TEST(DomTest, EqualsDetectsDifferences) {
  Document a = MustParse("<a><b>x</b></a>");
  Document b = MustParse("<a><b>y</b></a>");
  Document c = MustParse("<a><b>x</b><c/></a>");
  EXPECT_FALSE(a.root->EqualsIgnoringXids(*b.root));
  EXPECT_FALSE(a.root->EqualsIgnoringXids(*c.root));
  EXPECT_TRUE(a.root->EqualsIgnoringXids(*MustParse("<a><b>x</b></a>").root));
}

TEST(DomTest, SubtreeHashSensitiveToContent) {
  Document a = MustParse("<a><b>x</b></a>");
  Document b = MustParse("<a><b>y</b></a>");
  Document c = MustParse(R"(<a q="1"><b>x</b></a>)");
  EXPECT_NE(a.root->SubtreeHash(), b.root->SubtreeHash());
  EXPECT_NE(a.root->SubtreeHash(), c.root->SubtreeHash());
  EXPECT_EQ(a.root->SubtreeHash(), MustParse("<a><b>x</b></a>").root->SubtreeHash());
}

// SubtreeHash() keeps its result in the node. Every mutator must drop the
// kept hash of the node it changes and of all its ancestors: a stale hash
// would make the diff anchor changed content as unchanged.
TEST(DomTest, MutatorsInvalidateKeptHashes) {
  // <d> is the element three levels below the root, "tail" the text node.
  const std::string text =
      "<a><b><c k=\"v\"><d x=\"1\">text<e/></d>tail</c></b><f>u</f></a>";
  struct Mutation {
    const char* name;
    std::function<void(Node* d, Node* tail)> apply;
  };
  const Mutation kMutations[] = {
      {"set_name", [](Node* d, Node*) { d->set_name("renamed"); }},
      {"set_text", [](Node*, Node* tail) { tail->set_text("changed"); }},
      {"SetAttribute (update)",
       [](Node* d, Node*) { d->SetAttribute("x", "2"); }},
      {"SetAttribute (add)",
       [](Node* d, Node*) { d->SetAttribute("y", "3"); }},
      {"ReplaceAttributes",
       [](Node* d, Node*) { d->ReplaceAttributes({{"z", "9"}}); }},
      {"AddChild", [](Node* d, Node*) { d->AddChild(Node::Element("g")); }},
      {"InsertChild",
       [](Node* d, Node*) { d->InsertChild(0, Node::Element("h")); }},
      {"RemoveChild", [](Node* d, Node*) { d->RemoveChild(1); }},
  };
  for (const Mutation& m : kMutations) {
    SCOPED_TRACE(m.name);
    Document original = MustParse(text);
    xmldiff::XidAllocator xids;
    xids.AssignAll(original.root.get());
    const uint64_t before = original.root->SubtreeHash();  // kept everywhere
    // A clone shares the kept hashes; mutate it three levels down.
    auto mutated = original.root->Clone();
    Node* c = mutated->child(0)->child(0);
    m.apply(c->child(0), c->child(1));

    const std::string serialized = Serialize(*mutated);
    ASSERT_NE(serialized, text);
    // Fatal: diffing against a stale hash would walk mismatched trees.
    ASSERT_EQ(mutated->SubtreeHash(),
              MustParse(serialized).root->SubtreeHash());
    ASSERT_NE(mutated->SubtreeHash(), before);
    ASSERT_EQ(original.root->SubtreeHash(), before);

    xmldiff::DiffResult diff =
        xmldiff::Diff(*original.root, mutated.get(), &xids);
    EXPECT_FALSE(diff.delta.empty());
    EXPECT_FALSE(diff.changes.empty());
  }
}

TEST(DomTest, TextContentConcatenatesDescendants) {
  Document doc = MustParse("<a>one<b> two</b> three</a>");
  EXPECT_EQ(doc.root->TextContent(), "one two three");
}

// ------------------------------------------------------------ Serializer --

TEST(SerializerTest, EscapesSpecialCharacters) {
  auto node = Node::Element("a");
  node->AddChild(Node::Text("x<y & z>"));
  node->SetAttribute("q", "a\"b<c");
  std::string out = Serialize(*node);
  EXPECT_EQ(out, "<a q=\"a&quot;b&lt;c\">x&lt;y &amp; z&gt;</a>");
}

TEST(SerializerTest, SelfClosesEmptyElements) {
  EXPECT_EQ(Serialize(*Node::Element("empty")), "<empty/>");
}

TEST(SerializerTest, PrologIncludesDoctype) {
  Document doc = MustParse(
      "<!DOCTYPE c SYSTEM \"http://e/c.dtd\"><c/>");
  std::string out = Serialize(doc, {.indent = false, .prolog = true});
  EXPECT_NE(out.find("<?xml"), std::string::npos);
  EXPECT_NE(out.find("<!DOCTYPE c SYSTEM \"http://e/c.dtd\">"),
            std::string::npos);
}

TEST(SerializerTest, IndentedOutputParsesBack) {
  Document doc = MustParse("<a><b><c>x</c></b><d/></a>");
  std::string pretty = Serialize(*doc.root, {.indent = true});
  Document again = MustParse(pretty);
  EXPECT_TRUE(doc.root->EqualsIgnoringXids(*again.root));
}

std::unique_ptr<Node> RandomTree(Rng* rng, int depth);

// ----------------------------------------------------------------- Codec --

TEST(CodecTest, VarintRoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{300}, uint64_t{1} << 20, uint64_t{1} << 40,
                     UINT64_MAX}) {
    std::string buf;
    PutVarint(v, &buf);
    std::string_view view(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint(&view, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(view.empty());
  }
}

TEST(CodecTest, StringRoundTripIncludingBinary) {
  std::string binary("\x00\xff<>&\n", 6);
  std::string buf;
  PutString(binary, &buf);
  std::string_view view(buf);
  std::string decoded;
  ASSERT_TRUE(GetString(&view, &decoded));
  EXPECT_EQ(decoded, binary);
}

TEST(CodecTest, DocumentRoundTripPreservesXids) {
  Document doc = MustParse(
      "<!DOCTYPE c SYSTEM \"http://e/c.dtd\">"
      "<c a=\"1\"><p>text &amp; more</p><q/></c>");
  doc.root->set_xid(42);
  doc.root->child(0)->set_xid(43);

  std::string encoded = EncodeDocument(doc);
  auto decoded = DecodeDocument(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->doctype_name, "c");
  EXPECT_EQ(decoded->dtd_url, "http://e/c.dtd");
  EXPECT_TRUE(decoded->root->EqualsIgnoringXids(*doc.root));
  EXPECT_EQ(decoded->root->xid(), 42u);
  EXPECT_EQ(decoded->root->child(0)->xid(), 43u);
}

TEST(CodecTest, CorruptInputRejected) {
  Document doc = MustParse("<a><b>t</b></a>");
  std::string encoded = EncodeDocument(doc);
  EXPECT_TRUE(DecodeDocument("").status().IsCorruption());
  EXPECT_TRUE(DecodeDocument("WRONGMAGIC").status().IsCorruption());
  // Truncations at every length must fail cleanly, never crash.
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto result = DecodeDocument(encoded.substr(0, len));
    EXPECT_FALSE(result.ok()) << "accepted truncation at " << len;
  }
  // Byte flips must not crash (may decode to a different valid doc).
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = encoded;
    mutated[rng.Uniform(mutated.size())] = static_cast<char>(rng.Next());
    (void)DecodeDocument(mutated);
  }
}

class CodecRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecRoundTripTest, RandomDocumentsRoundTrip) {
  Rng rng(GetParam() * 31 + 5);
  auto tree = RandomTree(&rng, 4);
  Document doc;
  doc.root = tree->Clone();
  std::string encoded = EncodeDocument(doc);
  auto decoded = DecodeDocument(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->root->EqualsIgnoringXids(*doc.root));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripTest,
                         ::testing::Range<uint64_t>(0, 15));

// Round-trip property: parse(serialize(t)) == t over random documents.
class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

std::unique_ptr<Node> RandomTree(Rng* rng, int depth) {
  auto node = Node::Element("el" + std::to_string(rng->Uniform(5)));
  if (rng->Bernoulli(0.5)) {
    node->SetAttribute("a" + std::to_string(rng->Uniform(3)),
                       "v<&\"'" + std::to_string(rng->Uniform(100)));
  }
  size_t children = rng->Uniform(depth > 0 ? 4 : 1);
  bool last_was_text = false;
  for (size_t i = 0; i < children; ++i) {
    // Adjacent text nodes merge on reparse, so never generate two in a row.
    if (!last_was_text && rng->Bernoulli(0.4)) {
      node->AddChild(Node::Text("text&<>" + std::to_string(rng->Uniform(50))));
      last_was_text = true;
    } else {
      node->AddChild(RandomTree(rng, depth - 1));
      last_was_text = false;
    }
  }
  return node;
}

TEST_P(XmlRoundTripTest, ParseSerializeFixpoint) {
  Rng rng(GetParam());
  auto tree = RandomTree(&rng, 4);
  std::string text = Serialize(*tree);
  auto parsed = ParseFragment(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(tree->EqualsIgnoringXids(**parsed)) << text;
  // Second round trip is the identity.
  EXPECT_EQ(Serialize(**parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace xymon::xml
