#include <gtest/gtest.h>

#include <algorithm>

#include "src/alerters/condition.h"
#include "src/alerters/html_alerter.h"
#include "src/alerters/pipeline.h"
#include "src/alerters/prefix_matcher.h"
#include "src/alerters/url_alerter.h"
#include "src/alerters/xml_alerter.h"
#include "src/common/rng.h"
#include "src/warehouse/warehouse.h"

namespace xymon::alerters {
namespace {

using mqp::AtomicEvent;
using warehouse::DocStatus;
using xmldiff::ChangeOp;

std::vector<AtomicEvent> Sorted(std::vector<AtomicEvent> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// -------------------------------------------------------------- Condition --

TEST(ConditionTest, WeakVsStrong) {
  Condition c;
  c.kind = ConditionKind::kDocStatus;
  c.status = DocStatus::kNew;
  EXPECT_TRUE(c.IsWeak());
  c.status = DocStatus::kUpdated;
  EXPECT_TRUE(c.IsWeak());
  c.status = DocStatus::kUnchanged;
  EXPECT_TRUE(c.IsWeak());
  c.status = DocStatus::kDeleted;
  EXPECT_FALSE(c.IsWeak());  // Deletion is rare, hence strong (§5.1).
  c.kind = ConditionKind::kUrlExtends;
  EXPECT_FALSE(c.IsWeak());
}

TEST(ConditionTest, KeysAreCanonicalAndDistinct) {
  Condition a, b;
  a.kind = b.kind = ConditionKind::kElementChange;
  a.tag = b.tag = "Product";
  a.word = b.word = "camera";
  a.change_op = ChangeOp::kNew;
  b.change_op = ChangeOp::kUpdated;
  EXPECT_NE(a.Key(), b.Key());
  b.change_op = ChangeOp::kNew;
  EXPECT_EQ(a.Key(), b.Key());
  b.strict = true;
  EXPECT_NE(a.Key(), b.Key());

  Condition url;
  url.kind = ConditionKind::kUrlEquals;
  url.str_value = "x";
  Condition prefix;
  prefix.kind = ConditionKind::kUrlExtends;
  prefix.str_value = "x";
  EXPECT_NE(url.Key(), prefix.Key());
}

TEST(ConditionTest, CompareTimestamps) {
  EXPECT_TRUE(CompareTimestamps(1, Comparator::kLt, 2));
  EXPECT_TRUE(CompareTimestamps(2, Comparator::kLe, 2));
  EXPECT_TRUE(CompareTimestamps(2, Comparator::kEq, 2));
  EXPECT_TRUE(CompareTimestamps(2, Comparator::kGe, 2));
  EXPECT_TRUE(CompareTimestamps(3, Comparator::kGt, 2));
  EXPECT_FALSE(CompareTimestamps(3, Comparator::kLt, 2));
}

// --------------------------------------------------------- PrefixMatchers --

template <typename T>
class PrefixMatcherTypedTest : public ::testing::Test {
 protected:
  T matcher_;
};
using PrefixMatcherTypes =
    ::testing::Types<HashPrefixMatcher, TriePrefixMatcher>;
TYPED_TEST_SUITE(PrefixMatcherTypedTest, PrefixMatcherTypes);

TYPED_TEST(PrefixMatcherTypedTest, MatchesAllPrefixes) {
  this->matcher_.Add("http://a/", 1);
  this->matcher_.Add("http://a/b/", 2);
  this->matcher_.Add("http://a/b/c.xml", 3);
  this->matcher_.Add("http://z/", 9);

  std::vector<AtomicEvent> out;
  this->matcher_.Match("http://a/b/c.xml", &out);
  EXPECT_EQ(Sorted(out), (std::vector<AtomicEvent>{1, 2, 3}));

  out.clear();
  this->matcher_.Match("http://a/bX", &out);
  EXPECT_EQ(Sorted(out), (std::vector<AtomicEvent>{1}));

  out.clear();
  this->matcher_.Match("http://none/", &out);
  EXPECT_TRUE(out.empty());
}

TYPED_TEST(PrefixMatcherTypedTest, ExactUrlIsItsOwnPrefix) {
  this->matcher_.Add("http://x/", 5);
  std::vector<AtomicEvent> out;
  this->matcher_.Match("http://x/", &out);
  EXPECT_EQ(out, (std::vector<AtomicEvent>{5}));
}

TYPED_TEST(PrefixMatcherTypedTest, RemoveStopsMatching) {
  this->matcher_.Add("http://x/", 5);
  this->matcher_.Remove("http://x/");
  std::vector<AtomicEvent> out;
  this->matcher_.Match("http://x/page", &out);
  EXPECT_TRUE(out.empty());
}

TEST(PrefixMatcherEquivalenceTest, HashAndTrieAgreeOnRandomUrls) {
  HashPrefixMatcher hash;
  TriePrefixMatcher trie;
  Rng rng(11);
  std::vector<std::string> hosts = {"http://a.com/", "http://b.org/x/",
                                    "http://c.net/y/z/"};
  std::vector<std::string> prefixes;
  for (int i = 0; i < 200; ++i) {
    std::string p = hosts[rng.Uniform(hosts.size())];
    size_t extra = rng.Uniform(6);
    for (size_t j = 0; j < extra; ++j) {
      p += static_cast<char>('a' + rng.Uniform(4));
      if (rng.Bernoulli(0.3)) p += '/';
    }
    prefixes.push_back(p);
    hash.Add(p, static_cast<AtomicEvent>(i));
    trie.Add(p, static_cast<AtomicEvent>(i));
  }
  for (int i = 0; i < 500; ++i) {
    std::string url = prefixes[rng.Uniform(prefixes.size())];
    size_t extra = rng.Uniform(8);
    for (size_t j = 0; j < extra; ++j) {
      url += static_cast<char>('a' + rng.Uniform(5));
    }
    std::vector<AtomicEvent> a, b;
    hash.Match(url, &a);
    trie.Match(url, &b);
    // Duplicate prefixes overwrite in both structures; compare sets.
    EXPECT_EQ(Sorted(a), Sorted(b)) << url;
  }
}

TEST(PrefixMatcherMemoryTest, TrieCostsMoreMemory) {
  HashPrefixMatcher hash;
  TriePrefixMatcher trie;
  for (int i = 0; i < 500; ++i) {
    std::string p = "http://site" + std::to_string(i) + ".com/path/";
    hash.Add(p, static_cast<AtomicEvent>(i));
    trie.Add(p, static_cast<AtomicEvent>(i));
  }
  // The paper rejected the dictionary because of memory overhead (§6.2).
  EXPECT_GT(trie.MemoryUsage(), hash.MemoryUsage());
}

// -------------------------------------------------------------- UrlAlerter --

class UrlAlerterTest : public ::testing::Test {
 protected:
  Condition Cond(ConditionKind kind, std::string value) {
    Condition c;
    c.kind = kind;
    c.str_value = std::move(value);
    return c;
  }

  warehouse::DocMeta Meta() {
    warehouse::DocMeta meta;
    meta.docid = 42;
    meta.url = "http://inria.fr/Xy/members.xml";
    meta.filename = "members.xml";
    meta.is_xml = true;
    meta.dtd_url = "http://inria.fr/dtd/members.dtd";
    meta.dtdid = 3;
    meta.domain = "xyleme";
    meta.last_accessed = 1000;
    meta.last_updated = 900;
    meta.status = DocStatus::kUpdated;
    return meta;
  }

  std::vector<AtomicEvent> Detect(const warehouse::DocMeta& meta) {
    std::vector<AtomicEvent> out;
    alerter_.Detect(meta, &out);
    return Sorted(out);
  }

  UrlAlerter alerter_;
};

TEST_F(UrlAlerterTest, AllMetadataConditionsFire) {
  ASSERT_TRUE(alerter_
                  .Register(1, Cond(ConditionKind::kUrlExtends,
                                    "http://inria.fr/Xy/"))
                  .ok());
  ASSERT_TRUE(alerter_
                  .Register(2, Cond(ConditionKind::kUrlEquals,
                                    "http://inria.fr/Xy/members.xml"))
                  .ok());
  ASSERT_TRUE(
      alerter_.Register(3, Cond(ConditionKind::kFilenameEquals, "members.xml"))
          .ok());
  ASSERT_TRUE(
      alerter_.Register(4, Cond(ConditionKind::kDomainEquals, "xyleme")).ok());
  ASSERT_TRUE(alerter_
                  .Register(5, Cond(ConditionKind::kDtdUrlEquals,
                                    "http://inria.fr/dtd/members.dtd"))
                  .ok());
  Condition docid;
  docid.kind = ConditionKind::kDocIdEquals;
  docid.num_value = 42;
  ASSERT_TRUE(alerter_.Register(6, docid).ok());
  Condition dtdid;
  dtdid.kind = ConditionKind::kDtdIdEquals;
  dtdid.num_value = 3;
  ASSERT_TRUE(alerter_.Register(7, dtdid).ok());
  Condition status;
  status.kind = ConditionKind::kDocStatus;
  status.status = DocStatus::kUpdated;
  ASSERT_TRUE(alerter_.Register(8, status).ok());
  Condition date;
  date.kind = ConditionKind::kLastUpdateCmp;
  date.cmp = Comparator::kGe;
  date.date_value = 500;
  ASSERT_TRUE(alerter_.Register(9, date).ok());

  EXPECT_EQ(Detect(Meta()),
            (std::vector<AtomicEvent>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(alerter_.condition_count(), 9u);
}

TEST_F(UrlAlerterTest, NonMatchingMetadataFiresNothing) {
  ASSERT_TRUE(
      alerter_.Register(1, Cond(ConditionKind::kUrlExtends, "http://other/"))
          .ok());
  ASSERT_TRUE(
      alerter_.Register(2, Cond(ConditionKind::kDomainEquals, "biology")).ok());
  Condition date;
  date.kind = ConditionKind::kLastAccessedCmp;
  date.cmp = Comparator::kLt;
  date.date_value = 10;  // last_accessed = 1000, so no.
  ASSERT_TRUE(alerter_.Register(3, date).ok());
  EXPECT_TRUE(Detect(Meta()).empty());
}

TEST_F(UrlAlerterTest, UnregisterStopsDetection) {
  Condition c = Cond(ConditionKind::kUrlExtends, "http://inria.fr/");
  ASSERT_TRUE(alerter_.Register(1, c).ok());
  EXPECT_EQ(Detect(Meta()).size(), 1u);
  ASSERT_TRUE(alerter_.Unregister(1, c).ok());
  EXPECT_TRUE(Detect(Meta()).empty());
}

TEST_F(UrlAlerterTest, RejectsContentConditions) {
  Condition c;
  c.kind = ConditionKind::kElementChange;
  c.tag = "p";
  EXPECT_TRUE(alerter_.Register(1, c).IsInvalidArgument());
}

// -------------------------------------------------------------- XmlAlerter --

class XmlAlerterTest : public ::testing::Test {
 protected:
  Condition ElementCond(std::optional<ChangeOp> op, std::string tag,
                        std::string word = "", bool strict = false) {
    Condition c;
    c.kind = ConditionKind::kElementChange;
    c.change_op = op;
    c.tag = std::move(tag);
    c.word = std::move(word);
    c.strict = strict;
    return c;
  }

  std::vector<AtomicEvent> DetectOn(const std::string& url,
                                    const std::string& v1,
                                    const std::string& v2 = "") {
    warehouse::IngestResult ingest = wh_.Ingest({url, v1}, 1);
    if (!v2.empty()) {
      ingest = wh_.Ingest({url, v2}, 2);
    }
    std::vector<AtomicEvent> out;
    alerter_.Detect(ingest, &out);
    return Sorted(out);
  }

  warehouse::Warehouse wh_;
  XmlAlerter alerter_;
};

TEST_F(XmlAlerterTest, PresenceConditionTagOnly) {
  ASSERT_TRUE(alerter_.Register(1, ElementCond(std::nullopt, "Product")).ok());
  EXPECT_EQ(DetectOn("http://1", "<c><Product/></c>"),
            (std::vector<AtomicEvent>{1}));
  EXPECT_TRUE(DetectOn("http://2", "<c><Other/></c>").empty());
}

TEST_F(XmlAlerterTest, ContainsAnywhereInSubtree) {
  ASSERT_TRUE(
      alerter_.Register(1, ElementCond(std::nullopt, "Product", "camera"))
          .ok());
  // Word is in a grandchild: contains (non-strict) must see it.
  EXPECT_EQ(DetectOn("http://1",
                     "<c><Product><desc><line>a camera here</line></desc>"
                     "</Product></c>"),
            (std::vector<AtomicEvent>{1}));
  // Word absent.
  EXPECT_TRUE(
      DetectOn("http://2", "<c><Product><desc>tv</desc></Product></c>")
          .empty());
  // Word present but under a different tag.
  EXPECT_TRUE(
      DetectOn("http://3", "<c><Other>camera</Other></c>").empty());
}

TEST_F(XmlAlerterTest, StrictContainsRequiresDirectText) {
  ASSERT_TRUE(alerter_
                  .Register(1, ElementCond(std::nullopt, "Product", "camera",
                                           /*strict=*/true))
                  .ok());
  EXPECT_TRUE(
      DetectOn("http://1",
               "<c><Product><desc>camera</desc></Product></c>")
          .empty());
  EXPECT_EQ(DetectOn("http://2", "<c><Product>a camera<desc/></Product></c>"),
            (std::vector<AtomicEvent>{1}));
}

TEST_F(XmlAlerterTest, CaseInsensitiveWordMatch) {
  ASSERT_TRUE(
      alerter_.Register(1, ElementCond(std::nullopt, "p", "Camera")).ok());
  EXPECT_EQ(DetectOn("http://1", "<d><p>CAMERA!</p></d>"),
            (std::vector<AtomicEvent>{1}));
}

TEST_F(XmlAlerterTest, NewElementCondition) {
  ASSERT_TRUE(
      alerter_.Register(1, ElementCond(ChangeOp::kNew, "Product")).ok());
  // Brand-new document: all elements are new.
  EXPECT_EQ(DetectOn("http://1", "<c><Product/></c>"),
            (std::vector<AtomicEvent>{1}));
  // Unchanged refetch raises nothing.
  EXPECT_TRUE(DetectOn("http://2", "<c><Product/></c>",
                       "<c><Product/></c>")
                  .empty());
  // Updated document with an inserted Product raises it.
  EXPECT_EQ(DetectOn("http://3", "<c><Product id=\"1\"/></c>",
                     "<c><Product id=\"1\"/><Product id=\"2\"/></c>"),
            (std::vector<AtomicEvent>{1}));
}

TEST_F(XmlAlerterTest, UpdatedElementWithContains) {
  ASSERT_TRUE(
      alerter_
          .Register(1, ElementCond(ChangeOp::kUpdated, "Product", "camera"))
          .ok());
  // Price change inside a camera product.
  EXPECT_EQ(
      DetectOn("http://1",
               "<c><Product><name>camera x</name><price>1</price></Product></c>",
               "<c><Product><name>camera x</name><price>2</price></Product></c>"),
      (std::vector<AtomicEvent>{1}));
  // Price change in a non-camera product: no event.
  EXPECT_TRUE(
      DetectOn("http://2",
               "<c><Product><name>tv</name><price>1</price></Product></c>",
               "<c><Product><name>tv</name><price>2</price></Product></c>")
          .empty());
}

TEST_F(XmlAlerterTest, DeletedElementCondition) {
  ASSERT_TRUE(
      alerter_.Register(1, ElementCond(ChangeOp::kDeleted, "Product")).ok());
  EXPECT_EQ(DetectOn("http://1",
                     "<c><Product id=\"1\"/><Product id=\"2\"/></c>",
                     "<c><Product id=\"2\"/></c>"),
            (std::vector<AtomicEvent>{1}));
}

TEST_F(XmlAlerterTest, DeletedWithContainsSeesOldContent) {
  ASSERT_TRUE(
      alerter_
          .Register(1, ElementCond(ChangeOp::kDeleted, "Product", "camera"))
          .ok());
  EXPECT_EQ(DetectOn("http://1",
                     "<c><Product><name>camera</name></Product><o/></c>",
                     "<c><o/></c>"),
            (std::vector<AtomicEvent>{1}));
}

TEST_F(XmlAlerterTest, SelfContainsWholeDocument) {
  Condition c;
  c.kind = ConditionKind::kSelfContains;
  c.str_value = "xyleme";
  ASSERT_TRUE(alerter_.Register(9, c).ok());
  EXPECT_EQ(DetectOn("http://1", "<d><deep><er>about XYLEME</er></deep></d>"),
            (std::vector<AtomicEvent>{9}));
  EXPECT_TRUE(DetectOn("http://2", "<d>nothing</d>").empty());
}

TEST_F(XmlAlerterTest, UnregisterStopsDetection) {
  Condition c = ElementCond(std::nullopt, "Product", "camera");
  ASSERT_TRUE(alerter_.Register(1, c).ok());
  ASSERT_TRUE(alerter_.Unregister(1, c).ok());
  EXPECT_TRUE(DetectOn("http://1", "<c><Product>camera</Product></c>").empty());
  EXPECT_EQ(alerter_.condition_count(), 0u);
}

// A word's `self contains` code and its element `contains` conditions share
// one word-table entry; unregistering one kind must leave the other firing.
TEST_F(XmlAlerterTest, UnregisteringSelfContainsKeepsElementContains) {
  Condition self;
  self.kind = ConditionKind::kSelfContains;
  self.str_value = "Camera";
  Condition product = ElementCond(std::nullopt, "Product", "camera");
  ASSERT_TRUE(alerter_.Register(1, self).ok());
  ASSERT_TRUE(alerter_.Register(2, product).ok());
  const std::string doc = "<c><Product>a CAMERA</Product></c>";
  EXPECT_EQ(DetectOn("http://1", doc), (std::vector<AtomicEvent>{1, 2}));
  ASSERT_TRUE(alerter_.Unregister(1, self).ok());
  EXPECT_EQ(DetectOn("http://2", doc), (std::vector<AtomicEvent>{2}));
}

TEST_F(XmlAlerterTest, UnregisteringElementContainsKeepsSelfContains) {
  Condition self;
  self.kind = ConditionKind::kSelfContains;
  self.str_value = "camera";
  Condition product = ElementCond(std::nullopt, "Product", "Camera", true);
  ASSERT_TRUE(alerter_.Register(1, self).ok());
  ASSERT_TRUE(alerter_.Register(2, product).ok());
  const std::string doc = "<c><Product>camera</Product></c>";
  EXPECT_EQ(DetectOn("http://1", doc), (std::vector<AtomicEvent>{1, 2}));
  ASSERT_TRUE(alerter_.Unregister(2, product).ok());
  EXPECT_EQ(DetectOn("http://2", doc), (std::vector<AtomicEvent>{1}));
  EXPECT_EQ(alerter_.condition_count(), 1u);
}

TEST_F(XmlAlerterTest, RejectsNonXmlConditions) {
  Condition c;
  c.kind = ConditionKind::kUrlEquals;
  EXPECT_TRUE(alerter_.Register(1, c).IsInvalidArgument());
  Condition no_tag;
  no_tag.kind = ConditionKind::kElementChange;
  EXPECT_TRUE(alerter_.Register(2, no_tag).IsInvalidArgument());
}

// ------------------------------------------------------------- HtmlAlerter --

TEST(HtmlAlerterTest, ExtractTextStripsMarkup) {
  std::string text = HtmlAlerter::ExtractText(
      "<html><head><script>var x = 'hidden';</script></head>"
      "<body><h1>Title</h1><p>body &amp; words</p>"
      "<style>p { color: red; }</style></body></html>");
  EXPECT_EQ(text.find("hidden"), std::string::npos);
  EXPECT_EQ(text.find("color"), std::string::npos);
  EXPECT_NE(text.find("Title"), std::string::npos);
  EXPECT_NE(text.find("body & words"), std::string::npos);
}

TEST(HtmlAlerterTest, DetectsKeywords) {
  HtmlAlerter alerter;
  Condition c;
  c.kind = ConditionKind::kSelfContains;
  c.str_value = "Xyleme";
  ASSERT_TRUE(alerter.Register(4, c).ok());
  std::vector<AtomicEvent> out;
  alerter.Detect("<html><body>all about xyleme systems</body></html>", &out);
  EXPECT_EQ(out, (std::vector<AtomicEvent>{4}));
  out.clear();
  alerter.Detect("<html><body>nothing here</body></html>", &out);
  EXPECT_TRUE(out.empty());
  // Markup attributes must not produce keyword hits.
  out.clear();
  alerter.Detect("<html><body class=\"xyleme\">plain</body></html>", &out);
  EXPECT_TRUE(out.empty());
}

TEST(HtmlAlerterTest, RejectsOtherConditions) {
  HtmlAlerter alerter;
  Condition c;
  c.kind = ConditionKind::kElementChange;
  c.tag = "p";
  EXPECT_TRUE(alerter.Register(1, c).IsInvalidArgument());
}

// ---------------------------------------------------------------- Pipeline --

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : pipeline_(&url_alerter_, &xml_alerter_, &html_alerter_) {}

  warehouse::Warehouse wh_;
  UrlAlerter url_alerter_;
  XmlAlerter xml_alerter_;
  HtmlAlerter html_alerter_;
  AlertPipeline pipeline_;
};

TEST_F(PipelineTest, WeakOnlyAlertsSuppressed) {
  Condition weak;
  weak.kind = ConditionKind::kDocStatus;
  weak.status = DocStatus::kNew;
  ASSERT_TRUE(url_alerter_.Register(1, weak).ok());
  pipeline_.MarkWeak(1);

  auto ingest = wh_.Ingest({"http://x", "<a/>"}, 1);
  EXPECT_FALSE(pipeline_.BuildAlert(ingest, "<a/>").has_value());
}

TEST_F(PipelineTest, WeakPlusStrongPasses) {
  Condition weak;
  weak.kind = ConditionKind::kDocStatus;
  weak.status = DocStatus::kNew;
  ASSERT_TRUE(url_alerter_.Register(1, weak).ok());
  pipeline_.MarkWeak(1);
  Condition strong;
  strong.kind = ConditionKind::kUrlExtends;
  strong.str_value = "http://x";
  ASSERT_TRUE(url_alerter_.Register(2, strong).ok());

  auto ingest = wh_.Ingest({"http://x/page", "<a/>"}, 1);
  auto alert = pipeline_.BuildAlert(ingest, "<a/>");
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->events, (mqp::EventSet{1, 2}));
  EXPECT_EQ(alert->url, "http://x/page");
  EXPECT_NE(alert->info_xml.find("status=\"new\""), std::string::npos);
}

TEST_F(PipelineTest, EventsSortedAndDeduplicated) {
  Condition strong;
  strong.kind = ConditionKind::kUrlExtends;
  strong.str_value = "http://x";
  ASSERT_TRUE(url_alerter_.Register(9, strong).ok());
  Condition elem;
  elem.kind = ConditionKind::kElementChange;
  elem.tag = "p";
  elem.word = "w";
  ASSERT_TRUE(xml_alerter_.Register(3, elem).ok());

  // Two <p>w</p> elements raise code 3 twice; the alert holds it once.
  auto ingest = wh_.Ingest({"http://x/d", "<d><p>w</p><p>w</p></d>"}, 1);
  auto alert = pipeline_.BuildAlert(ingest, "");
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->events, (mqp::EventSet{3, 9}));
}

TEST_F(PipelineTest, HtmlPagesUseHtmlAlerter) {
  Condition kw;
  kw.kind = ConditionKind::kSelfContains;
  kw.str_value = "xyleme";
  ASSERT_TRUE(html_alerter_.Register(7, kw).ok());

  std::string body = "<html><body>xyleme rocks</body>";  // Not valid XML.
  auto ingest = wh_.Ingest({"http://h", body}, 1);
  ASSERT_FALSE(ingest.meta.is_xml);
  auto alert = pipeline_.BuildAlert(ingest, body);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->events, (mqp::EventSet{7}));
}

TEST_F(PipelineTest, NoConditionsNoAlert) {
  auto ingest = wh_.Ingest({"http://x", "<a/>"}, 1);
  EXPECT_FALSE(pipeline_.BuildAlert(ingest, "<a/>").has_value());
}

}  // namespace
}  // namespace xymon::alerters
