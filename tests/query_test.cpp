#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/query/delta_tracker.h"
#include "src/query/engine.h"
#include "src/query/query.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace xymon::query {
namespace {

std::unique_ptr<xml::Node> Frag(std::string_view text) {
  auto r = xml::ParseFragment(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

Query MustParseQuery(std::string name, std::string_view text) {
  auto q = ParseQuery(std::move(name), text);
  EXPECT_TRUE(q.ok()) << q.status().ToString() << " for: " << text;
  return std::move(q).value();
}

// ---------------------------------------------------------------- Parsing --

TEST(QueryParseTest, PaperAmsterdamQuery) {
  Query q = MustParseQuery("AmsterdamPaintings",
                           "select p/title "
                           "from culture/museum m, m/painting p "
                           "where m/address contains \"Amsterdam\"");
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(q.select[0].var, "p");
  ASSERT_EQ(q.select[0].path.steps.size(), 1u);
  EXPECT_EQ(q.select[0].path.steps[0].tag, "title");

  ASSERT_EQ(q.from.size(), 2u);
  EXPECT_EQ(q.from[0].var, "m");
  EXPECT_EQ(q.from[0].domain, "culture");
  EXPECT_TRUE(q.from[0].path.steps[0].descendant);
  EXPECT_EQ(q.from[1].var, "p");
  EXPECT_EQ(q.from[1].source_var, "m");

  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].var, "m");
  EXPECT_EQ(q.where[0].kind, Predicate::Kind::kContains);
  EXPECT_EQ(q.where[0].value, "Amsterdam");
}

TEST(QueryParseTest, SelfBindingAndDescendant) {
  Query q = MustParseQuery("Q", "select X from self//Member X");
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_TRUE(q.from[0].from_self);
  EXPECT_TRUE(q.from[0].path.steps[0].descendant);
}

TEST(QueryParseTest, EqualsPredicateAndConjunction) {
  Query q = MustParseQuery(
      "Q",
      "select m from any/museum m "
      "where m/city = \"Paris\" and m/name contains \"art\"");
  ASSERT_EQ(q.where.size(), 2u);
  EXPECT_EQ(q.where[0].kind, Predicate::Kind::kEquals);
  EXPECT_EQ(q.where[1].kind, Predicate::Kind::kContains);
  EXPECT_EQ(q.from[0].domain, "");  // `any` = all documents.
}

TEST(QueryParseTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("Q", "from x y").ok());
  EXPECT_FALSE(ParseQuery("Q", "select").ok());
  EXPECT_FALSE(ParseQuery("Q", "select a where b ~ c").ok());
  EXPECT_FALSE(ParseQuery("Q", "select a from d/x m trailing junk !").ok());
  EXPECT_FALSE(ParseQuery("Q", "select a where x contains \"unterminated").ok());
}

// ------------------------------------------------------------- Evaluation --

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    classifier_.AddRule({"culture", "", "museums", ""});
    warehouse_ = std::make_unique<warehouse::Warehouse>(&classifier_);
    warehouse_->Ingest(
        {"http://art/ams.xml",
         "<museums>"
         "<museum><name>Rijks</name><address>Amsterdam</address>"
         "<painting><title>NightWatch</title></painting>"
         "<painting><title>Milkmaid</title></painting></museum>"
         "<museum><name>Louvre</name><address>Paris</address>"
         "<painting><title>MonaLisa</title></painting></museum>"
         "</museums>"},
        1);
    engine_ = std::make_unique<QueryEngine>(warehouse_.get());
  }

  warehouse::DomainClassifier classifier_;
  std::unique_ptr<warehouse::Warehouse> warehouse_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, JoinWithContainsFilter) {
  Query q = MustParseQuery("AmsterdamPaintings",
                           "select p/title "
                           "from culture/museum m, m/painting p "
                           "where m/address contains \"amsterdam\"");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->name(), "AmsterdamPaintings");
  ASSERT_EQ((*result)->child_count(), 2u);
  EXPECT_EQ((*result)->child(0)->TextContent(), "NightWatch");
  EXPECT_EQ((*result)->child(1)->TextContent(), "Milkmaid");
}

/// Counts DocumentsInDomain calls per domain over another source.
class CountingSource : public warehouse::DocumentSource {
 public:
  explicit CountingSource(const warehouse::DocumentSource* inner)
      : inner_(inner) {}

  std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>
  DocumentsInDomain(std::string_view domain) const override {
    ++calls[std::string(domain)];
    return inner_->DocumentsInDomain(domain);
  }

  mutable std::map<std::string, int> calls;

 private:
  const warehouse::DocumentSource* inner_;
};

TEST_F(QueryEngineTest, FetchesEachDistinctDomainOncePerEvaluation) {
  // 2 museums x 3 paintings x 2 museums: fetching a domain binding per
  // outer tuple would ask for `culture` 3 times and for `any` 6 times.
  CountingSource source(warehouse_.get());
  QueryEngine engine(&source);
  Query q = MustParseQuery("Triples",
                           "select m/name from culture/museum m, "
                           "culture//painting p, any/museum o");
  auto result = engine.Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->child_count(), 12u);
  EXPECT_EQ((*result)->child(0)->TextContent(), "Rijks");
  EXPECT_EQ((*result)->child(6)->TextContent(), "Louvre");
  EXPECT_EQ(source.calls, (std::map<std::string, int>{{"", 1}, {"culture", 1}}));

  ASSERT_TRUE(engine.Evaluate(q).ok());
  EXPECT_EQ(source.calls, (std::map<std::string, int>{{"", 2}, {"culture", 2}}));
}

TEST_F(QueryEngineTest, EqualsFilter) {
  Query q = MustParseQuery("ParisMuseums",
                           "select m/name from culture/museum m "
                           "where m/address = \"Paris\"");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->child_count(), 1u);
  EXPECT_EQ((*result)->child(0)->TextContent(), "Louvre");
}

TEST_F(QueryEngineTest, EmptyResultIsEmptyElement) {
  Query q = MustParseQuery("None",
                           "select m from culture/museum m "
                           "where m/address contains \"Tokyo\"");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->child_count(), 0u);
}

TEST_F(QueryEngineTest, UnknownDomainYieldsNothing) {
  Query q = MustParseQuery("Q", "select m from sports/team m");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->child_count(), 0u);
}

TEST_F(QueryEngineTest, EvaluateOnBindsSelf) {
  auto doc = xml::ParseFragment(
      "<Members><Member><name>a</name></Member>"
      "<Member><name>b</name></Member></Members>");
  ASSERT_TRUE(doc.ok());
  Query q = MustParseQuery("Q", "select X from self//Member X");
  auto result = engine_->EvaluateOn(q, **doc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->child_count(), 2u);
}

TEST_F(QueryEngineTest, SelfQueryWithoutContextFails) {
  Query q = MustParseQuery("Q", "select X from self//Member X");
  EXPECT_TRUE(engine_->Evaluate(q).status().IsInvalidArgument());
}

TEST_F(QueryEngineTest, SelectUnboundVariableFails) {
  Query q = MustParseQuery("Q", "select z from culture/museum m");
  EXPECT_TRUE(engine_->Evaluate(q).status().IsInvalidArgument());
}

TEST_F(QueryEngineTest, WildcardSteps) {
  Query q = MustParseQuery("All", "select x from culture/museum m, m/* x");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Each museum has name + address + paintings: 2+2+1 children... count:
  // Rijks: name, address, 2 paintings = 4; Louvre: 3. Total 7.
  EXPECT_EQ((*result)->child_count(), 7u);
}

TEST_F(QueryEngineTest, AttributePredicates) {
  warehouse_->Ingest(
      {"http://art/tagged.xml",
       "<museums><museum id=\"m1\"><name>Tate</name>"
       "<painting year=\"1642\"><title>X</title></painting></museum>"
       "</museums>"},
      2);
  Query q = MustParseQuery(
      "ById", "select m/name from culture/museum m where m/@id = \"m1\"");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->child_count(), 1u);
  EXPECT_EQ((*result)->child(0)->TextContent(), "Tate");

  Query q2 = MustParseQuery(
      "ByYear",
      "select p/title from culture//painting p where p/@year contains \"16\"");
  auto result2 = engine_->Evaluate(q2);
  ASSERT_TRUE(result2.ok());
  ASSERT_EQ((*result2)->child_count(), 1u);
  EXPECT_EQ((*result2)->child(0)->TextContent(), "X");
}

TEST(QueryParseTest, AttributePathParsed) {
  Query q = MustParseQuery("Q",
                           "select m from any/museum m where m/@id = \"5\"");
  ASSERT_EQ(q.where.size(), 1u);
  EXPECT_EQ(q.where[0].attribute, "id");
  EXPECT_TRUE(q.where[0].path.steps.empty());
}

TEST_F(QueryEngineTest, SelectSelfClonesTheContextDocument) {
  auto doc = Frag("<Members><Member/></Members>");
  Query q = MustParseQuery("Wrap", "select self");
  auto result = engine_->EvaluateOn(q, *doc);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->child_count(), 1u);
  EXPECT_EQ((*result)->child(0)->name(), "Members");
}

TEST_F(QueryEngineTest, CountAggregate) {
  Query q = MustParseQuery("PaintingCount",
                           "select count(p) from culture//painting p");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->child_count(), 1u);
  const xml::Node* count = (*result)->child(0);
  EXPECT_EQ(count->name(), "count");
  EXPECT_EQ(count->TextContent(), "3");
}

TEST_F(QueryEngineTest, CountMixedWithProjection) {
  Query q = MustParseQuery(
      "Q", "select m/name, count(m/painting) from culture/museum m");
  auto result = engine_->Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Two museum names + one total count element (2+1 paintings).
  ASSERT_EQ((*result)->child_count(), 3u);
  EXPECT_EQ((*result)->child(2)->name(), "count");
  EXPECT_EQ((*result)->child(2)->TextContent(), "3");
}

TEST(DeltaTrackerTest, CountChangesFlowThroughDeltaMode) {
  DeltaTracker tracker;
  tracker.Update(Frag("<Q><count of=\"p\">3</count></Q>"));
  auto unchanged = tracker.Update(Frag("<Q><count of=\"p\">3</count></Q>"));
  EXPECT_EQ(unchanged, nullptr);
  auto changed = tracker.Update(Frag("<Q><count of=\"p\">4</count></Q>"));
  ASSERT_NE(changed, nullptr);
  EXPECT_EQ(changed->name(), "Q-delta");
}

TEST(EvalPathTest, ChildVsDescendantSteps) {
  auto doc = xml::ParseFragment("<a><b><c/><b><c/></b></b><c/></a>");
  ASSERT_TRUE(doc.ok());
  PathExpr child_path{{PathStep{"c", false}}};
  EXPECT_EQ(EvalPath(doc->get(), child_path).size(), 1u);
  PathExpr desc_path{{PathStep{"c", true}}};
  EXPECT_EQ(EvalPath(doc->get(), desc_path).size(), 3u);
  PathExpr nested{{PathStep{"b", false}, PathStep{"b", false},
                   PathStep{"c", false}}};
  EXPECT_EQ(EvalPath(doc->get(), nested).size(), 1u);
}

// ----------------------------------------------------------- DeltaTracker --

TEST(DeltaTrackerTest, FirstEvaluationReturnsFullResult) {
  DeltaTracker tracker;
  auto r1 = xml::ParseFragment("<Q><t>a</t></Q>");
  auto out = tracker.Update(std::move(*r1));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->name(), "Q");
  EXPECT_EQ(out->child_count(), 1u);
}

TEST(DeltaTrackerTest, UnchangedResultYieldsNull) {
  DeltaTracker tracker;
  tracker.Update(Frag("<Q><t>a</t></Q>"));
  auto out = tracker.Update(Frag("<Q><t>a</t></Q>"));
  EXPECT_EQ(out, nullptr);
}

TEST(DeltaTrackerTest, ChangeYieldsDeltaDocument) {
  DeltaTracker tracker;
  tracker.Update(Frag("<Q><t>a</t></Q>"));
  auto out = tracker.Update(
      Frag("<Q><t>a</t><t>b</t></Q>"));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->name(), "Q-delta");
  ASSERT_NE(out->FindChild("inserted"), nullptr);
}

TEST(DeltaTrackerTest, SequenceOfChangesEachDiffedAgainstLast) {
  DeltaTracker tracker;
  tracker.Update(Frag("<Q><t>a</t></Q>"));
  tracker.Update(Frag("<Q><t>b</t></Q>"));
  auto out = tracker.Update(Frag("<Q><t>b</t></Q>"));
  EXPECT_EQ(out, nullptr);  // Unchanged relative to the second version.
}

}  // namespace
}  // namespace xymon::query
