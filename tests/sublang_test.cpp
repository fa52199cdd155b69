#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/sublang/cost_model.h"
#include "src/sublang/parser.h"
#include "src/sublang/template.h"
#include "src/sublang/validator.h"
#include "src/xml/serializer.h"

namespace xymon::sublang {
namespace {

using alerters::Comparator;
using alerters::Condition;
using alerters::ConditionKind;
using warehouse::DocStatus;
using xmldiff::ChangeOp;

SubscriptionAst MustParse(std::string_view text) {
  auto sub = ParseSubscription(text);
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
  return std::move(sub).value();
}

// The paper's running example (§2.2), verbatim modulo the omitted queries.
constexpr char kMyXyleme[] = R"(
subscription MyXyleme

monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/"
  and modified self

monitoring
select X
from self//Member X
where URL = "http://inria.fr/Xy/members.xml"
  and new X

continuous ReferenceXyleme
% a query that computes the sites that reference Xyleme
select site from references//site where site contains "xyleme"
try biweekly

refresh "http://inria.fr/Xy/members.xml" weekly

report
when notifications.count > 100
)";

TEST(SublangParserTest, PaperExampleParses) {
  SubscriptionAst sub = MustParse(kMyXyleme);
  EXPECT_EQ(sub.name, "MyXyleme");
  ASSERT_EQ(sub.monitoring.size(), 2u);
  ASSERT_EQ(sub.continuous.size(), 1u);
  ASSERT_EQ(sub.refresh.size(), 1u);
  ASSERT_TRUE(sub.report.has_value());

  // First monitoring query: template select, URL prefix + weak status.
  const MonitoringQueryAst& m1 = sub.monitoring[0];
  EXPECT_EQ(m1.name, "UpdatedPage");  // Named after the template root.
  EXPECT_EQ(m1.select.kind, SelectClause::Kind::kTemplate);
  ASSERT_EQ(m1.conditions().size(), 2u);
  EXPECT_EQ(m1.conditions()[0].kind, ConditionKind::kUrlExtends);
  EXPECT_EQ(m1.conditions()[0].str_value, "http://inria.fr/Xy/");
  EXPECT_EQ(m1.conditions()[1].kind, ConditionKind::kDocStatus);
  EXPECT_EQ(m1.conditions()[1].status, DocStatus::kUpdated);  // modified alias

  // Second: variable select bound by from, element-change on Member.
  const MonitoringQueryAst& m2 = sub.monitoring[1];
  EXPECT_EQ(m2.select.kind, SelectClause::Kind::kVariable);
  EXPECT_EQ(m2.select.variable, "X");
  ASSERT_TRUE(m2.from.has_value());
  EXPECT_EQ(m2.from->tag, "Member");
  EXPECT_TRUE(m2.from->descendant);
  ASSERT_EQ(m2.conditions().size(), 2u);
  EXPECT_EQ(m2.conditions()[0].kind, ConditionKind::kUrlEquals);
  EXPECT_EQ(m2.conditions()[1].kind, ConditionKind::kElementChange);
  EXPECT_EQ(m2.conditions()[1].tag, "Member");  // X resolved via from clause.
  EXPECT_EQ(m2.conditions()[1].change_op, ChangeOp::kNew);

  // Continuous: biweekly frequency.
  EXPECT_EQ(sub.continuous[0].name, "ReferenceXyleme");
  EXPECT_EQ(sub.continuous[0].frequency, Frequency::kBiweekly);
  EXPECT_FALSE(sub.continuous[0].delta);

  // Refresh.
  EXPECT_EQ(sub.refresh[0].url, "http://inria.fr/Xy/members.xml");
  EXPECT_EQ(sub.refresh[0].frequency, Frequency::kWeekly);

  // Report: count > 100.
  ASSERT_EQ(sub.report->when.atoms.size(), 1u);
  EXPECT_EQ(sub.report->when.atoms[0].kind,
            ReportCondition::Atom::Kind::kCount);
  EXPECT_EQ(sub.report->when.atoms[0].cmp, Comparator::kGt);
  EXPECT_EQ(sub.report->when.atoms[0].count, 100u);
}

TEST(SublangParserTest, AllUrlConditionKinds) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL = "http://a/" and filename = "index.html"
  and DTD = "http://a/d.dtd" and DTDID = 7 and DOCID = 12
  and domain = "biology"
  and LastAccessed >= "2001-05-21" and LastUpdate < 1000000
report when immediate
)");
  const auto& conds = sub.monitoring[0].conditions();
  ASSERT_EQ(conds.size(), 8u);
  EXPECT_EQ(conds[0].kind, ConditionKind::kUrlEquals);
  EXPECT_EQ(conds[1].kind, ConditionKind::kFilenameEquals);
  EXPECT_EQ(conds[2].kind, ConditionKind::kDtdUrlEquals);
  EXPECT_EQ(conds[3].kind, ConditionKind::kDtdIdEquals);
  EXPECT_EQ(conds[3].num_value, 7u);
  EXPECT_EQ(conds[4].kind, ConditionKind::kDocIdEquals);
  EXPECT_EQ(conds[5].kind, ConditionKind::kDomainEquals);
  EXPECT_EQ(conds[6].kind, ConditionKind::kLastAccessedCmp);
  EXPECT_EQ(conds[6].cmp, Comparator::kGe);
  // 2001-05-21 (the SIGMOD 2001 date) as a Unix timestamp.
  EXPECT_EQ(conds[6].date_value, 990403200);
  EXPECT_EQ(conds[7].kind, ConditionKind::kLastUpdateCmp);
  EXPECT_EQ(conds[7].cmp, Comparator::kLt);
  EXPECT_EQ(conds[7].date_value, 1000000);
}

TEST(SublangParserTest, ElementConditionsAllForms) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where new Product
  and updated Product contains "camera"
  and deleted Offer
  and Review strict contains "excellent"
  and self contains "xml"
report when immediate
)");
  const auto& conds = sub.monitoring[0].conditions();
  ASSERT_EQ(conds.size(), 5u);
  EXPECT_EQ(conds[0].change_op, ChangeOp::kNew);
  EXPECT_EQ(conds[0].tag, "Product");
  EXPECT_TRUE(conds[0].word.empty());
  EXPECT_EQ(conds[1].change_op, ChangeOp::kUpdated);
  EXPECT_EQ(conds[1].word, "camera");
  EXPECT_FALSE(conds[1].strict);
  EXPECT_EQ(conds[2].change_op, ChangeOp::kDeleted);
  EXPECT_FALSE(conds[3].change_op.has_value());
  EXPECT_TRUE(conds[3].strict);
  EXPECT_EQ(conds[3].word, "excellent");
  EXPECT_EQ(conds[4].kind, ConditionKind::kSelfContains);
  EXPECT_EQ(conds[4].str_value, "xml");
}

TEST(SublangParserTest, XylemeCompetitorsNotificationTrigger) {
  // The paper's second example (§5.2).
  SubscriptionAst sub = MustParse(R"(
subscription XylemeCompetitors
monitoring
select <ChangeInMyProducts/>
where URL = "www.xyleme.com/products.xml"
  and modified self
continuous MyCompetitors
select c from market//competitor c
when XylemeCompetitors.ChangeInMyProducts
report when immediate
)");
  ASSERT_EQ(sub.continuous.size(), 1u);
  EXPECT_FALSE(sub.continuous[0].frequency.has_value());
  EXPECT_EQ(sub.continuous[0].trigger_subscription, "XylemeCompetitors");
  EXPECT_EQ(sub.continuous[0].trigger_query, "ChangeInMyProducts");
}

TEST(SublangParserTest, ContinuousDelta) {
  SubscriptionAst sub = MustParse(R"(
subscription S
continuous delta AmsterdamPaintings
select p/title from culture/museum m, m/painting p
where m/address contains "Amsterdam"
when biweekly
report when weekly
)");
  ASSERT_EQ(sub.continuous.size(), 1u);
  EXPECT_TRUE(sub.continuous[0].delta);
  EXPECT_NE(sub.continuous[0].query_text.find("p/title"), std::string::npos);
  EXPECT_EQ(sub.continuous[0].query_text.find("when"), std::string::npos);
}

TEST(SublangParserTest, ReportClauseFull) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://site.org/"
report
select X from self//UpdatedPage X
when count >= 500 or count(UpdatedPage) = 10 or immediate or daily
atmost 500
atmost weekly
archive monthly
)");
  ASSERT_TRUE(sub.report.has_value());
  const ReportSpec& spec = *sub.report;
  EXPECT_NE(spec.query_text.find("UpdatedPage"), std::string::npos);
  ASSERT_EQ(spec.when.atoms.size(), 4u);
  EXPECT_EQ(spec.when.atoms[0].kind, ReportCondition::Atom::Kind::kCount);
  EXPECT_EQ(spec.when.atoms[1].kind, ReportCondition::Atom::Kind::kNamedCount);
  EXPECT_EQ(spec.when.atoms[1].query_name, "UpdatedPage");
  EXPECT_EQ(spec.when.atoms[2].kind, ReportCondition::Atom::Kind::kImmediate);
  EXPECT_EQ(spec.when.atoms[3].kind, ReportCondition::Atom::Kind::kPeriodic);
  EXPECT_EQ(spec.when.atoms[3].frequency, Frequency::kDaily);
  EXPECT_EQ(spec.atmost_count, 500u);
  EXPECT_FALSE(spec.publish_web);
  EXPECT_EQ(spec.atmost_rate, Frequency::kWeekly);
  EXPECT_EQ(spec.archive, Frequency::kMonthly);
}

TEST(SublangParserTest, PublishClause) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://site.org/"
report
when weekly
publish
archive monthly
)");
  ASSERT_TRUE(sub.report.has_value());
  EXPECT_TRUE(sub.report->publish_web);
  EXPECT_EQ(sub.report->archive, Frequency::kMonthly);
}

TEST(SublangParserTest, VirtualSubscription) {
  SubscriptionAst sub = MustParse(R"(
subscription MyVirtualXyleme
virtual MyXyleme.Member
)");
  ASSERT_EQ(sub.virtuals.size(), 1u);
  EXPECT_EQ(sub.virtuals[0].subscription, "MyXyleme");
  EXPECT_EQ(sub.virtuals[0].query, "Member");
}

TEST(SublangParserTest, CommentsIgnoredEverywhere) {
  SubscriptionAst sub = MustParse(
      "subscription S % trailing comment\n"
      "% full-line comment\n"
      "monitoring % another\n"
      "select default\n"
      "where URL extends \"http://a.org/\" % comment\n"
      "report when immediate\n");
  EXPECT_EQ(sub.monitoring.size(), 1u);
}

TEST(SublangParserTest, ErrorsAreReported) {
  EXPECT_FALSE(ParseSubscription("monitoring select x").ok());
  EXPECT_FALSE(ParseSubscription("subscription").ok());
  EXPECT_FALSE(
      ParseSubscription("subscription S monitoring where new self").ok());
  EXPECT_FALSE(ParseSubscription(
                   "subscription S monitoring select default").ok());
  EXPECT_FALSE(ParseSubscription("subscription S continuous Q when daily")
                   .ok());  // No query body.
  EXPECT_FALSE(ParseSubscription("subscription S report when").ok());
  EXPECT_FALSE(
      ParseSubscription("subscription S virtual MissingDot").ok());
  EXPECT_FALSE(ParseSubscription(
                   "subscription S monitoring select default "
                   "where URL extends \"unterminated").ok());
}

TEST(SublangParserTest, MonitoringQueriesGetDefaultNames) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://a.org/"
report when immediate
)");
  EXPECT_EQ(sub.monitoring[0].name, "m1");
}

TEST(SublangParserTest, DisjunctiveWhereClause) {
  // Disjunctions: the paper's conclusion lists them as future work; the
  // where clause is DNF with `and` binding tighter than `or`.
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://a.example.org/" and new Product
   or URL extends "http://b.example.org/" and deleted Product
   or self contains "xyleme"
report when immediate
)");
  const auto& disjuncts = sub.monitoring[0].disjuncts;
  ASSERT_EQ(disjuncts.size(), 3u);
  ASSERT_EQ(disjuncts[0].size(), 2u);
  EXPECT_EQ(disjuncts[0][0].kind, ConditionKind::kUrlExtends);
  EXPECT_EQ(disjuncts[0][1].change_op, ChangeOp::kNew);
  ASSERT_EQ(disjuncts[1].size(), 2u);
  EXPECT_EQ(disjuncts[1][1].change_op, ChangeOp::kDeleted);
  ASSERT_EQ(disjuncts[2].size(), 1u);
  EXPECT_EQ(disjuncts[2][0].kind, ConditionKind::kSelfContains);
}

TEST(ValidatorTest, EveryDisjunctNeedsAStrongCondition) {
  // A weak-only disjunct would fire on nearly every document.
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://a.example.org/" or modified self
report when immediate
)");
  EXPECT_TRUE(Validate(sub).IsInvalidArgument());
}

// -------------------------------------------------------------- CostModel --

TEST(CostModelTest, SelectiveConditionsAreCheap) {
  SubscriptionAst cheap = MustParse(R"(
subscription Cheap
monitoring
select default
where URL = "http://one.page.example.org/exact.xml" and new Product
report when immediate
)");
  SubscriptionAst broad = MustParse(R"(
subscription Broad
monitoring
select default
where domain = "biology" and self contains "dna"
report when immediate
)");
  EXPECT_LT(EstimateCost(cheap), EstimateCost(broad));
}

TEST(CostModelTest, ConjunctionChargedAtMostSelectiveCondition) {
  // Adding a selective condition to a broad one *reduces* the estimate:
  // the conjunction only fires when both hold.
  SubscriptionAst broad = MustParse(R"(
subscription B
monitoring
select default
where domain = "biology"
report when immediate
)");
  SubscriptionAst narrowed = MustParse(R"(
subscription N
monitoring
select default
where domain = "biology" and URL = "http://x.example.org/one.xml"
report when immediate
)");
  EXPECT_LT(EstimateCost(narrowed), EstimateCost(broad));
}

TEST(CostModelTest, FrequentContinuousQueriesCostMore) {
  SubscriptionAst hourly = MustParse(R"(
subscription H
continuous Q
select m from any/museum m
when hourly
report when immediate
)");
  SubscriptionAst monthly = MustParse(R"(
subscription M
continuous Q
select m from any/museum m
when monthly
report when immediate
)");
  EXPECT_GT(EstimateCost(hourly), 10 * EstimateCost(monthly));
}

TEST(CostModelTest, VirtualSubscriptionsNearlyFree) {
  SubscriptionAst virt = MustParse("subscription V\nvirtual Other.Q\n");
  EXPECT_LT(EstimateCost(virt), 1.0);
}

TEST(CostModelTest, ShortContainsWordsCostMore) {
  Condition short_word;
  short_word.kind = ConditionKind::kSelfContains;
  short_word.str_value = "eu";
  Condition long_word;
  long_word.kind = ConditionKind::kSelfContains;
  long_word.str_value = "photosynthesis";
  EXPECT_GT(ConditionCost(short_word), ConditionCost(long_word));
}

TEST(ValidatorTest, CostBudgetEnforcedUnlessPrivileged) {
  SubscriptionAst expensive = MustParse(R"(
subscription E
continuous Q
select m from any/museum m
when hourly
report when immediate
)");
  ValidatorOptions opts;
  opts.max_cost = 100;
  EXPECT_TRUE(Validate(expensive, opts).IsResourceExhausted());
  opts.privileged = true;
  EXPECT_TRUE(Validate(expensive, opts).ok());
  opts.privileged = false;
  opts.max_cost = 0;  // Disabled.
  EXPECT_TRUE(Validate(expensive, opts).ok());
}

TEST(SublangParserTest, FuzzedInputsNeverCrash) {
  // Byte-level mutations of a valid subscription plus random token soup:
  // the parser must return ok or a clean ParseError, never crash or hang.
  Rng rng(17);
  std::string base(kMyXyleme);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = base;
    size_t flips = 1 + rng.Uniform(6);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(128));
    }
    auto result = ParseSubscription(mutated);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  static const char* kTokens[] = {"subscription", "monitoring", "select",
                                  "where", "and", "or", "report", "when",
                                  "\"str\"", "42", "<x/>", "//", ".", "(",
                                  ")", "contains", "URL", "self", "new"};
  for (int round = 0; round < 300; ++round) {
    std::string soup;
    size_t tokens = rng.Uniform(30);
    for (size_t t = 0; t < tokens; ++t) {
      soup += kTokens[rng.Uniform(19)];
      soup += ' ';
    }
    (void)ParseSubscription(soup);
  }
}

// A subscription with the clauses kMyXyleme lacks: a disjunction with an
// element condition, a triggered continuous delta query, a virtual
// reference and a full report clause.
constexpr char kDealsWatch[] = R"(
subscription DealsWatch
monitoring Deals
select <Deal url=URL/>
where URL extends "http://shop.example/" and new Product contains "sale"
  or DTD = "http://shop.example/catalog.dtd" and price strict contains "off"
continuous delta Trend
select p/name from shop//Product p where p/price contains "9"
when DealsWatch.Deals
virtual MyXyleme.Member
report
select X from self//Deal X
when count(Deals) >= 5 or daily
atmost 100
archive weekly
)";

// Everything the parser decided about one input, as text: the error, or
// for an accepted input its name, each query's select kind, every
// disjunct's condition keys, the continuous queries, the refresh hints, the
// virtual references, the report spec and the validator's verdict.
std::string ParseOutcome(std::string_view input) {
  auto parsed = ParseSubscription(input);
  if (!parsed.ok()) return parsed.status().ToString();
  const SubscriptionAst& sub = *parsed;
  std::string out = "OK " + sub.name + "\n";
  for (const MonitoringQueryAst& m : sub.monitoring) {
    out += "M " + m.name + " " +
           std::to_string(static_cast<int>(m.select.kind)) + "\n";
    for (const auto& disjunct : m.disjuncts) {
      out += " |";
      for (const Condition& c : disjunct) out += " " + c.Key();
      out += "\n";
    }
  }
  for (const ContinuousQueryAst& c : sub.continuous) {
    out += "C " + c.name + (c.delta ? " delta " : " ") + c.query_text + " @" +
           (c.frequency ? FrequencyName(*c.frequency) : "-") + " " +
           c.trigger_subscription + "." + c.trigger_query + "\n";
  }
  for (const RefreshAst& r : sub.refresh) {
    out += "F " + r.url + " " + FrequencyName(r.frequency) + "\n";
  }
  for (const VirtualRef& v : sub.virtuals) {
    out += "U " + v.subscription + "." + v.query + "\n";
  }
  if (sub.report.has_value()) {
    const ReportSpec& r = *sub.report;
    out += "R " + r.query_text;
    for (const ReportCondition::Atom& a : r.when.atoms) {
      out += " [" + std::to_string(static_cast<int>(a.kind)) + " " +
             std::to_string(static_cast<int>(a.cmp)) + " " +
             std::to_string(a.count) + " " + a.query_name + " " +
             FrequencyName(a.frequency) + "]";
    }
    out += " atmost=" +
           (r.atmost_count ? std::to_string(*r.atmost_count) : "-") + "/" +
           (r.atmost_rate ? FrequencyName(*r.atmost_rate) : "-") +
           " archive=" + (r.archive ? FrequencyName(*r.archive) : "-") +
           (r.publish_web ? " publish" : "") + "\n";
  }
  out += "V " + Validate(sub).ToString();
  return out;
}

TEST(SublangParserTest, MutatedSubscriptionOutcomesArePinned) {
  // Seeded mutations of two subscriptions, each input with 1-3 edits: a bit
  // flip, a truncation, or an inserted punctuation character. Every outcome
  // feeds one pinned digest, so a parser change must accept, reject,
  // report and build the AST exactly as before.
  ASSERT_TRUE(Validate(MustParse(kMyXyleme)).ok());
  ASSERT_TRUE(Validate(MustParse(kDealsWatch)).ok());
  static constexpr std::string_view kInserted = "\"<>=.,()\n";
  Rng rng(20010524);
  uint64_t digest = kFnvOffset;
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string input = i % 2 == 0 ? kMyXyleme : kDealsWatch;
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
    const std::string outcome = ParseOutcome(input);
    if (outcome.starts_with("OK ")) ++accepted;
    digest = HashCombine(digest, Fnv1a(outcome));
  }
  EXPECT_EQ(accepted, 523);
  EXPECT_EQ(digest, 0xcd2b445545ee011bull);
}

// --------------------------------------------------------------- Template --

TEST(TemplateTest, NormalizeQuotesBareIdentifiers) {
  EXPECT_EQ(NormalizeXmlTemplate("<UpdatedPage url=URL/>"),
            "<UpdatedPage url=\"$URL$\"/>");
  EXPECT_EQ(NormalizeXmlTemplate("<P a=\"kept\" b=VAR c='kept2'/>"),
            "<P a=\"kept\" b=\"$VAR$\" c='kept2'/>");
}

TEST(TemplateTest, ExpandSubstitutesVariables) {
  auto node = ExpandTemplate("<UpdatedPage url=\"$URL$\" other=\"x\"/>",
                             {{"URL", "http://i/"}});
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(*(*node)->GetAttribute("url"), "http://i/");
  EXPECT_EQ(*(*node)->GetAttribute("other"), "x");
}

TEST(TemplateTest, UnknownVariableBecomesEmpty) {
  auto node = ExpandTemplate("<p a=\"$NOPE$\"/>", {});
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*(*node)->GetAttribute("a"), "");
}

TEST(TemplateTest, MalformedTemplateRejected) {
  EXPECT_FALSE(ExpandTemplate("<unclosed", {}).ok());
}

// -------------------------------------------------------------- Frequency --

TEST(FrequencyTest, PeriodsAndNames) {
  EXPECT_EQ(FrequencyPeriod(Frequency::kBiweekly), kWeek / 2);
  EXPECT_EQ(FrequencyPeriod(Frequency::kDaily), kDay);
  EXPECT_EQ(FrequencyFromName("monthly"), Frequency::kMonthly);
  EXPECT_EQ(FrequencyFromName("yearly"), std::nullopt);
  EXPECT_STREQ(FrequencyName(Frequency::kHourly), "hourly");
}

// -------------------------------------------------------------- Validator --

TEST(ValidatorTest, AcceptsPaperExample) {
  EXPECT_TRUE(Validate(MustParse(kMyXyleme)).ok());
}

TEST(ValidatorTest, RejectsWeakOnlyWhereClause) {
  // The paper's rule (§5.1): `where modified self` alone is disallowed.
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where modified self
report when immediate
)");
  Status st = Validate(sub);
  ASSERT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("weak"), std::string::npos);
}

TEST(ValidatorTest, DeletedSelfAloneIsAllowed) {
  // `deleted self` is strong (deletions are rare).
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where deleted self
report when immediate
)");
  EXPECT_TRUE(Validate(sub).ok());
}

TEST(ValidatorTest, RejectsStopWords) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where Product contains "the"
report when immediate
)");
  EXPECT_TRUE(Validate(sub).IsInvalidArgument());
}

TEST(ValidatorTest, RejectsShortUrlPrefix) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://"
report when immediate
)");
  EXPECT_TRUE(Validate(sub).IsInvalidArgument());
}

TEST(ValidatorTest, RejectsEmptySubscription) {
  SubscriptionAst sub;
  sub.name = "Empty";
  EXPECT_TRUE(Validate(sub).IsInvalidArgument());
}

TEST(ValidatorTest, RejectsMissingReport) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where URL extends "http://a.org/"
)");
  EXPECT_TRUE(Validate(sub).IsInvalidArgument());
}

TEST(ValidatorTest, VirtualOnlyNeedsNoReport) {
  SubscriptionAst sub = MustParse(R"(
subscription V
virtual Other.Query
)");
  EXPECT_TRUE(Validate(sub).ok());
}

TEST(ValidatorTest, RejectsUnboundSelectVariable) {
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select Y
from self//Member X
where URL extends "http://a.org/" and new X
report when immediate
)");
  EXPECT_TRUE(Validate(sub).IsInvalidArgument());
}

TEST(ValidatorTest, CustomOptionsApply) {
  ValidatorOptions opts;
  opts.stop_words = {"camera"};
  SubscriptionAst sub = MustParse(R"(
subscription S
monitoring
select default
where Product contains "camera"
report when immediate
)");
  EXPECT_TRUE(Validate(sub, opts).IsInvalidArgument());
  EXPECT_TRUE(Validate(sub).ok());  // Default stop words allow "camera".
}

}  // namespace
}  // namespace xymon::sublang
