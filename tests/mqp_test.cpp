#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "src/mqp/aes_matcher.h"
#include "src/mqp/brute_matcher.h"
#include "src/mqp/counting_matcher.h"
#include "src/mqp/map_aes_matcher.h"
#include "src/mqp/processor.h"
#include "src/mqp/workload.h"

namespace xymon::mqp {
namespace {

std::vector<ComplexEventId> MatchSorted(const Matcher& m, const EventSet& s) {
  std::vector<ComplexEventId> out;
  m.Match(s, &out);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Matcher> MakeMatcher(const std::string& name) {
  if (name == "aes") return std::make_unique<AesMatcher>();
  if (name == "brute") return std::make_unique<BruteForceMatcher>();
  if (name == "counting") return std::make_unique<CountingMatcher>();
  if (name == "aes-map") return std::make_unique<MapAesMatcher>();
  if (name == "aes-naive") {
    AesMatcher::Options options;
    options.adaptive_iteration = false;
    return std::make_unique<AesMatcher>(options);
  }
  ADD_FAILURE() << "unknown matcher " << name;
  return nullptr;
}

// Behavioural tests shared across all three matcher implementations.
class MatcherContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Matcher> matcher_ = MakeMatcher(GetParam());
};

TEST_P(MatcherContractTest, PaperFigure4Example) {
  // The complex events of Figure 4 (left column).
  struct {
    ComplexEventId id;
    EventSet events;
  } complex_events[] = {
      {0, {0}},           // c0: a0
      {10, {1, 3}},       // c10: a1 a3
      {201, {1, 3, 4}},   // c201: a1 a3 a4
      {3, {1, 3, 5}},     // c3: a1 a3 a5
      {43, {1, 5, 6}},    // c43: a1 a5 a6
      {25, {1, 5, 8}},    // c25: a1 a5 a8
      {9, {1, 7}},        // c9: a1 a7
      {527, {2}},         // c527: a2
      {15, {3}},          // c15: a3
      {4, {5}},           // c4: a5
      {7, {5, 6}},        // c7: a5 a6
      {11, {5, 7}},       // c11: a5 a7
      {50, {5, 8}},       // c50: a5 a8
      {60, {8, 9}},       // c60: a8 a9
      {13, {8, 12}},      // c13: a8 a12
      {31, {99, 101}},    // c31: a99 a101
  };
  for (const auto& ce : complex_events) {
    ASSERT_TRUE(matcher_->Insert(ce.id, ce.events).ok());
  }

  // Paper walk-through 1: S = {a1, a3, a5} detects c10, c3, c15, c4.
  EXPECT_EQ(MatchSorted(*matcher_, {1, 3, 5}),
            (std::vector<ComplexEventId>{3, 4, 10, 15}));

  // Paper walk-through 2: S = {a1, a4, a8} detects c15? No — it detects
  // nothing but the prefix steps; per the paper: a1 alone no, a1a4 no...
  // S = {1, 4, 8}: subsets registered: none complete except... c15 is {3}
  // (not contained), so no match except none.
  EXPECT_TRUE(MatchSorted(*matcher_, {1, 4, 8}).empty());

  // Singletons.
  EXPECT_EQ(MatchSorted(*matcher_, {2}), (std::vector<ComplexEventId>{527}));
  EXPECT_EQ(MatchSorted(*matcher_, {0}), (std::vector<ComplexEventId>{0}));

  // Large superset catches everything consistent.
  EXPECT_EQ(MatchSorted(*matcher_, {1, 3, 4, 5, 6, 7, 8, 9}),
            (std::vector<ComplexEventId>{3, 4, 7, 9, 10, 11, 15, 25, 43, 50,
                                         60, 201}));
}

TEST_P(MatcherContractTest, EmptyDocumentMatchesNothing) {
  ASSERT_TRUE(matcher_->Insert(1, {5}).ok());
  EXPECT_TRUE(MatchSorted(*matcher_, {}).empty());
}

TEST_P(MatcherContractTest, RejectsMalformedComplexEvents) {
  EXPECT_TRUE(matcher_->Insert(1, {}).IsInvalidArgument());
  EXPECT_TRUE(matcher_->Insert(1, {3, 3}).IsInvalidArgument());
  EXPECT_TRUE(matcher_->Insert(1, {5, 3}).IsInvalidArgument());
}

TEST_P(MatcherContractTest, RejectsDuplicateIds) {
  ASSERT_TRUE(matcher_->Insert(1, {1, 2}).ok());
  EXPECT_TRUE(matcher_->Insert(1, {3, 4}).IsAlreadyExists());
}

TEST_P(MatcherContractTest, DuplicateEventSetsBothReported) {
  // Two subscriptions can register the same conjunction.
  ASSERT_TRUE(matcher_->Insert(1, {2, 4}).ok());
  ASSERT_TRUE(matcher_->Insert(2, {2, 4}).ok());
  EXPECT_EQ(MatchSorted(*matcher_, {2, 4}),
            (std::vector<ComplexEventId>{1, 2}));
}

TEST_P(MatcherContractTest, EraseRemovesOnlyTarget) {
  ASSERT_TRUE(matcher_->Insert(1, {2, 4}).ok());
  ASSERT_TRUE(matcher_->Insert(2, {2, 4}).ok());
  ASSERT_TRUE(matcher_->Insert(3, {2}).ok());
  ASSERT_TRUE(matcher_->Erase(2).ok());
  EXPECT_EQ(MatchSorted(*matcher_, {2, 4}),
            (std::vector<ComplexEventId>{1, 3}));
  EXPECT_TRUE(matcher_->Erase(2).IsNotFound());
  EXPECT_EQ(matcher_->size(), 2u);
}

TEST_P(MatcherContractTest, PrefixIsNotContainment) {
  // {1,2,3} registered; document {1,2} must not fire it.
  ASSERT_TRUE(matcher_->Insert(1, {1, 2, 3}).ok());
  EXPECT_TRUE(MatchSorted(*matcher_, {1, 2}).empty());
  // Non-contiguous containment must fire: {0,1,5,2,9,3} sorted.
  EXPECT_EQ(MatchSorted(*matcher_, {0, 1, 2, 3, 5, 9}),
            (std::vector<ComplexEventId>{1}));
}

TEST_P(MatcherContractTest, SingleEventComplexEvents) {
  for (ComplexEventId id = 0; id < 50; ++id) {
    ASSERT_TRUE(matcher_->Insert(id, {id * 2}).ok());
  }
  EXPECT_EQ(MatchSorted(*matcher_, {0, 2, 4}),
            (std::vector<ComplexEventId>{0, 1, 2}));
  EXPECT_TRUE(MatchSorted(*matcher_, {1, 3, 5}).empty());
}

TEST_P(MatcherContractTest, InsertAfterMatchesIsVisible) {
  ASSERT_TRUE(matcher_->Insert(1, {1}).ok());
  EXPECT_EQ(MatchSorted(*matcher_, {1, 2}).size(), 1u);
  ASSERT_TRUE(matcher_->Insert(2, {2}).ok());
  EXPECT_EQ(MatchSorted(*matcher_, {1, 2}).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherContractTest,
                         ::testing::Values("aes", "brute", "counting", "aes-map",
                                           "aes-naive"));

// --------------------------------------------------- Equivalence property --

struct EquivalenceParams {
  uint64_t seed;
  uint32_t card_a;
  uint32_t card_c;
  uint32_t d;
  uint32_t s;
};

class MatcherEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(MatcherEquivalenceTest, AesAndCountingAgreeWithBruteForce) {
  const EquivalenceParams& p = GetParam();
  WorkloadParams wp;
  wp.card_a = p.card_a;
  wp.card_c = p.card_c;
  wp.d = p.d;
  wp.s = p.s;
  wp.seed = p.seed;
  WorkloadGenerator gen(wp);

  AesMatcher aes;
  BruteForceMatcher brute;
  CountingMatcher counting;
  MapAesMatcher map_aes;
  auto complex_events = gen.GenerateComplexEvents();
  for (ComplexEventId id = 0; id < complex_events.size(); ++id) {
    ASSERT_TRUE(aes.Insert(id, complex_events[id]).ok());
    ASSERT_TRUE(brute.Insert(id, complex_events[id]).ok());
    ASSERT_TRUE(counting.Insert(id, complex_events[id]).ok());
    ASSERT_TRUE(map_aes.Insert(id, complex_events[id]).ok());
  }

  for (const EventSet& doc : gen.GenerateDocuments(200)) {
    auto expected = MatchSorted(brute, doc);
    EXPECT_EQ(MatchSorted(aes, doc), expected);
    EXPECT_EQ(MatchSorted(counting, doc), expected);
    EXPECT_EQ(MatchSorted(map_aes, doc), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MatcherEquivalenceTest,
    ::testing::Values(
        // Dense: small universe, high k — many matches per document.
        EquivalenceParams{1, 50, 500, 3, 20},
        EquivalenceParams{2, 30, 300, 2, 15},
        // The paper's shape scaled down: k = D*C/A.
        EquivalenceParams{3, 1000, 2000, 4, 10},
        EquivalenceParams{4, 200, 1000, 5, 30},
        // Long documents, deep complex events.
        EquivalenceParams{5, 100, 400, 8, 60},
        // Sparse: rare matches.
        EquivalenceParams{6, 10000, 1000, 4, 10},
        // Singleton-heavy.
        EquivalenceParams{7, 40, 200, 1, 10}));

TEST(MatcherEquivalenceTest, DynamicChurnKeepsAgreement) {
  WorkloadParams wp;
  wp.card_a = 100;
  wp.card_c = 300;
  wp.d = 3;
  wp.s = 15;
  wp.seed = 99;
  WorkloadGenerator gen(wp);
  auto complex_events = gen.GenerateComplexEvents();

  AesMatcher aes;
  BruteForceMatcher brute;
  Rng rng(7);
  std::set<ComplexEventId> live;
  for (int round = 0; round < 50; ++round) {
    // Random churn: insert or erase a few complex events.
    for (int op = 0; op < 10; ++op) {
      ComplexEventId id =
          static_cast<ComplexEventId>(rng.Uniform(complex_events.size()));
      if (live.count(id) != 0) {
        ASSERT_TRUE(aes.Erase(id).ok());
        ASSERT_TRUE(brute.Erase(id).ok());
        live.erase(id);
      } else {
        ASSERT_TRUE(aes.Insert(id, complex_events[id]).ok());
        ASSERT_TRUE(brute.Insert(id, complex_events[id]).ok());
        live.insert(id);
      }
    }
    for (const EventSet& doc : gen.GenerateDocuments(20)) {
      ASSERT_EQ(MatchSorted(aes, doc), MatchSorted(brute, doc));
    }
  }
}

// ------------------------------------------------------------- AES extras --

TEST(AesMatcherTest, StatsAccumulate) {
  AesMatcher aes;
  ASSERT_TRUE(aes.Insert(1, {1, 2}).ok());
  std::vector<ComplexEventId> out;
  aes.Match({1, 2}, &out);
  aes.Match({3}, &out);
  EXPECT_EQ(aes.stats().documents, 2u);
  EXPECT_EQ(aes.stats().notifications, 1u);
  EXPECT_GT(aes.stats().lookups, 0u);
}

TEST(AesMatcherTest, StructureMemoryGrowsWithComplexEvents) {
  WorkloadParams wp;
  wp.card_a = 1000;
  wp.card_c = 2000;
  wp.d = 4;
  wp.seed = 5;
  WorkloadGenerator gen(wp);
  AesMatcher small_matcher, big_matcher;
  auto events = gen.GenerateComplexEvents();
  for (ComplexEventId id = 0; id < 100; ++id) {
    ASSERT_TRUE(small_matcher.Insert(id, events[id]).ok());
  }
  for (ComplexEventId id = 0; id < 2000; ++id) {
    ASSERT_TRUE(big_matcher.Insert(id, events[id]).ok());
  }
  EXPECT_GT(big_matcher.StructureBytes(), small_matcher.StructureBytes());
  EXPECT_GT(big_matcher.MemoryUsage(), big_matcher.StructureBytes());
}

TEST(AesMatcherTest, ManySharedPrefixes) {
  // Hundreds of complex events through the same first event — the "Amazon
  // URL" hotspot the paper calls out (high k on one atomic event).
  AesMatcher aes;
  for (ComplexEventId id = 0; id < 500; ++id) {
    ASSERT_TRUE(aes.Insert(id, {0, id + 1}).ok());
  }
  EXPECT_EQ(MatchSorted(aes, {0, 7}), (std::vector<ComplexEventId>{6}));
  auto all = MatchSorted(aes, [] {
    EventSet s;
    for (AtomicEvent a = 0; a <= 500; ++a) s.push_back(a);
    return s;
  }());
  EXPECT_EQ(all.size(), 500u);
}

TEST(AesMatcherTest, StructureStatsDescribeTheTree) {
  AesMatcher aes;
  ASSERT_TRUE(aes.Insert(1, {1, 2, 3}).ok());
  ASSERT_TRUE(aes.Insert(2, {1, 2, 9}).ok());
  ASSERT_TRUE(aes.Insert(3, {5}).ok());
  auto stats = aes.CollectStructureStats();
  EXPECT_EQ(stats.max_depth, 3u);
  ASSERT_EQ(stats.cells_per_level.size(), 3u);
  EXPECT_EQ(stats.cells_per_level[0], 2u);  // a1, a5
  EXPECT_EQ(stats.cells_per_level[1], 1u);  // a2 under a1
  EXPECT_EQ(stats.cells_per_level[2], 2u);  // a3, a9
  EXPECT_EQ(stats.marks_per_level[0], 1u);  // c3 at a5
  EXPECT_EQ(stats.marks_per_level[2], 2u);  // c1, c2
  // Substructures: {a1: 4 cells}, {a5: 1 cell}.
  EXPECT_EQ(stats.max_substructure_cells, 4u);
  EXPECT_DOUBLE_EQ(stats.avg_substructure_cells, 2.5);
}

// --------------------------------------------------------------- Workload --

TEST(WorkloadTest, SetsAreOrderedAndSized) {
  WorkloadParams wp;
  wp.card_a = 500;
  wp.card_c = 100;
  wp.d = 6;
  wp.s = 25;
  WorkloadGenerator gen(wp);
  for (const EventSet& ce : gen.GenerateComplexEvents()) {
    EXPECT_EQ(ce.size(), 6u);
    EXPECT_TRUE(IsOrderedSet(ce));
    for (AtomicEvent a : ce) EXPECT_LT(a, 500u);
  }
  for (const EventSet& doc : gen.GenerateDocuments(50)) {
    EXPECT_EQ(doc.size(), 25u);
    EXPECT_TRUE(IsOrderedSet(doc));
  }
}

TEST(WorkloadTest, DeterministicFromSeed) {
  WorkloadParams wp;
  wp.seed = 123;
  wp.card_c = 10;
  EXPECT_EQ(WorkloadGenerator(wp).GenerateComplexEvents(),
            WorkloadGenerator(wp).GenerateComplexEvents());
}

TEST(WorkloadTest, ExpectedKFormula) {
  WorkloadParams wp;
  wp.card_a = 100000;
  wp.card_c = 1000000;
  wp.d = 4;
  EXPECT_DOUBLE_EQ(wp.ExpectedK(), 40.0);
}

// -------------------------------------------------------------- Processor --

TEST(ProcessorTest, EmitsNotificationEnvelope) {
  MonitoringQueryProcessor mqp;
  ASSERT_TRUE(mqp.Register(7, {1, 2}).ok());
  AlertMessage alert;
  alert.docid = 55;
  alert.url = "http://x/";
  alert.events = {1, 2, 9};
  alert.info_xml = "<doc/>";
  std::vector<MqpNotification> out;
  mqp.Process(alert, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].complex_event, 7u);
  // The notification refers to its alert rather than copying it.
  EXPECT_EQ(out[0].alert, &alert);
}

TEST(PartitionedMatcherTest, MatchesAcrossPartitionsAndBalances) {
  SubscriptionPartitionedMatcher part(4);
  BruteForceMatcher oracle;
  WorkloadParams wp;
  wp.card_a = 200;
  wp.card_c = 400;
  wp.d = 3;
  wp.s = 20;
  wp.seed = 31;
  WorkloadGenerator gen(wp);
  auto events = gen.GenerateComplexEvents();
  for (ComplexEventId id = 0; id < events.size(); ++id) {
    ASSERT_TRUE(part.Insert(id, events[id]).ok());
    ASSERT_TRUE(oracle.Insert(id, events[id]).ok());
  }
  EXPECT_EQ(part.size(), 400u);
  // Per-partition memory is a fraction of the total.
  EXPECT_LT(part.MaxPartitionBytes(), part.MemoryUsage());
  for (const EventSet& doc : gen.GenerateDocuments(50)) {
    EXPECT_EQ(MatchSorted(part, doc), MatchSorted(oracle, doc));
  }
  ASSERT_TRUE(part.Erase(3).ok());
  EXPECT_TRUE(part.Erase(3).IsNotFound());
  EXPECT_EQ(part.size(), 399u);
}

}  // namespace
}  // namespace xymon::mqp
