#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/system/pipeline.h"
#include "src/warehouse/domain_classifier.h"
#include "src/webstub/crawler.h"
#include "src/webstub/synthetic_web.h"

namespace perfbench {

/// Where the shards run: the topology a workload measures, or the one its
/// output check replays on.
struct Topology {
  size_t shards = 1;
  xymon::system::ShardMode mode = xymon::system::ShardMode::kThread;
};

std::string TopologyName(const Topology& topology);

/// Shares of the report clauses subscriptions ask for; the rest report
/// `when count >= count_threshold`.
struct ReportMix {
  double immediate = 0;
  /// `when daily` plus `atmost 5`: the cap drops notifications past it,
  /// which bounds the mail a run retains.
  double periodic = 0;
  int count_threshold = 20;
};

/// One workload: the web it crawls, the subscriptions it registers, what a
/// crawl round does, and how many rounds a run measures.
struct WorkloadSpec {
  std::string name;
  Topology topology;   // measured
  Topology reference;  // replayed by the output check
  /// All four stores on disk (subscriptions, warehouse, users, outbox).
  bool durable = false;

  // Web: `pages` pages dealt round-robin over `page_sites` sites.
  int pages = 0;
  int page_sites = 0;
  double catalog_share = 0;
  double news_share = 0;  // the rest are HTML pages
  uint32_t catalog_products = 0;

  // Subscriptions each watch one site drawn from `sub_sites`; sites at or
  // past `page_sites` have no pages, so those subscriptions never match.
  int subscriptions = 0;
  int sub_sites = 0;
  ReportMix report;
  /// Continuous queries over every catalog, evaluated weekly.
  int continuous_queries = 0;

  // One crawl round.
  xymon::Timestamp clock_step = xymon::kHour;
  int churn_pairs = 0;       // Unsubscribe/Subscribe pairs before the batch
  int checkpoint_every = 0;  // rounds between CheckpointStorage(); 0 = never

  // Run length is a round count, the same on every commit:
  // max(min_rounds, seconds * rounds_per_second).
  double rounds_per_second = 1;
  int min_rounds = 30;
  int setup_repeats = 3;
};

/// The workload called `name` (ingest, fanout, churn); `short_mode` shrinks
/// it to a few seconds for the self-tests. False for an unknown name.
bool MakeWorkload(const std::string& name, bool short_mode, WorkloadSpec* out);

int RoundCount(const WorkloadSpec& spec, double seconds);

struct SubscriptionInput {
  std::string name;
  std::string text;
  std::string email;
};

struct RoundInput {
  /// Churn: unsubscribe[i] is followed by subscribe[i].
  std::vector<std::string> unsubscribe;
  std::vector<SubscriptionInput> subscribe;
  bool checkpoint = false;
  std::vector<xymon::webstub::FetchedDoc> batch;
};

/// The input stream of one run. The same (spec, seed) yields byte-identical
/// subscriptions and batches, so the output check regenerates them for its
/// replay instead of holding a whole run in memory.
class WorkloadInputs {
 public:
  WorkloadInputs(const WorkloadSpec& spec, uint64_t seed);

  /// Registered at set-up, in order.
  const std::vector<SubscriptionInput>& subscriptions() const {
    return subscriptions_;
  }
  /// Classifies catalogs into the domain the continuous queries range over.
  static xymon::warehouse::DomainClassifier::Rule DomainRule();

  /// Every page at its first version: the warm, all-new pass.
  std::vector<xymon::webstub::FetchedDoc> WarmBatch();
  /// Advances the web one step and returns the next round.
  RoundInput NextRound();

  /// Digest of every input generated so far.
  uint64_t digest() const { return digest_; }

 private:
  SubscriptionInput MakeSubscription();
  std::vector<xymon::webstub::FetchedDoc> FetchAll();
  void Mix(const std::string& bytes);

  const WorkloadSpec& spec_;
  xymon::webstub::SyntheticWeb web_;
  xymon::Rng rng_;
  std::vector<std::string> urls_;
  std::vector<SubscriptionInput> subscriptions_;
  /// Names churn may unsubscribe (monitoring subscriptions only).
  std::vector<std::string> churnable_;
  int next_subscription_ = 0;
  int round_ = 0;
  uint64_t digest_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
