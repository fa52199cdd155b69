#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>

#include "src/common/hash.h"

namespace perfbench {

using xymon::system::ShardMode;

namespace {

// Words the subscriptions watch for; all occur in SyntheticWeb's pages.
constexpr const char* kWords[] = {"camera",  "museum",  "database", "wireless",
                                  "painting", "notebook", "stereo",  "network",
                                  "science", "market",  "history",  "library"};
constexpr const char* kCategories[] = {"camera", "computer", "book", "garden"};

std::string SiteUrl(int site) {
  return "http://site" + std::to_string(site) + ".example.org/";
}

}  // namespace

std::string TopologyName(const Topology& topology) {
  const char* mode = topology.mode == ShardMode::kProcess ? "process"
                     : topology.shards == 1              ? "inline"
                                                         : "thread";
  return std::to_string(topology.shards) + "x" + mode;
}

bool MakeWorkload(const std::string& name, bool short_mode, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "ingest") {
    // Parse/diff/store/detect heavy: big catalogs, subscriptions spread so
    // thinly over a large site universe that few documents match.
    spec.topology = {1, ShardMode::kThread};
    spec.reference = {2, ShardMode::kThread};
    spec.pages = 400;
    spec.page_sites = 200;
    spec.catalog_share = 0.5;
    spec.news_share = 0.3;
    spec.catalog_products = 200;
    spec.subscriptions = 2000;
    spec.sub_sites = 4000;
    spec.report = {0.05, 0.3, 5};
    spec.rounds_per_second = 5;
    spec.setup_repeats = 7;  // a set-up is only ~0.2 s
  } else if (name == "fanout") {
    // Match/resolve/deliver heavy: every site is watched by ~500
    // subscriptions and the pages are small.
    spec.topology = {2, ShardMode::kThread};
    spec.reference = {1, ShardMode::kThread};
    spec.pages = 150;
    spec.page_sites = 100;
    spec.catalog_share = 0.67;
    spec.news_share = 0.33;
    spec.catalog_products = 15;
    spec.subscriptions = 50000;
    spec.sub_sites = 100;
    spec.report = {0.01, 0.79, 20};
    spec.rounds_per_second = 6.5;
  } else if (name == "churn") {
    // Writes beside reads: worker processes, durable stores, subscription
    // churn every round, checkpoints and weekly continuous queries over the
    // workers' remote document source.
    spec.topology = {2, ShardMode::kProcess};
    spec.reference = {1, ShardMode::kThread};
    spec.durable = true;
    spec.pages = 200;
    spec.page_sites = 100;
    spec.catalog_share = 0.5;
    spec.news_share = 0.5;
    spec.catalog_products = 20;
    spec.subscriptions = 10000;
    spec.sub_sites = 200;
    spec.report = {0.02, 0.4, 10};
    spec.continuous_queries = 4;
    spec.clock_step = xymon::kDay;
    spec.churn_pairs = 50;
    spec.checkpoint_every = 5;
    spec.rounds_per_second = 12;
  } else {
    return false;
  }
  if (short_mode) {
    spec.pages = std::max(8, spec.pages / 8);
    spec.page_sites = std::max(4, spec.page_sites / 8);
    spec.subscriptions = std::max(40, spec.subscriptions / 50);
    spec.sub_sites = std::max(4, spec.sub_sites / 8);
    spec.churn_pairs = std::min(spec.churn_pairs, 5);
    spec.min_rounds = 12;
    spec.rounds_per_second = 0;
    spec.setup_repeats = 1;
  }
  *out = std::move(spec);
  return true;
}

int RoundCount(const WorkloadSpec& spec, double seconds) {
  return std::max(spec.min_rounds,
                  static_cast<int>(std::lround(seconds * spec.rounds_per_second)));
}

WorkloadInputs::WorkloadInputs(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      web_(xymon::HashCombine(seed, 0x5eb)),
      rng_(xymon::HashCombine(seed, 0x5ab)),
      digest_(xymon::kFnvOffset) {
  // Pages and subscriptions are a function of the spec alone; the seed drives
  // how the pages evolve (and which subscriptions churn replaces). Seeds then
  // differ in content, not in how much work a round is.
  const int catalogs = static_cast<int>(std::lround(spec.pages * spec.catalog_share));
  const int news = static_cast<int>(std::lround(spec.pages * spec.news_share));
  constexpr double kChangeRate = 0.8;
  for (int i = 0; i < spec.pages; ++i) {
    std::string site = SiteUrl(i % spec.page_sites);
    xymon::Rng pick(xymon::HashCombine(0x9a9e, static_cast<uint64_t>(i)));
    std::string url;
    if (i < catalogs) {
      url = site + "catalog-" + std::to_string(i) + ".xml";
      web_.AddCatalogPage(url, site + "catalog.dtd", spec.catalog_products,
                          kChangeRate);
    } else if (i < catalogs + news) {
      url = site + "news-" + std::to_string(i) + ".xml";
      web_.AddNewsPage(url, {kWords[pick.Uniform(12)], kWords[pick.Uniform(12)]},
                       kChangeRate);
    } else {
      url = site + "page-" + std::to_string(i) + ".html";
      web_.AddHtmlPage(url, {kWords[pick.Uniform(12)]}, kChangeRate);
    }
    Mix(url);
    urls_.push_back(std::move(url));
  }
  for (int i = 0; i < spec.subscriptions; ++i) {
    subscriptions_.push_back(MakeSubscription());
    churnable_.push_back(subscriptions_.back().name);
  }
  for (int q = 0; q < spec.continuous_queries; ++q) {
    std::string name = "Weekly" + std::to_string(q);
    SubscriptionInput cq{
        name,
        "subscription " + name + "\ncontinuous Q" + std::to_string(q) +
            "\nselect p/name from shop//Product p\nwhere p/category contains \"" +
            kCategories[q % 4] + "\"\nwhen weekly\nreport when immediate\n",
        "analyst" + std::to_string(q) + "@example.org"};
    Mix(cq.text);
    subscriptions_.push_back(std::move(cq));
  }
}

xymon::warehouse::DomainClassifier::Rule WorkloadInputs::DomainRule() {
  return {"shop", "", "catalog", ""};
}

SubscriptionInput WorkloadInputs::MakeSubscription() {
  // Stratified: the four query kinds cycle, each group of four watches the
  // next site (strided so the initial subscriptions cover the whole site
  // universe), and the report clauses follow a low-discrepancy sequence.
  const int n = next_subscription_++;
  xymon::Rng pick(xymon::HashCombine(0x5ab5, static_cast<uint64_t>(n)));
  const int stride = std::max(1, spec_.sub_sites * 4 / std::max(1, spec_.subscriptions));
  const int site = (n / 4 * stride) % spec_.sub_sites;
  // `number` is an lvalue on purpose: GCC 12 gives a false -Wrestrict
  // warning on `"S" + std::to_string(n)`.
  const std::string number = std::to_string(n);
  const std::string name = "S" + number;
  std::string where = "where URL extends \"" + SiteUrl(site) + "\" and ";
  std::string query;
  switch (n % 4) {
    case 0:  // the inserted products themselves
      query = "select X\nfrom self//Product X\n" + where + "new X";
      break;
    case 1:
      query = "select default\n" + where + "updated Product contains \"" +
              kCategories[pick.Uniform(4)] + "\"";
      break;
    case 2:
      query = "select default\n" + where + "article contains \"" +
              kWords[pick.Uniform(12)] + "\"";
      break;
    default:
      query = "select <Hit url=URL status=STATUS/>\n" + where +
              "self contains \"" + kWords[pick.Uniform(12)] + "\"";
      break;
  }
  double r = std::fmod(n * 0.6180339887498949, 1.0);
  std::string report;
  if (r < spec_.report.immediate) {
    report = "report\nwhen immediate\n";
  } else if (r < spec_.report.immediate + spec_.report.periodic) {
    report = "report\nwhen daily\natmost 5\n";
  } else {
    report = "report\nwhen count >= " +
             std::to_string(spec_.report.count_threshold) + "\n";
  }
  SubscriptionInput sub;
  sub.name = name;
  sub.text = "subscription ";
  sub.text += name;
  sub.text += "\nmonitoring\n";
  sub.text += query;
  sub.text += "\n";
  sub.text += report;
  sub.email = "u" + number + "@example.org";
  Mix(sub.text);
  return sub;
}

std::vector<xymon::webstub::FetchedDoc> WorkloadInputs::FetchAll() {
  std::vector<xymon::webstub::FetchedDoc> batch;
  batch.reserve(urls_.size());
  for (const std::string& url : urls_) {
    xymon::webstub::FetchedDoc doc;
    doc.url = url;
    doc.body = web_.Fetch(url)->body;  // no fault plan: every fetch succeeds
    Mix(doc.body);
    batch.push_back(std::move(doc));
  }
  return batch;
}

std::vector<xymon::webstub::FetchedDoc> WorkloadInputs::WarmBatch() {
  return FetchAll();
}

RoundInput WorkloadInputs::NextRound() {
  RoundInput round;
  ++round_;
  for (int p = 0; p < spec_.churn_pairs && !churnable_.empty(); ++p) {
    size_t victim = rng_.Uniform(churnable_.size());
    round.unsubscribe.push_back(churnable_[victim]);
    Mix(churnable_[victim]);
    round.subscribe.push_back(MakeSubscription());
    churnable_[victim] = round.subscribe.back().name;
  }
  round.checkpoint =
      spec_.checkpoint_every > 0 && round_ % spec_.checkpoint_every == 0;
  web_.Step();
  round.batch = FetchAll();
  return round;
}

void WorkloadInputs::Mix(const std::string& bytes) {
  digest_ = xymon::HashCombine(digest_, xymon::Fnv1a(bytes));
}

}  // namespace perfbench
