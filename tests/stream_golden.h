#ifndef XYMON_TESTS_STREAM_GOLDEN_H_
#define XYMON_TESTS_STREAM_GOLDEN_H_

// A fixed subscription population and page history whose notification
// stream is pinned by digest (tests/system_test.cpp at 1 and 2 thread
// shards, tests/ipc_test.cpp on 2 workers). The population shares event
// sets the way real ones do: 300 subscriptions on 6 sites, 10 subscribers
// per event set, plus the cases whose delivery order is easy to get wrong:
//
//   * several payloads per document (`select X from self//Product X ...
//     new X`), template and default payloads;
//   * a disjunction, and two same-named queries in one subscription;
//   * a virtual subscription and a `count(Q)` report atom;
//   * immediate, daily and count reports;
//   * a continuous query that waits on another subscription's monitoring
//     query.
//
// Three rounds of fetches; between rounds 2 and 3, 20 subscriptions go and
// 20 new ones with the event sets of live ones come, so the newest
// subscriber of a shared set is not the last one registered at start.

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/system/monitor.h"

namespace xymon::testing {

// Numbers are lvalues before they meet a literal: GCC 12 gives a false
// -Wrestrict warning on "literal" + std::to_string(n).
inline std::string GoldenSite(int site) {
  const std::string number = std::to_string(site);
  return "http://g" + number + ".example/";
}

/// Monitoring query `kind` (0–4) on `site`, named Q<kind>.
inline std::string GoldenQuery(int kind, int site) {
  const std::string where =
      "where URL extends \"" + GoldenSite(site) + "\" and ";
  switch (kind) {
    case 0:
      return "monitoring Q0\nselect X from self//Product X\n" + where +
             "new X\n";
    case 1:
      return "monitoring Q1\nselect default\n" + where +
             "updated Product contains \"camera\"\n";
    case 2:
      return "monitoring Q2\nselect <Hit url=URL status=STATUS/>\n" + where +
             "self contains \"museum\"\n";
    case 3:
      return "monitoring Q3\nselect default\n" + where +
             "article contains \"stereo\"\n";
    default:
      return "monitoring Q4\nselect default\n" + where +
             "self contains \"stereo\" or URL extends \"" + GoldenSite(site) +
             "\" and new Product\n";
  }
}

inline std::string GoldenReport(int variant) {
  switch (variant % 3) {
    case 0:
      return "report when immediate\n";
    case 1:
      return "report when daily\n";
    default:
      return "report when count >= 3\n";
  }
}

/// Subscription i of the 300: site i % 6, query kind (i / 6) % 5, report
/// variant i / 30.
inline std::string GoldenSub(const std::string& name, int i) {
  return "subscription " + name + "\n" + GoldenQuery((i / 6) % 5, i % 6) +
         GoldenReport(i / 30);
}

inline std::string GoldenName(int i) {
  const std::string digits = std::to_string(i);
  const std::string zeros(3 - digits.size(), '0');
  return "S" + zeros + digits;
}

inline std::vector<std::string> GoldenSpecials() {
  return {
      "subscription Twin\n"
      "monitoring Hit\nselect <Hit url=URL/>\n"
      "where URL extends \"http://g0.example/\" and self contains \"museum\"\n"
      "monitoring Hit\nselect <Hit status=STATUS/>\n"
      "where URL extends \"http://g0.example/\" and article contains "
      "\"stereo\"\n"
      "report when immediate\n",
      "subscription Counter\n"
      "monitoring Q2\nselect default\n"
      "where URL extends \"http://g1.example/\" and self contains \"museum\"\n"
      "report when count(Q2) >= 2\n",
      "subscription Virtual\nvirtual S000.Q0\n",
      "subscription Watcher\n"
      "continuous Catalog\nselect p/name from shop//Product p\n"
      "when S001.Q0\n"
      "report when immediate\n",
  };
}

/// The pages of `site` at `round` (1-based): a catalog that gains a product
/// and reprices the others every round, a news page and an HTML page.
inline std::vector<webstub::FetchedDoc> GoldenPages(int site, int round) {
  const std::string base = GoldenSite(site);
  const std::string site_number = std::to_string(site);
  const std::string round_number = std::to_string(round);
  std::string catalog = "<catalog>";
  for (int k = 0; k <= round; ++k) {
    const std::string product = std::to_string(k);
    const std::string price = std::to_string(10 * k + round);
    catalog += "<Product><name>p" + site_number + "-" + product +
               "</name><category>" +
               ((k + site) % 2 == 0 ? "camera" : "garden") +
               "</category><price>" + price + "</price></Product>";
  }
  catalog += "</catalog>";
  std::string news = "<news><article>" +
                     std::string(round % 2 == 1 ? "stereo museum" : "museum") +
                     " day " + round_number + "</article><article>site " +
                     site_number + (round == 3 ? " stereo" : "") +
                     "</article></news>";
  std::string html = "<html><body><p>" +
                     std::string(round >= 2 ? "museum " : "") + "stereo " +
                     round_number + "</p></body></html>";
  return {{base + "catalog.xml", catalog},
          {base + "news.xml", news},
          {base + "page.html", html}};
}

/// Runs the population and history on a monitor built with `options` and
/// returns "mails=N received=M digest=D", D an FNV digest of every mail's
/// (to, subject, body, seq) in outbox order. Empty if a subscription fails.
inline std::string RunGoldenStream(
    const system::XylemeMonitor::Options& options) {
  SimClock clock(1000);
  system::XylemeMonitor monitor(&clock, options);
  monitor.AddDomainRule({"shop", "", "catalog", ""});
  for (int i = 0; i < 300; ++i) {
    const std::string number = std::to_string(i);
    if (!monitor.Subscribe(GoldenSub(GoldenName(i), i), "u" + number + "@x")
             .ok()) {
      return "";
    }
  }
  for (const std::string& text : GoldenSpecials()) {
    if (!monitor.Subscribe(text, "special@x").ok()) return "";
  }
  for (int round = 1; round <= 3; ++round) {
    if (round == 3) {
      for (int j = 0; j < 20; ++j) {
        const int gone = 7 + 15 * j;
        const std::string number = std::to_string(j);
        if (!monitor.Unsubscribe(GoldenName(gone)).ok()) return "";
        // The event set of live subscription gone + 1, under a new name.
        if (!monitor.Subscribe(GoldenSub("N" + number, gone + 1),
                               "n" + number + "@x")
                 .ok()) {
          return "";
        }
      }
    }
    std::vector<webstub::FetchedDoc> batch;
    for (int site = 0; site < 6; ++site) {
      for (webstub::FetchedDoc& doc : GoldenPages(site, round)) {
        batch.push_back(std::move(doc));
      }
    }
    monitor.ProcessFetchBatch(batch);
    clock.Advance(kDay);
    monitor.Tick();
  }
  uint64_t digest = kFnvOffset;
  for (const reporter::Email& email : monitor.outbox().sent()) {
    digest = HashCombine(digest, Fnv1a(email.to));
    digest = HashCombine(digest, Fnv1a(email.subject));
    digest = HashCombine(digest, Fnv1a(email.body));
    digest = HashCombine(digest, email.seq);
  }
  char hex[17];
  snprintf(hex, sizeof(hex), "%016llx",
           static_cast<unsigned long long>(digest));
  const std::string mails = std::to_string(monitor.outbox().sent().size());
  const std::string received =
      std::to_string(monitor.reporter().notifications_received());
  return "mails=" + mails + " received=" + received + " digest=" + hex;
}

}  // namespace xymon::testing

#endif  // XYMON_TESTS_STREAM_GOLDEN_H_
