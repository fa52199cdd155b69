// T-URL (§6.2): URL-pattern detection. The paper: "The dominating cost is
// the look-up in the million-records hash table. To obtain a linear lookup
// cost, we tried using a dictionary structure. This improved the speed by
// about 30 percent. But in terms of memory size, the overhead was too high."
//
// Reproduces the hash-vs-trie trade-off: lookups/second and structure bytes
// for both `URL extends` structures at increasing pattern counts.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/alerters/prefix_matcher.h"
#include "src/common/rng.h"

using xymon::Rng;
using xymon::alerters::HashPrefixMatcher;
using xymon::alerters::TriePrefixMatcher;
using xymon::bench::PrintHeader;
using xymon::bench::TimeMicros;

namespace {

std::vector<std::string> MakePrefixes(size_t count, Rng* rng) {
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string p = "http://site" + std::to_string(rng->Uniform(count / 4 + 1)) +
                    ".example.org/";
    size_t depth = 1 + rng->Uniform(3);
    for (size_t d = 0; d < depth; ++d) {
      p += "dir" + std::to_string(rng->Uniform(50)) + "/";
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<std::string> MakeUrls(const std::vector<std::string>& prefixes,
                                  size_t count, Rng* rng) {
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Half extend a registered prefix, half are misses.
    if (rng->Bernoulli(0.5)) {
      out.push_back(prefixes[rng->Uniform(prefixes.size())] + "page" +
                    std::to_string(rng->Uniform(1000)) + ".xml");
    } else {
      out.push_back("http://unknown" + std::to_string(rng->Uniform(100000)) +
                    ".example.net/idx.html");
    }
  }
  return out;
}

template <typename Matcher>
double LookupsPerSec(const Matcher& matcher,
                     const std::vector<std::string>& urls) {
  std::vector<xymon::mqp::AtomicEvent> sink;
  double micros = TimeMicros([&] {
    for (const std::string& url : urls) {
      sink.clear();
      matcher.Match(url, &sink);
    }
  });
  return urls.size() / micros * 1e6;
}

}  // namespace

int main() {
  PrintHeader(
      "T-URL: `URL extends` detection — hash table vs trie (dictionary)\n"
      "(paper: trie ~30% faster, memory overhead too high at 1e6 patterns)");

  printf("%10s %14s %14s %10s %12s %12s %9s\n", "patterns", "hash url/s",
         "trie url/s", "speedup", "hash MB", "trie MB", "mem ratio");
  for (size_t n : {10'000ul, 50'000ul, 200'000ul}) {
    Rng rng(5);
    auto prefixes = MakePrefixes(n, &rng);
    auto urls = MakeUrls(prefixes, 20'000, &rng);

    HashPrefixMatcher hash;
    TriePrefixMatcher trie;
    for (size_t i = 0; i < prefixes.size(); ++i) {
      hash.Add(prefixes[i], static_cast<xymon::mqp::AtomicEvent>(i));
      trie.Add(prefixes[i], static_cast<xymon::mqp::AtomicEvent>(i));
    }
    double hash_rate = LookupsPerSec(hash, urls);
    double trie_rate = LookupsPerSec(trie, urls);
    double hash_mb = hash.MemoryUsage() / 1048576.0;
    double trie_mb = trie.MemoryUsage() / 1048576.0;
    printf("%10zu %14.0f %14.0f %9.2fx %12.1f %12.1f %8.1fx\n", n, hash_rate,
           trie_rate, trie_rate / hash_rate, hash_mb, trie_mb,
           trie_mb / hash_mb);
  }
  printf(
      "\nexpected shape: trie faster per lookup (single pass vs one probe\n"
      "per prefix length) but an order of magnitude more memory — the\n"
      "paper shipped the hash structure for this reason.\n");
  return 0;
}
