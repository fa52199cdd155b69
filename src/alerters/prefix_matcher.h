#ifndef XYMON_ALERTERS_PREFIX_MATCHER_H_
#define XYMON_ALERTERS_PREFIX_MATCHER_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/mqp/event.h"

namespace xymon::alerters {

// Detection of `URL extends string` patterns (paper §6.2): given a fetched
// URL, find the codes of every registered prefix it extends. The paper
// implemented a hash-table variant and tried a dictionary (trie) that was
// ~30% faster but too memory-hungry. The URL alerter holds the hash table
// the paper shipped; the trie keeps the same members, and bench_url_alerter
// reproduces the trade-off.

/// Hash-table variant: one probe per URL prefix length ("we look up each of
/// its prefixes"; the dominating cost is the look-up in the million-records
/// hash table).
class HashPrefixMatcher {
 public:
  void Add(std::string_view prefix, mqp::AtomicEvent code);
  void Remove(std::string_view prefix);
  /// Appends the codes of all prefixes of `url` (including `url` itself).
  void Match(std::string_view url, std::vector<mqp::AtomicEvent>* out) const;
  size_t MemoryUsage() const;

 private:
  std::unordered_map<std::string, mqp::AtomicEvent> prefixes_;
};

/// Byte-trie variant ("dictionary structure"): one walk down the trie per
/// URL, collecting marks along the way. Linear in |url| regardless of the
/// number of patterns, at a per-node memory overhead.
class TriePrefixMatcher {
 public:
  TriePrefixMatcher() : root_(std::make_unique<TrieNode>()) {}

  void Add(std::string_view prefix, mqp::AtomicEvent code);
  void Remove(std::string_view prefix);
  /// Appends the codes of all prefixes of `url` (including `url` itself).
  void Match(std::string_view url, std::vector<mqp::AtomicEvent>* out) const;
  size_t MemoryUsage() const;

 private:
  struct TrieNode {
    mqp::AtomicEvent code = mqp::kNoAtomicEvent;
    std::unordered_map<char, std::unique_ptr<TrieNode>> children;
  };

  std::unique_ptr<TrieNode> root_;
  size_t node_count_ = 1;
};

}  // namespace xymon::alerters

#endif  // XYMON_ALERTERS_PREFIX_MATCHER_H_
