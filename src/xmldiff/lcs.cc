#include "src/xmldiff/lcs.h"

#include <algorithm>
#include <bit>

namespace xymon::xmldiff {
namespace {

constexpr size_t kWordBits = 64;

/// Zero bits among the low `k` bits of `row`.
size_t ZerosBelow(const uint64_t* row, size_t k) {
  size_t ones = 0;
  const size_t full = k / kWordBits;
  for (size_t w = 0; w < full; ++w) ones += std::popcount(row[w]);
  if (const size_t rest = k % kWordBits; rest != 0) {
    ones += std::popcount(row[full] & ((uint64_t{1} << rest) - 1));
  }
  return k - ones;
}

}  // namespace

std::vector<std::pair<size_t, size_t>> Lcs(std::span<const uint32_t> a,
                                           std::span<const uint32_t> b) {
  std::vector<std::pair<size_t, size_t>> pairs;
  size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix] &&
         a[prefix] != kNoPairKey) {
    pairs.emplace_back(prefix, prefix);
    ++prefix;
  }
  a = a.subspan(prefix);
  b = b.subspan(prefix);
  const size_t n = a.size();
  const size_t m = b.size();

  // Match masks over b reversed (bit c stands for b[m-1-c]), one per key
  // that occurs in b.
  uint32_t max_key = 0;
  bool pairable = false;
  for (uint32_t key : b) {
    if (key == kNoPairKey) continue;
    max_key = std::max(max_key, key);
    pairable = true;
  }
  if (n == 0 || !pairable) return pairs;
  const size_t words = (m + kWordBits - 1) / kWordBits;
  std::vector<uint32_t> mask_of(size_t{max_key} + 1, kNoPairKey);
  std::vector<uint64_t> masks;
  for (size_t c = 0; c < m; ++c) {
    const uint32_t key = b[m - 1 - c];
    if (key == kNoPairKey) continue;
    if (mask_of[key] == kNoPairKey) {
      mask_of[key] = static_cast<uint32_t>(masks.size() / words);
      masks.resize(masks.size() + words, 0);
    }
    masks[mask_of[key] * words + c / kWordBits] |= uint64_t{1}
                                                   << (c % kWordBits);
  }

  // rows[i] holds dp row i: its zero bits below m-j count dp[i][j]. Row n,
  // the empty suffix of a, is all ones. Each row is the next one under
  // Hyyrö's step V' = (V + (V & M)) | (V & ~M), M the mask of a[i]'s key;
  // bits above m collect carries but never reach a lower bit.
  std::vector<uint64_t> rows((n + 1) * words, ~uint64_t{0});
  for (size_t i = n; i-- > 0;) {
    const uint64_t* next = &rows[(i + 1) * words];
    uint64_t* row = &rows[i * words];
    const uint32_t key = a[i];
    if (key > max_key || mask_of[key] == kNoPairKey) {
      std::copy(next, next + words, row);
      continue;
    }
    const uint64_t* match = &masks[mask_of[key] * words];
    uint64_t carry = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t v = next[w];
      uint64_t sum = v + (v & match[w]);
      const uint64_t overflow = sum < v;
      sum += carry;
      carry = overflow | (sum < carry);
      row[w] = sum | (v & ~match[w]);
    }
  }

  size_t i = 0, j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j] && a[i] != kNoPairKey) {
      pairs.emplace_back(prefix + i, prefix + j);
      ++i;
      ++j;
    } else if (ZerosBelow(&rows[(i + 1) * words], m - j) >=
               ZerosBelow(&rows[i * words], m - j - 1)) {
      ++i;
    } else {
      ++j;
    }
  }
  return pairs;
}

}  // namespace xymon::xmldiff
