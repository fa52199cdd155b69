#ifndef XYMON_XMLDIFF_LCS_H_
#define XYMON_XMLDIFF_LCS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace xymon::xmldiff {

/// A key that pairs with nothing, not even with itself (the diff gives it to
/// comments and processing instructions when it pairs up a gap).
inline constexpr uint32_t kNoPairKey = UINT32_MAX;

/// Longest common subsequence of two key sequences, as monotone index pairs
/// (i into `a`, j into `b`). Equal keys pair, except kNoPairKey. Keys are
/// small dense ids: a table with one slot per id up to the largest key of `b`
/// is built.
///
/// The pairs are exactly those of the textbook suffix DP
///   dp[i][j] = a[i] == b[j] ? dp[i+1][j+1] + 1
///                           : max(dp[i+1][j], dp[i][j+1])
/// walked from (0, 0): take an equal pair; otherwise advance i when
/// dp[i+1][j] >= dp[i][j+1], else advance j. A common prefix is taken first
/// (the walk takes equal pairs before it reads dp). The rest is computed
/// bit-parallel (Allison–Dix, Hyyrö): row i of dp is ⌈m/64⌉ words whose
/// zero bits count dp[i][·], so the walk reads every dp value back by
/// popcount. Memory is (n + distinct keys of b) · ⌈m/64⌉ words instead of
/// (n+1)(m+1) cells.
std::vector<std::pair<size_t, size_t>> Lcs(std::span<const uint32_t> a,
                                           std::span<const uint32_t> b);

}  // namespace xymon::xmldiff

#endif  // XYMON_XMLDIFF_LCS_H_
