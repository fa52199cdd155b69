#ifndef XYMON_COMMON_STRING_UTIL_H_
#define XYMON_COMMON_STRING_UTIL_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace xymon {

/// Returns true if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Returns true if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on any ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True for ASCII letters, digits, '_', '-', '.': the word characters the
/// alerters index. Inline: the XML alerter asks once per byte of text.
inline bool IsWordChar(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return isalnum(u) || c == '_' || c == '-' || c == '.';
}

/// Calls `fn` with every word of `text` (a maximal run of word characters)
/// as a view into `text`, not lower-cased.
template <typename Fn>
void ForEachWord(std::string_view text, Fn&& fn) {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && IsWordChar(text[i])) ++i;
    if (i > start) fn(text.substr(start, i - start));
  }
}

/// Tokenizes text into lowercase words (maximal runs of word characters).
/// This is the shared notion of "word" between the XML/HTML alerters and the
/// `contains` conditions of the subscription language.
std::vector<std::string> TokenizeWords(std::string_view text);

/// Last path segment of a URL ("http://a/b/index.html" -> "index.html").
/// The paper's `filename =` condition.
std::string_view UrlFilename(std::string_view url);

}  // namespace xymon

#endif  // XYMON_COMMON_STRING_UTIL_H_
