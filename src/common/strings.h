#ifndef WICLEAN_COMMON_STRINGS_H_
#define WICLEAN_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace wiclean {

/// Splits `text` on every occurrence of `sep`. Adjacent separators yield empty
/// pieces; the result is never empty (splitting "" gives {""}).
std::vector<std::string> SplitString(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// The whitespace contract of every text scanner in the library: the six
/// bytes std::isspace accepts in the "C" locale — ' ', '\t', '\n', '\v',
/// '\f' and '\r' — tested inline, whatever locale the process runs in.
/// Every other byte, all bytes >= 0x80 included, is not whitespace.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Removes IsAsciiSpace bytes from both ends.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` begins with / ends with the given prefix/suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Parses a base-10 signed integer. The whole string must be consumed;
/// leading/trailing junk (including whitespace) is an error.
[[nodiscard]] Result<int64_t> ParseInt64(std::string_view text);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

}  // namespace wiclean

#endif  // WICLEAN_COMMON_STRINGS_H_
