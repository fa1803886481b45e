#include "common/strings.h"

namespace wiclean {

std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t b = 0;
  while (b < text.size() && IsAsciiSpace(text[b])) ++b;
  size_t e = text.size();
  while (e > b && IsAsciiSpace(text[e - 1])) --e;
  return text.substr(b, e - b);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
    if (i == text.size()) {
      return Status::InvalidArgument("sign without digits: '" +
                                     std::string(text) + "'");
    }
  }
  uint64_t magnitude = 0;
  const uint64_t limit =
      negative ? 9223372036854775808ULL : 9223372036854775807ULL;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("non-digit in integer literal: '" +
                                     std::string(text) + "'");
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (magnitude > (limit - digit) / 10) {
      return Status::OutOfRange("integer overflow: '" + std::string(text) +
                                "'");
    }
    magnitude = magnitude * 10 + digit;
  }
  if (negative) return static_cast<int64_t>(~magnitude + 1);
  return static_cast<int64_t>(magnitude);
}

std::string ReplaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) break;
    out.append(text.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  out.append(text.substr(pos));
  return out;
}

}  // namespace wiclean
