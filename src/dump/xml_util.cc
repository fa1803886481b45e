#include "dump/xml_util.h"

#include "common/strings.h"

namespace wiclean {

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string XmlUnescape(std::string_view text) {
  std::string out;
  XmlUnescapeTo(text, &out);
  return out;
}

void XmlUnescapeTo(std::string_view text, std::string* out) {
  out->clear();
  out->reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    // Bulk-append the run up to the next entity.
    size_t amp = text.find('&', i);
    if (amp == std::string_view::npos) amp = text.size();
    out->append(text.data() + i, amp - i);
    i = amp;
    if (i == text.size()) break;
    std::string_view rest = text.substr(i);
    if (StartsWith(rest, "&amp;")) {
      *out += '&';
      i += 5;
    } else if (StartsWith(rest, "&lt;")) {
      *out += '<';
      i += 4;
    } else if (StartsWith(rest, "&gt;")) {
      *out += '>';
      i += 4;
    } else if (StartsWith(rest, "&quot;")) {
      *out += '"';
      i += 6;
    } else {
      *out += text[i++];  // unknown entity: pass through
    }
  }
}

}  // namespace wiclean
