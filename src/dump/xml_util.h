#ifndef WICLEAN_DUMP_XML_UTIL_H_
#define WICLEAN_DUMP_XML_UTIL_H_

#include <string>
#include <string_view>

namespace wiclean {

/// Escapes &, <, > and " for embedding in XML text/attributes.
std::string XmlEscape(std::string_view text);

/// Reverses XmlEscape (&amp; &lt; &gt; &quot;). Unknown entities are passed
/// through verbatim, as real-world dump tooling must tolerate them.
std::string XmlUnescape(std::string_view text);

/// XmlUnescape into *out (replacing its contents, reusing its capacity):
/// the dump reader unescapes element bodies straight out of its buffer.
void XmlUnescapeTo(std::string_view text, std::string* out);

}  // namespace wiclean

#endif  // WICLEAN_DUMP_XML_UTIL_H_
