#ifndef XYMON_XML_SERIALIZER_H_
#define XYMON_XML_SERIALIZER_H_

#include <string>

#include "src/xml/dom.h"

namespace xymon::xml {

struct SerializeOptions {
  /// Pretty-print with 2-space indentation (element-only content).
  bool indent = false;
  /// Emit the <?xml version="1.0"?> declaration and DOCTYPE (Document only).
  bool prolog = false;
  /// Indentation depth of the serialized node itself: with `indent`, a
  /// subtree serialized at depth d is byte-identical to its serialization
  /// as a depth-d child inside an element-only parent.
  int depth = 0;
};

/// Serializes a subtree. Text is escaped so that Parse(Serialize(t)) == t.
std::string Serialize(const Node& node, const SerializeOptions& opts = {});

/// Serializes a whole document.
std::string Serialize(const Document& doc, const SerializeOptions& opts = {});

/// Escapes &, <, > (and quotes when `in_attribute`).
std::string EscapeText(std::string_view text, bool in_attribute = false);

}  // namespace xymon::xml

#endif  // XYMON_XML_SERIALIZER_H_
