#include "src/xml/serializer.h"

namespace xymon::xml {
namespace {

void SerializeNode(const Node& node, const SerializeOptions& opts, int depth,
                   std::string* out) {
  auto pad = [&](int d) {
    if (opts.indent) out->append(static_cast<size_t>(d) * 2, ' ');
  };
  switch (node.type()) {
    case NodeType::kText:
      *out += EscapeText(node.text());
      return;
    case NodeType::kComment:
      pad(depth);
      *out += "<!--";
      *out += node.text();
      *out += "-->";
      if (opts.indent) *out += '\n';
      return;
    case NodeType::kProcessingInstruction:
      pad(depth);
      *out += "<?";
      *out += node.name();
      if (!node.text().empty()) {
        *out += ' ';
        *out += node.text();
      }
      *out += "?>";
      if (opts.indent) *out += '\n';
      return;
    case NodeType::kElement:
      break;
  }

  pad(depth);
  *out += '<';
  *out += node.name();
  for (const auto& [k, v] : node.attributes()) {
    *out += ' ';
    *out += k;
    *out += "=\"";
    *out += EscapeText(v, /*in_attribute=*/true);
    *out += '"';
  }
  if (node.children().empty()) {
    *out += "/>";
    if (opts.indent) *out += '\n';
    return;
  }
  *out += '>';

  bool element_only = true;
  for (const auto& c : node.children()) {
    if (c->is_text()) {
      element_only = false;
      break;
    }
  }
  if (opts.indent && element_only) *out += '\n';
  for (const auto& c : node.children()) {
    SerializeOptions child_opts = opts;
    if (!element_only) child_opts.indent = false;
    SerializeNode(*c, child_opts, depth + 1, out);
  }
  if (opts.indent && element_only) pad(depth);
  *out += "</";
  *out += node.name();
  *out += '>';
  if (opts.indent) *out += '\n';
}

}  // namespace

std::string EscapeText(std::string_view text, bool in_attribute) {
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
        if (in_attribute) {
          out += "&quot;";
        } else {
          out += c;
        }
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string Serialize(const Node& node, const SerializeOptions& opts) {
  std::string out;
  SerializeNode(node, opts, opts.depth, &out);
  return out;
}

std::string Serialize(const Document& doc, const SerializeOptions& opts) {
  std::string out;
  if (opts.prolog) {
    out += "<?xml version=\"1.0\"?>\n";
    if (!doc.doctype_name.empty()) {
      out += "<!DOCTYPE " + doc.doctype_name;
      if (!doc.dtd_url.empty()) out += " SYSTEM \"" + doc.dtd_url + "\"";
      out += ">\n";
    }
  }
  if (doc.root) SerializeNode(*doc.root, opts, opts.depth, &out);
  return out;
}

}  // namespace xymon::xml
