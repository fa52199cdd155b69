#include "src/reporter/payload.h"

#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace xymon::reporter {

std::unique_ptr<xml::Node> Payload::ReportChild() const {
  auto parsed = xml::ParseFragment(xml());
  if (parsed.ok()) return std::move(parsed).value();
  if (empty()) return nullptr;
  // Malformed payloads are preserved verbatim rather than lost.
  auto raw = xml::Node::Element("raw");
  raw->AddChild(xml::Node::Text(xml()));
  return raw;
}

const std::string& Payload::ReportRendering() const {
  if (rep_ == nullptr) return Empty();
  if (!rep_->rendering.has_value()) {
    std::unique_ptr<xml::Node> child = ReportChild();
    rep_->rendering = child != nullptr ? xml::Serialize(
                                             *child, {.indent = true, .depth = 1})
                                       : std::string();
  }
  return *rep_->rendering;
}

}  // namespace xymon::reporter
