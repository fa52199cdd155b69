#ifndef XYMON_REPORTER_PAYLOAD_H_
#define XYMON_REPORTER_PAYLOAD_H_

#include <memory>
#include <optional>
#include <string>

#include "src/xml/dom.h"

namespace xymon::reporter {

/// The XML fragment a notification carries (Figure 2), as an immutable value
/// shared by reference: the resolver builds one payload per document and
/// payload recipe, and every subscriber it reaches — its DeliveryAction, its
/// place in a subscription buffer — holds the same object (DESIGN.md §15). A copy costs a reference count. Converts implicitly from
/// a string, so `Notification{"S", "q", "<n/>", t}` still reads naturally.
///
/// Thread contract: any thread may build a payload and read xml(). Once it
/// has reached the Reporter, only the Reporter touches it — and the Reporter
/// runs under the monitor's API mutex — so the lazily cached rendering needs
/// no lock.
class Payload {
 public:
  Payload() = default;
  Payload(std::string xml)  // NOLINT(google-explicit-constructor)
      : rep_(std::make_shared<Rep>(Rep{std::move(xml), std::nullopt})) {}
  Payload(const char* xml)  // NOLINT(google-explicit-constructor)
      : Payload(std::string(xml)) {}

  const std::string& xml() const { return rep_ != nullptr ? rep_->xml : Empty(); }
  bool empty() const { return xml().empty(); }

  /// True if both handles refer to one payload object.
  bool SharesWith(const Payload& other) const { return rep_ == other.rep_; }
  /// The shared object's address (nullptr for an empty handle): equal for
  /// exactly the handles that SharesWith each other.
  const void* identity() const { return rep_.get(); }

  /// The element this payload contributes to a `<Report>` tree: the parsed
  /// fragment, a malformed one preserved verbatim as `<raw>`, nullptr for an
  /// empty one.
  std::unique_ptr<xml::Node> ReportChild() const;

  /// ReportChild() serialized with indentation at depth 1 — exactly the bytes
  /// it occupies inside an indented `<Report>` body ("" for no child).
  /// Computed on first use and cached in the shared object, so a payload
  /// buffered by many subscriptions is parsed and rendered once.
  const std::string& ReportRendering() const;

 private:
  struct Rep {
    std::string xml;
    std::optional<std::string> rendering;
  };

  static const std::string& Empty() {
    static const std::string kEmpty;
    return kEmpty;
  }

  std::shared_ptr<Rep> rep_;
};

}  // namespace xymon::reporter

#endif  // XYMON_REPORTER_PAYLOAD_H_
