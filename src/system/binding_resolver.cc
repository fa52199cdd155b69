#include "src/system/binding_resolver.h"

#include <map>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/string_util.h"
#include "src/sublang/template.h"
#include "src/xml/serializer.h"

namespace xymon::system {
namespace {

using reporter::Payload;

/// The payloads of one document, memoised by recipe. A payload reads its
/// binding only through the recipe; everything else it reads — url, docid,
/// status, domain, info_xml, the diff and the current tree — is the same for
/// every match of one Resolve call. So each recipe is built once per
/// document, and every subscriber sharing it gets the same Payload objects.
class DocumentPayloads {
 public:
  explicit DocumentPayloads(const warehouse::IngestResult& ingest)
      : ingest_(ingest) {}

  const std::vector<Payload>& For(const manager::PayloadRecipe& recipe,
                                  const mqp::MqpNotification& match) {
    auto [it, fresh] = memo_.try_emplace(recipe.key);
    if (fresh) it->second = Build(recipe, match);
    return it->second;
  }

 private:
  std::vector<Payload> Build(const manager::PayloadRecipe& recipe,
                             const mqp::MqpNotification& match);

  /// The paper's implemented behaviour: "notifications simply return the
  /// URL of the document and basic informations" (§5.1). One payload for
  /// every recipe that yields it.
  const std::vector<Payload>& Info(const mqp::MqpNotification& match) {
    if (info_.empty()) info_.emplace_back(match.info_xml);
    return info_;
  }

  const warehouse::IngestResult& ingest_;
  std::unordered_map<std::string_view, std::vector<Payload>> memo_;
  std::vector<Payload> info_;
};

std::vector<Payload> DocumentPayloads::Build(
    const manager::PayloadRecipe& recipe, const mqp::MqpNotification& match) {
  using sublang::SelectClause;
  switch (recipe.kind) {
    case SelectClause::Kind::kDefault:
      return Info(match);

    case SelectClause::Kind::kTemplate: {
      std::map<std::string, std::string> vars{
          {"URL", match.url},
          {"DOCID", std::to_string(match.docid)},
          {"STATUS", warehouse::DocStatusName(ingest_.meta.status)},
          {"DOMAIN", ingest_.meta.domain},
      };
      auto expanded = sublang::ExpandTemplate(recipe.template_xml, vars);
      if (!expanded.ok()) return Info(match);
      return {Payload(xml::Serialize(*expanded.value()))};
    }

    case SelectClause::Kind::kVariable: {
      // Elements bound by the from clause; with an element condition on the
      // variable (`new X`, `updated X contains "w"`), exactly those
      // satisfying it.
      auto word_matches = [&](const xml::Node& el) {
        if (recipe.word.empty()) return true;
        std::string text;
        if (recipe.strict) {
          for (const auto& child : el.children()) {
            if (child->is_text()) text += child->text();
          }
        } else {
          text = el.TextContent();
        }
        for (const std::string& token : TokenizeWords(text)) {
          if (token == recipe.word) return true;
        }
        return false;
      };
      std::vector<Payload> payloads;
      if (recipe.change_op.has_value()) {
        for (const xmldiff::ElementChange& change : ingest_.diff.changes) {
          if (change.op == *recipe.change_op &&
              change.element->name() == recipe.tag &&
              word_matches(*change.element)) {
            payloads.emplace_back(xml::Serialize(*change.element));
          }
        }
      } else if (ingest_.current != nullptr &&
                 ingest_.current->root != nullptr) {
        for (const xml::Node* el :
             ingest_.current->root->FindDescendants(recipe.tag)) {
          if (word_matches(*el)) payloads.emplace_back(xml::Serialize(*el));
        }
      }
      if (payloads.empty()) return Info(match);
      return payloads;
    }
  }
  return {};
}

}  // namespace

void BindingResolver::Resolve(const warehouse::IngestResult& ingest,
                              const std::vector<mqp::MqpNotification>& matches,
                              DocOutcome* out) const {
  DocumentPayloads payloads(ingest);
  // A disjunctive where clause registers several complex events for one
  // monitoring query; a document satisfying more than one disjunct must
  // still notify the query only once.
  std::unordered_set<uint64_t> notified;
  notified.reserve(matches.size());
  for (const mqp::MqpNotification& match : matches) {
    const manager::QueryBinding* binding =
        manager_->FindBinding(match.complex_event);
    if (binding == nullptr) continue;
    if (!notified.insert(binding->query_id).second) continue;

    for (const Payload& payload : payloads.For(binding->recipe, match)) {
      out->actions.push_back(DeliveryAction{
          DeliveryAction::Kind::kNotification, binding->subscription,
          binding->query_name, payload, /*event_key=*/{}});
    }
    // Wake continuous queries listening on this monitoring query (§5.2's
    // `when XylemeCompetitors.ChangeInMyProducts`).
    out->actions.push_back(DeliveryAction{
        DeliveryAction::Kind::kTriggerEvent, /*subscription=*/{},
        /*query_name=*/{}, /*payload=*/{}, binding->trigger_key});
  }
}

}  // namespace xymon::system
