#include "src/system/binding_resolver.h"

#include <algorithm>
#include <map>
#include <unordered_map>
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
  DocumentPayloads(const warehouse::IngestResult& ingest,
                   const mqp::AlertMessage& alert,
                   const manager::SubscriptionManager& manager)
      : ingest_(ingest), alert_(alert), manager_(manager) {}

  const std::vector<Payload>& For(manager::RecipeId id) {
    auto [it, fresh] = memo_.try_emplace(id);
    if (fresh) it->second = Build(manager_.recipe(id));
    return it->second;
  }

 private:
  std::vector<Payload> Build(const manager::PayloadRecipe& recipe);

  /// The paper's implemented behaviour: "notifications simply return the
  /// URL of the document and basic informations" (§5.1). One payload for
  /// every recipe that yields it.
  const std::vector<Payload>& Info() {
    if (info_.empty()) info_.emplace_back(alert_.info_xml);
    return info_;
  }

  const warehouse::IngestResult& ingest_;
  const mqp::AlertMessage& alert_;
  const manager::SubscriptionManager& manager_;
  std::unordered_map<manager::RecipeId, std::vector<Payload>> memo_;
  std::vector<Payload> info_;
};

std::vector<Payload> DocumentPayloads::Build(
    const manager::PayloadRecipe& recipe) {
  using sublang::SelectClause;
  switch (recipe.kind) {
    case SelectClause::Kind::kDefault:
      return Info();

    case SelectClause::Kind::kTemplate: {
      std::map<std::string, std::string> vars{
          {"URL", alert_.url},
          {"DOCID", std::to_string(alert_.docid)},
          {"STATUS", warehouse::DocStatusName(ingest_.meta.status)},
          {"DOMAIN", ingest_.meta.domain},
      };
      auto expanded = sublang::ExpandTemplate(recipe.template_xml, vars);
      if (!expanded.ok()) return Info();
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
      if (payloads.empty()) return Info();
      return payloads;
    }
  }
  return {};
}

}  // namespace

void BindingResolver::Resolve(const warehouse::IngestResult& ingest,
                              const std::vector<mqp::MqpNotification>& matches,
                              DocOutcome* out) const {
  if (matches.empty()) return;
  DocumentPayloads payloads(ingest, *matches.front().alert, *manager_);
  // A disjunctive where clause, or two same-named queries, list one query
  // under several bindings; a document matching more than one of them must
  // still notify the query only once — the first in match order.
  std::vector<uint64_t> notified;
  for (const mqp::MqpNotification& match : matches) {
    // An unknown id (a corrupted match) lists no binding.
    for (manager::BindingId id : manager_->BindingsOf(match.complex_event)) {
      const manager::QueryBinding& binding = *manager_->binding(id);
      if (binding.shares_query) {
        if (std::find(notified.begin(), notified.end(), binding.query_id) !=
            notified.end()) {
          continue;
        }
        notified.push_back(binding.query_id);
      }
      for (const Payload& payload : payloads.For(binding.recipe)) {
        out->actions.push_back(DeliveryAction{id, payload});
      }
    }
  }
}

}  // namespace xymon::system
