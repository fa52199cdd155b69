#include "src/query/engine.h"

#include "src/common/string_util.h"

namespace xymon::query {
namespace {

void CollectDescendants(const xml::Node* node, const PathStep& step,
                        std::vector<const xml::Node*>* out) {
  for (const auto& c : node->children()) {
    if (c->is_element()) {
      if (step.MatchesTag(c->name())) out->push_back(c.get());
      CollectDescendants(c.get(), step, out);
    }
  }
}

bool ValueMatches(std::string_view text, Predicate::Kind kind,
                  const std::string& value) {
  if (kind == Predicate::Kind::kEquals) {
    return Trim(text) == value;
  }
  // contains: case-insensitive substring, matching the alerters' notion of
  // word containment closely enough for query predicates.
  return ToLower(text).find(ToLower(value)) != std::string::npos;
}

bool PredicateMatches(const xml::Node* node, const Predicate& p) {
  if (!p.attribute.empty()) {
    const std::string* attr = node->GetAttribute(p.attribute);
    return attr != nullptr && ValueMatches(*attr, p.kind, p.value);
  }
  return ValueMatches(node->TextContent(), p.kind, p.value);
}

}  // namespace

std::vector<const xml::Node*> EvalPath(const xml::Node* root,
                                       const PathExpr& path) {
  std::vector<const xml::Node*> frontier{root};
  for (const PathStep& step : path.steps) {
    std::vector<const xml::Node*> next;
    for (const xml::Node* node : frontier) {
      if (step.descendant) {
        CollectDescendants(node, step, &next);
      } else {
        for (const auto& c : node->children()) {
          if (c->is_element() && step.MatchesTag(c->name())) {
            next.push_back(c.get());
          }
        }
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

Result<std::unique_ptr<xml::Node>> QueryEngine::Evaluate(
    const Query& q) const {
  return Run(q, nullptr);
}

Result<std::unique_ptr<xml::Node>> QueryEngine::EvaluateOn(
    const Query& q, const xml::Node& self) const {
  return Run(q, &self);
}

const xml::Node* QueryEngine::Lookup(const Query& q, const Tuple& tuple,
                                     const std::string& var) {
  for (size_t i = 0; i < q.from.size() && i < tuple.values.size(); ++i) {
    if (q.from[i].var == var) return tuple.values[i];
  }
  return nullptr;
}

bool QueryEngine::Satisfies(const Query& q, const Tuple& tuple) {
  for (const Predicate& p : q.where) {
    const xml::Node* base = Lookup(q, tuple, p.var);
    if (base == nullptr) return false;
    bool any = false;
    for (const xml::Node* target : EvalPath(base, p.path)) {
      if (PredicateMatches(target, p)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

Status QueryEngine::Bind(const Query& q, const xml::Node* self,
                         const Domains& domains, size_t index, Tuple* tuple,
                         std::vector<Tuple>* out) const {
  if (index == q.from.size()) {
    if (Satisfies(q, *tuple)) out->push_back(*tuple);
    return Status::OK();
  }
  const FromBinding& b = q.from[index];

  std::vector<const xml::Node*> range;
  if (b.from_self) {
    if (self == nullptr) {
      return Status::InvalidArgument("query binds 'self' but no context document");
    }
    range = EvalPath(self, b.path);
  } else if (!b.source_var.empty()) {
    const xml::Node* base = Lookup(q, *tuple, b.source_var);
    if (base == nullptr) {
      return Status::InvalidArgument("unbound variable '" + b.source_var +
                                     "' in from clause");
    }
    range = EvalPath(base, b.path);
  } else {
    if (warehouse_ == nullptr) {
      return Status::FailedPrecondition(
          "query ranges over a domain but the engine has no warehouse");
    }
    for (const auto& [meta, doc] : domains.at(b.domain)) {
      (void)meta;
      auto matches = EvalPath(doc->root.get(), b.path);
      // A document root matching the first step directly also counts
      // (descendant search starts below the root).
      if (!b.path.steps.empty() && b.path.steps.front().descendant &&
          b.path.steps.size() == 1 &&
          doc->root->name() == b.path.steps.front().tag) {
        matches.push_back(doc->root.get());
      }
      range.insert(range.end(), matches.begin(), matches.end());
    }
  }

  for (const xml::Node* node : range) {
    tuple->values.push_back(node);
    XYMON_RETURN_IF_ERROR(Bind(q, self, domains, index + 1, tuple, out));
    tuple->values.pop_back();
  }
  return Status::OK();
}

Result<std::unique_ptr<xml::Node>> QueryEngine::Run(
    const Query& q, const xml::Node* self) const {
  auto result = xml::Node::Element(q.name.empty() ? "result" : q.name);

  std::vector<Tuple> tuples;
  if (q.from.empty()) {
    tuples.push_back(Tuple{});
  } else {
    // Each distinct domain is fetched once, before binding, not once per
    // outer tuple: a source may free a domain's previous fetch when it is
    // fetched again (a worker proxy), and tuples point into the documents.
    Domains domains;
    for (const FromBinding& b : q.from) {
      if (warehouse_ != nullptr && !b.from_self && b.source_var.empty() &&
          !domains.contains(b.domain)) {
        domains.emplace(b.domain, warehouse_->DocumentsInDomain(b.domain));
      }
    }
    Tuple scratch;
    XYMON_RETURN_IF_ERROR(Bind(q, self, domains, 0, &scratch, &tuples));
  }

  std::vector<uint64_t> counts(q.select.size(), 0);
  for (const Tuple& tuple : tuples) {
    for (size_t si = 0; si < q.select.size(); ++si) {
      const SelectItem& item = q.select[si];
      const xml::Node* base = nullptr;
      if (item.var == "self" && self != nullptr) {
        base = self;
      } else {
        base = Lookup(q, tuple, item.var);
      }
      if (base == nullptr) {
        return Status::InvalidArgument("select references unbound variable '" +
                                       item.var + "'");
      }
      for (const xml::Node* node : EvalPath(base, item.path)) {
        if (item.count) {
          ++counts[si];
          continue;
        }
        std::unique_ptr<xml::Node> copy = node->Clone();
        // Source-document XIDs must not leak into the result document —
        // delta tracking assigns its own.
        copy->ClearXids();
        result->AddChild(std::move(copy));
      }
    }
  }
  for (size_t si = 0; si < q.select.size(); ++si) {
    if (!q.select[si].count) continue;
    xml::Node* count_el = result->AddChild(xml::Node::Element("count"));
    std::string label = q.select[si].var + q.select[si].path.ToString();
    count_el->SetAttribute("of", label);
    count_el->AddChild(xml::Node::Text(std::to_string(counts[si])));
  }
  return result;
}

}  // namespace xymon::query
