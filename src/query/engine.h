#ifndef XYMON_QUERY_ENGINE_H_
#define XYMON_QUERY_ENGINE_H_

#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/query/query.h"
#include "src/warehouse/warehouse.h"
#include "src/xml/dom.h"

namespace xymon::query {

/// Evaluates a path expression from `root`: child steps narrow to direct
/// children, descendant steps to all descendants. Empty path yields {root}.
std::vector<const xml::Node*> EvalPath(const xml::Node* root,
                                       const PathExpr& path);

/// The Xyleme query processor stand-in ([2], Figure 1 right-hand side),
/// restricted to the conjunctive tree-pattern fragment the paper's
/// continuous and report queries use: nested-loop evaluation of the from
/// bindings, conjunctive filtering, element projection.
class QueryEngine {
 public:
  /// `source` is the document collection bindings range over — one
  /// warehouse, or the sharded pipeline's aggregated view.
  explicit QueryEngine(const warehouse::DocumentSource* source)
      : warehouse_(source) {}

  /// Evaluates against the warehouse. The result is an element named after
  /// the query containing one projection per satisfying binding tuple.
  Result<std::unique_ptr<xml::Node>> Evaluate(const Query& q) const;

  /// Evaluates with `self` bound to a given tree (report queries run over
  /// the notification buffer; monitoring-select debugging runs over one
  /// document). Bindings over domains still consult the warehouse if set.
  Result<std::unique_ptr<xml::Node>> EvaluateOn(const Query& q,
                                                const xml::Node& self) const;

 private:
  struct Tuple {
    std::vector<const xml::Node*> values;  // parallel to q.from
  };
  /// The documents of each domain a query ranges over, fetched once.
  using Domains = std::map<
      std::string_view,
      std::vector<std::pair<const warehouse::DocMeta*, const xml::Document*>>>;

  Result<std::unique_ptr<xml::Node>> Run(const Query& q,
                                         const xml::Node* self) const;
  Status Bind(const Query& q, const xml::Node* self, const Domains& domains,
              size_t index, Tuple* tuple, std::vector<Tuple>* out) const;
  static const xml::Node* Lookup(const Query& q, const Tuple& tuple,
                                 const std::string& var);
  static bool Satisfies(const Query& q, const Tuple& tuple);

  const warehouse::DocumentSource* warehouse_;
};

}  // namespace xymon::query

#endif  // XYMON_QUERY_ENGINE_H_
