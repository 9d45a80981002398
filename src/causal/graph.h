#ifndef HYPER_CAUSAL_GRAPH_H_
#define HYPER_CAUSAL_GRAPH_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"

namespace hyper::causal {

/// How a causal edge grounds out over tuples (paper §2.2, Figure 2/3):
///   - an empty `link_attribute` means the edge connects attributes of the
///     *same tuple* (solid edges in Figure 2), or of tuples in two relations
///     related 1:1;
///   - a non-empty `link_attribute` L grounds the edge between every pair of
///     tuples that agree on L — e.g. Product.Price -> Review.Rating linked by
///     PID (a product's price affects its own reviews), or the dashed
///     cross-tuple Price -> Rating edge linked by Category (Asus prices
///     affect Vaio ratings within the Laptop market).
struct CausalEdge {
  std::string from;
  std::string to;
  std::string link_attribute;  // empty = same tuple

  bool is_cross_tuple() const { return !link_attribute.empty(); }
};

/// Attribute-level causal DAG of a probabilistic relational causal model.
///
/// Nodes are attribute names (the paper assumes non-key attribute names are
/// unambiguous across relations, §2). The DAG must be acyclic; Validate()
/// checks this and topological order is cached for traversals.
class CausalGraph {
 public:
  CausalGraph() = default;

  /// Adds a node; idempotent.
  void AddNode(const std::string& attribute);

  /// Adds an edge (creating endpoints as needed).
  void AddEdge(const std::string& from, const std::string& to,
               const std::string& link_attribute = "");

  bool HasNode(const std::string& attribute) const {
    return index_.count(attribute) > 0;
  }
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<std::string>& nodes() const { return nodes_; }
  const std::vector<CausalEdge>& edges() const { return edges_; }

  /// Transitive closure over children; the start node is not included.
  std::unordered_set<std::string> Descendants(const std::string& attr) const;

  /// Checks acyclicity. All public algorithms assume Validate() passed.
  Status Validate() const;

  /// Nodes in a topological order (parents before children).
  /// Requires an acyclic graph.
  Result<std::vector<std::string>> TopologicalOrder() const;

  /// True when every edge is intra-tuple (no dashed edges): each tuple is
  /// then causally independent of every other, so blocks are single tuples
  /// (plus key-linked tuples from other relations).
  bool HasCrossTupleEdges() const;

  std::string ToString() const;

  /// Graphviz DOT rendering: solid edges for intra-tuple dependencies,
  /// dashed labeled edges for cross-tuple links (matching the paper's
  /// Figure 2 styling). Paste into `dot -Tpng` for documentation/debugging.
  std::string ToDot(const std::string& graph_name = "causal") const;

 private:
  size_t IndexOf(const std::string& attribute) const;

  std::vector<std::string> nodes_;
  std::vector<CausalEdge> edges_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::vector<size_t>> children_;  // adjacency by node index
  std::vector<std::vector<size_t>> parents_;
};

/// d-separation test: is `x` d-separated from `y` given conditioning set `z`
/// in `graph`? Implemented with the reachability ("Bayes ball") algorithm;
/// runs in O(V + E).
// lint:allow(unreferenced): test-hook — causal_test's entry to the
// d-separation core that SatisfiesBackdoor runs.
bool DSeparated(const CausalGraph& graph, const std::string& x,
                const std::string& y,
                const std::unordered_set<std::string>& z);

/// Backdoor criterion (paper §3.3 / §A.2): `c` satisfies the backdoor
/// criterion w.r.t. treatment `b` and outcome `y` iff (i) no member of `c`
/// is a descendant of `b` or `y`, and (ii) `c` blocks every path between
/// `b` and `y` that enters `b` through an incoming edge (checked by removing
/// the edges out of `b` and testing d-separation).
bool SatisfiesBackdoor(const CausalGraph& graph, const std::string& b,
                       const std::string& y,
                       const std::unordered_set<std::string>& c);

/// Greedy minimal backdoor set (paper §A.2 "Computation of blocking set C"):
/// start from all non-descendants of {b, y} (excluding b, y), verify the
/// criterion, then drop one node at a time while the criterion still holds.
/// Returns NotFound if even the full candidate set fails (latent confounding
/// cannot happen here since all attributes are observed, but the treatment
/// may be disconnected — then the empty set is returned).
Result<std::unordered_set<std::string>> MinimalBackdoorSet(
    const CausalGraph& graph, const std::string& b, const std::string& y);

}  // namespace hyper::causal

#endif  // HYPER_CAUSAL_GRAPH_H_
