#ifndef HYPER_CAUSAL_GROUND_H_
#define HYPER_CAUSAL_GROUND_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "causal/graph.h"
#include "common/status.h"
#include "storage/database.h"

namespace hyper::causal {

/// Identifies one tuple of the database.
struct TupleId {
  std::string relation;
  size_t tid = 0;

  bool operator==(const TupleId& other) const {
    return tid == other.tid && relation == other.relation;
  }
};

struct TupleIdHash {
  size_t operator()(const TupleId& t) const {
    return std::hash<std::string>()(t.relation) * 1000003u ^ t.tid;
  }
};

/// A node of the ground causal graph: attribute A of tuple t (the paper's
/// ground variables A[t], §2.2).
struct GroundNode {
  TupleId tuple;
  std::string attribute;
};

/// Explicit ground causal graph (Figure 3). Materialized only for small
/// databases — tests, the exact possible-world oracle, and debugging; block
/// decomposition of large databases uses TupleComponents below, which never
/// builds ground edges.
class GroundCausalGraph {
 public:
  /// Grounds `graph` over `db`. Each intra-tuple edge produces one edge per
  /// tuple of the relation holding both attributes (or per key-linked tuple
  /// pair when the endpoints live in different relations); each cross-tuple
  /// edge with link attribute L produces one edge per ordered pair of
  /// distinct tuples agreeing on L.
  static Result<GroundCausalGraph> Build(const CausalGraph& graph,
                                         const Database& db);

  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<GroundNode>& nodes() const { return nodes_; }
  const std::vector<std::pair<size_t, size_t>>& edges() const {
    return edges_;
  }

  /// Node index lookup; errors when (tuple, attribute) is not a ground node.
  Result<size_t> NodeIndex(const TupleId& tuple,
                           const std::string& attribute) const;

  /// Parents / children of a ground node, as node indices.
  const std::vector<size_t>& ParentsOf(size_t node) const {
    return parents_[node];
  }
  const std::vector<size_t>& ChildrenOf(size_t node) const {
    return children_[node];
  }

 private:
  std::vector<GroundNode> nodes_;
  std::vector<std::pair<size_t, size_t>> edges_;
  std::vector<std::vector<size_t>> parents_;
  std::vector<std::vector<size_t>> children_;
  std::unordered_map<std::string, size_t> node_index_;  // "rel#tid#attr"
};

/// Scalable block decomposition (paper §3.3): assigns every tuple of `db` to
/// a block such that tuples in different blocks are independent under
/// `graph`. Runs in O(#tuples · #edges) with union-find and never grounds
/// edges: tuples that agree on the link attribute of any cross-tuple (or
/// cross-relation) edge are unioned through a per-value representative.
///
/// Returns block ids, dense in [0, num_blocks), keyed by tuple.
class TupleComponents {
 public:
  static Result<TupleComponents> Build(const CausalGraph& graph,
                                       const Database& db);

  size_t num_blocks() const { return num_blocks_; }
  Result<size_t> BlockOf(const TupleId& tuple) const;

  /// Tuples of each block, grouped: block id -> members.
  const std::vector<std::vector<TupleId>>& blocks() const { return blocks_; }

 private:
  std::unordered_map<std::string, size_t> tuple_index_;  // "rel#tid"
  std::vector<size_t> block_of_;
  std::vector<std::vector<TupleId>> blocks_;
  size_t num_blocks_ = 0;
};

}  // namespace hyper::causal

#endif  // HYPER_CAUSAL_GROUND_H_
