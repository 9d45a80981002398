#include "causal/ground.h"

#include <cstdint>

#include "common/logging.h"
#include "common/strings.h"

namespace hyper::causal {

namespace {

std::string NodeKey(const std::string& relation, size_t tid,
                    const std::string& attr) {
  return relation + "#" + std::to_string(tid) + "#" + attr;
}

/// Union-find with path compression.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// Groups tuple indices of one relation by the value of `attr`.
Result<std::unordered_map<Value, std::vector<size_t>, ValueHash>>
GroupByAttribute(const Table& table, const std::string& attr) {
  HYPER_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(attr));
  std::unordered_map<Value, std::vector<size_t>, ValueHash> groups;
  for (size_t t = 0; t < table.num_rows(); ++t) {
    groups[table.At(t, idx)].push_back(t);
  }
  return groups;
}

/// Finds the relation of `attr` restricted to relations that actually exist.
Result<std::string> RelationOf(const Database& db, const std::string& attr) {
  return db.RelationOfAttribute(attr);
}

}  // namespace

Result<GroundCausalGraph> GroundCausalGraph::Build(const CausalGraph& graph,
                                                   const Database& db) {
  HYPER_RETURN_NOT_OK(graph.Validate());
  GroundCausalGraph out;

  // Create ground nodes for every graph attribute of every tuple.
  std::unordered_map<std::string, std::string> relation_of;
  for (const std::string& attr : graph.nodes()) {
    HYPER_ASSIGN_OR_RETURN(std::string rel, RelationOf(db, attr));
    relation_of.emplace(attr, rel);
    const Table& table = *db.GetTable(rel).value();
    for (size_t t = 0; t < table.num_rows(); ++t) {
      out.node_index_.emplace(NodeKey(rel, t, attr), out.nodes_.size());
      out.nodes_.push_back(GroundNode{TupleId{rel, t}, attr});
    }
  }
  out.parents_.resize(out.nodes_.size());
  out.children_.resize(out.nodes_.size());

  auto add_edge = [&](size_t from, size_t to) {
    out.edges_.emplace_back(from, to);
    out.children_[from].push_back(to);
    out.parents_[to].push_back(from);
  };

  for (const CausalEdge& edge : graph.edges()) {
    const std::string& from_rel = relation_of.at(edge.from);
    const std::string& to_rel = relation_of.at(edge.to);
    const Table& from_table = *db.GetTable(from_rel).value();
    const Table& to_table = *db.GetTable(to_rel).value();

    if (!edge.is_cross_tuple()) {
      if (from_rel != to_rel) {
        return Status::InvalidArgument(
            "intra-tuple causal edge " + edge.from + "->" + edge.to +
            " spans relations '" + from_rel + "' and '" + to_rel +
            "'; give it a link attribute (e.g. the shared key)");
      }
      for (size_t t = 0; t < from_table.num_rows(); ++t) {
        add_edge(out.node_index_.at(NodeKey(from_rel, t, edge.from)),
                 out.node_index_.at(NodeKey(to_rel, t, edge.to)));
      }
      continue;
    }

    // Cross-tuple (or cross-relation) edge: pair tuples agreeing on the link
    // attribute. Same-relation pairs exclude the identical tuple — the solid
    // intra-tuple edge covers that case.
    HYPER_ASSIGN_OR_RETURN(auto from_groups,
                           GroupByAttribute(from_table, edge.link_attribute));
    HYPER_ASSIGN_OR_RETURN(auto to_groups,
                           GroupByAttribute(to_table, edge.link_attribute));
    for (const auto& [value, from_tids] : from_groups) {
      auto it = to_groups.find(value);
      if (it == to_groups.end()) continue;
      for (size_t ft : from_tids) {
        for (size_t tt : it->second) {
          if (from_rel == to_rel && ft == tt) continue;
          add_edge(out.node_index_.at(NodeKey(from_rel, ft, edge.from)),
                   out.node_index_.at(NodeKey(to_rel, tt, edge.to)));
        }
      }
    }
  }

  return out;
}

Result<size_t> GroundCausalGraph::NodeIndex(const TupleId& tuple,
                                            const std::string& attr) const {
  auto it = node_index_.find(NodeKey(tuple.relation, tuple.tid, attr));
  if (it == node_index_.end()) {
    return Status::NotFound("no ground node for " + tuple.relation + "[" +
                            std::to_string(tuple.tid) + "]." + attr);
  }
  return it->second;
}

Result<TupleComponents> TupleComponents::Build(const CausalGraph& graph,
                                               const Database& db) {
  HYPER_RETURN_NOT_OK(graph.Validate());
  TupleComponents out;

  // Index all tuples of relations that carry causal attributes (relations
  // outside the model form singleton blocks and are indexed too): each
  // relation's tuples are one span of indices.
  size_t num_tuples = 0;
  for (const std::string& rel : db.TableNames()) {
    const size_t rows = db.GetTable(rel).value()->num_rows();
    out.span_of_.emplace(rel, Span{num_tuples, rows});
    num_tuples += rows;
  }

  UnionFind uf(num_tuples);

  // For every edge that relates different tuples, union the tuples that
  // agree on the link attribute. A per-(attribute, value) representative
  // keeps this linear: every matching tuple unions with the representative
  // instead of with every other member.
  std::unordered_map<std::string, std::string> relation_of;
  for (const std::string& attr : graph.nodes()) {
    HYPER_ASSIGN_OR_RETURN(std::string rel, RelationOf(db, attr));
    relation_of.emplace(attr, rel);
  }

  for (const CausalEdge& edge : graph.edges()) {
    const std::string& from_rel = relation_of.at(edge.from);
    const std::string& to_rel = relation_of.at(edge.to);
    if (!edge.is_cross_tuple()) {
      if (from_rel != to_rel) {
        return Status::InvalidArgument(
            "intra-tuple causal edge spans relations; give it a link "
            "attribute");
      }
      continue;  // same tuple: nothing to union
    }
    std::unordered_map<Value, size_t, ValueHash> representative;
    for (const std::string& rel : {from_rel, to_rel}) {
      const Table& table = *db.GetTable(rel).value();
      auto attr_idx = table.schema().IndexOf(edge.link_attribute);
      if (!attr_idx.ok()) {
        return Status::InvalidArgument(
            "link attribute '" + edge.link_attribute +
            "' missing from relation '" + rel + "'");
      }
      const size_t offset = out.span_of_.at(rel).offset;
      for (size_t t = 0; t < table.num_rows(); ++t) {
        const Value& v = table.At(t, *attr_idx);
        auto [it, inserted] = representative.emplace(v, offset + t);
        if (!inserted) uf.Union(offset + t, it->second);
      }
      if (from_rel == to_rel) break;  // one pass when both ends share a table
    }
  }

  // Dense block ids by first occurrence of each root.
  out.block_of_.resize(num_tuples);
  std::vector<size_t> block_of_root(num_tuples, SIZE_MAX);
  for (size_t i = 0; i < num_tuples; ++i) {
    size_t& block = block_of_root[uf.Find(i)];
    if (block == SIZE_MAX) block = out.num_blocks_++;
    out.block_of_[i] = block;
  }
  return out;
}

Result<size_t> TupleComponents::BlockOf(const TupleId& tuple) const {
  auto it = span_of_.find(tuple.relation);
  if (it == span_of_.end() || tuple.tid >= it->second.rows) {
    return Status::NotFound("tuple not indexed: " + tuple.relation + "[" +
                            std::to_string(tuple.tid) + "]");
  }
  return block_of_[it->second.offset + tuple.tid];
}

}  // namespace hyper::causal
