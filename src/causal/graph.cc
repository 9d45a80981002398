#include "causal/graph.h"

#include <algorithm>
#include <array>
#include <deque>

#include "common/logging.h"

namespace hyper::causal {

void CausalGraph::AddNode(const std::string& attribute) {
  if (index_.count(attribute) > 0) return;
  index_.emplace(attribute, nodes_.size());
  nodes_.push_back(attribute);
  children_.emplace_back();
  parents_.emplace_back();
}

void CausalGraph::AddEdge(const std::string& from, const std::string& to,
                          const std::string& link_attribute) {
  AddNode(from);
  AddNode(to);
  edges_.push_back(CausalEdge{from, to, link_attribute});
  children_[IndexOf(from)].push_back(IndexOf(to));
  parents_[IndexOf(to)].push_back(IndexOf(from));
}

size_t CausalGraph::IndexOf(const std::string& attribute) const {
  auto it = index_.find(attribute);
  HYPER_CHECK(it != index_.end());
  return it->second;
}

namespace {

void Reach(const std::vector<std::vector<size_t>>& adjacency, size_t start,
           std::vector<bool>* seen) {
  std::deque<size_t> frontier{start};
  while (!frontier.empty()) {
    size_t node = frontier.front();
    frontier.pop_front();
    for (size_t next : adjacency[node]) {
      if (!(*seen)[next]) {
        (*seen)[next] = true;
        frontier.push_back(next);
      }
    }
  }
}

}  // namespace

std::unordered_set<std::string> CausalGraph::Descendants(
    const std::string& attr) const {
  std::unordered_set<std::string> out;
  auto it = index_.find(attr);
  if (it == index_.end()) return out;
  std::vector<bool> seen(nodes_.size(), false);
  Reach(children_, it->second, &seen);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (seen[i] && i != it->second) out.insert(nodes_[i]);
  }
  return out;
}

Status CausalGraph::Validate() const {
  return TopologicalOrder().ok()
             ? Status::OK()
             : Status::InvalidArgument("causal graph contains a cycle");
}

Result<std::vector<std::string>> CausalGraph::TopologicalOrder() const {
  // Kahn's algorithm.
  std::vector<size_t> in_degree(nodes_.size(), 0);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    in_degree[n] = parents_[n].size();
  }
  std::deque<size_t> ready;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (in_degree[n] == 0) ready.push_back(n);
  }
  std::vector<std::string> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    size_t node = ready.front();
    ready.pop_front();
    order.push_back(nodes_[node]);
    for (size_t child : children_[node]) {
      if (--in_degree[child] == 0) ready.push_back(child);
    }
  }
  if (order.size() != nodes_.size()) {
    return Status::InvalidArgument("causal graph contains a cycle");
  }
  return order;
}

bool CausalGraph::HasCrossTupleEdges() const {
  for (const CausalEdge& e : edges_) {
    if (e.is_cross_tuple()) return true;
  }
  return false;
}

std::string CausalGraph::ToString() const {
  std::string out = "CausalGraph{";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) out += ", ";
    out += edges_[i].from + "->" + edges_[i].to;
    if (edges_[i].is_cross_tuple()) {
      out += "[" + edges_[i].link_attribute + "]";
    }
  }
  out += "}";
  return out;
}

std::string CausalGraph::ToDot(const std::string& graph_name) const {
  std::string out = "digraph " + graph_name + " {\n";
  out += "  rankdir=LR;\n  node [shape=ellipse, fontsize=11];\n";
  for (const std::string& node : nodes_) {
    out += "  \"" + node + "\";\n";
  }
  for (const CausalEdge& e : edges_) {
    out += "  \"" + e.from + "\" -> \"" + e.to + "\"";
    if (e.is_cross_tuple()) {
      out += " [style=dashed, label=\"" + e.link_attribute + "\"]";
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// d-separation (reachability / Bayes-ball algorithm)
// ---------------------------------------------------------------------------

namespace {

/// Internal view of the graph as index-based adjacency used by DSeparatedIdx.
struct IndexedGraph {
  std::vector<std::vector<size_t>> children;
  std::vector<std::vector<size_t>> parents;
};

IndexedGraph BuildIndexed(const CausalGraph& graph,
                          const std::unordered_set<std::string>& drop_out_of) {
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < graph.nodes().size(); ++i) {
    index.emplace(graph.nodes()[i], i);
  }
  IndexedGraph ig;
  ig.children.resize(graph.num_nodes());
  ig.parents.resize(graph.num_nodes());
  for (const CausalEdge& e : graph.edges()) {
    if (drop_out_of.count(e.from) > 0) continue;  // remove outgoing edges
    size_t u = index.at(e.from);
    size_t v = index.at(e.to);
    ig.children[u].push_back(v);
    ig.parents[v].push_back(u);
  }
  return ig;
}

bool DSeparatedImpl(const CausalGraph& graph, const IndexedGraph& ig,
                    const std::string& x, const std::string& y,
                    const std::unordered_set<std::string>& z) {
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < graph.nodes().size(); ++i) {
    index.emplace(graph.nodes()[i], i);
  }
  auto itx = index.find(x);
  auto ity = index.find(y);
  if (itx == index.end() || ity == index.end()) return true;
  const size_t src = itx->second;
  const size_t dst = ity->second;

  const size_t n = graph.num_nodes();
  std::vector<bool> in_z(n, false);
  for (const std::string& name : z) {
    auto it = index.find(name);
    if (it != index.end()) in_z[it->second] = true;
  }
  if (in_z[src] || in_z[dst]) {
    // Conditioning on an endpoint blocks everything trivially; callers
    // should not do this, treat as separated.
    return true;
  }

  // Ancestors of Z (needed for collider activation).
  std::vector<bool> anc_z(n, false);
  {
    std::deque<size_t> frontier;
    for (size_t i = 0; i < n; ++i) {
      if (in_z[i]) {
        anc_z[i] = true;
        frontier.push_back(i);
      }
    }
    while (!frontier.empty()) {
      size_t node = frontier.front();
      frontier.pop_front();
      for (size_t p : ig.parents[node]) {
        if (!anc_z[p]) {
          anc_z[p] = true;
          frontier.push_back(p);
        }
      }
    }
  }

  // Reachability over (node, direction) states. Direction encodes how we
  // arrived: kUp = via an edge child->parent (moving against arrows),
  // kDown = via an edge parent->child (moving along arrows).
  enum Direction { kUp = 0, kDown = 1 };
  std::vector<std::array<bool, 2>> visited(n, {false, false});
  std::deque<std::pair<size_t, Direction>> frontier;
  frontier.emplace_back(src, kUp);  // leaving the source in any direction
  visited[src][kUp] = true;

  while (!frontier.empty()) {
    auto [node, dir] = frontier.front();
    frontier.pop_front();
    if (node == dst) return false;  // active path found

    if (dir == kUp) {
      // Arrived against an arrow (or at the source): if not conditioned on,
      // may continue up to parents and down to children.
      if (!in_z[node]) {
        for (size_t p : ig.parents[node]) {
          if (!visited[p][kUp]) {
            visited[p][kUp] = true;
            frontier.emplace_back(p, kUp);
          }
        }
        for (size_t c : ig.children[node]) {
          if (!visited[c][kDown]) {
            visited[c][kDown] = true;
            frontier.emplace_back(c, kDown);
          }
        }
      }
    } else {
      // Arrived along an arrow: chain continues to children unless blocked;
      // collider opens toward parents iff node is an ancestor of Z (or in Z).
      if (!in_z[node]) {
        for (size_t c : ig.children[node]) {
          if (!visited[c][kDown]) {
            visited[c][kDown] = true;
            frontier.emplace_back(c, kDown);
          }
        }
      }
      if (anc_z[node]) {
        for (size_t p : ig.parents[node]) {
          if (!visited[p][kUp]) {
            visited[p][kUp] = true;
            frontier.emplace_back(p, kUp);
          }
        }
      }
    }
  }
  return true;
}

}  // namespace

bool DSeparated(const CausalGraph& graph, const std::string& x,
                const std::string& y,
                const std::unordered_set<std::string>& z) {
  IndexedGraph ig = BuildIndexed(graph, /*drop_out_of=*/{});
  return DSeparatedImpl(graph, ig, x, y, z);
}

bool SatisfiesBackdoor(const CausalGraph& graph, const std::string& b,
                       const std::string& y,
                       const std::unordered_set<std::string>& c) {
  // Condition (i): no member of C is a descendant of b or of y.
  const auto desc_b = graph.Descendants(b);
  const auto desc_y = graph.Descendants(y);
  for (const std::string& node : c) {
    if (node == b || node == y) return false;
    if (desc_b.count(node) > 0 || desc_y.count(node) > 0) return false;
  }
  // Condition (ii): with edges out of b removed, C d-separates b from y.
  IndexedGraph ig = BuildIndexed(graph, /*drop_out_of=*/{b});
  return DSeparatedImpl(graph, ig, b, y, c);
}

Result<std::unordered_set<std::string>> MinimalBackdoorSet(
    const CausalGraph& graph, const std::string& b, const std::string& y) {
  if (!graph.HasNode(b) || !graph.HasNode(y)) {
    return Status::NotFound("treatment or outcome attribute not in graph");
  }
  const auto desc_b = graph.Descendants(b);
  const auto desc_y = graph.Descendants(y);
  std::unordered_set<std::string> candidate;
  for (const std::string& node : graph.nodes()) {
    if (node == b || node == y) continue;
    if (desc_b.count(node) > 0 || desc_y.count(node) > 0) continue;
    candidate.insert(node);
  }
  if (!SatisfiesBackdoor(graph, b, y, candidate)) {
    return Status::NotFound(
        "no observed backdoor set exists for the given treatment/outcome");
  }
  // Greedy minimization in deterministic (node list) order.
  for (const std::string& node : graph.nodes()) {
    if (candidate.count(node) == 0) continue;
    candidate.erase(node);
    if (!SatisfiesBackdoor(graph, b, y, candidate)) {
      candidate.insert(node);  // needed, keep it
    }
  }
  return candidate;
}

}  // namespace hyper::causal
