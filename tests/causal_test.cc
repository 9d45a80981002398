#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "causal/graph.h"
#include "causal/ground.h"
#include "causal/scm.h"
#include "storage/database.h"

namespace hyper::causal {
namespace {

// ---------------------------------------------------------------------------
// CausalGraph basics
// ---------------------------------------------------------------------------

/// The classic confounder graph: C -> B, C -> Y, B -> Y.
CausalGraph ConfounderGraph() {
  CausalGraph g;
  g.AddEdge("C", "B");
  g.AddEdge("C", "Y");
  g.AddEdge("B", "Y");
  return g;
}

/// A chain B -> M -> Y plus confounders: Age -> B, Age -> Y.
CausalGraph ChainGraph() {
  CausalGraph g;
  g.AddEdge("Age", "B");
  g.AddEdge("Age", "Y");
  g.AddEdge("B", "M");
  g.AddEdge("M", "Y");
  return g;
}

TEST(CausalGraphTest, NodesAndEdges) {
  CausalGraph g = ConfounderGraph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_TRUE(g.HasNode("C"));
  EXPECT_FALSE(g.HasNode("Z"));
}

TEST(CausalGraphTest, Descendants) {
  CausalGraph g = ChainGraph();
  auto desc = g.Descendants("B");
  EXPECT_EQ(desc.size(), 2u);
  EXPECT_TRUE(desc.count("M"));
  EXPECT_TRUE(desc.count("Y"));
  EXPECT_TRUE(g.Descendants("Y").empty());
  EXPECT_TRUE(g.Descendants("unknown").empty());
}

TEST(CausalGraphTest, TopologicalOrder) {
  CausalGraph g = ChainGraph();
  auto order = g.TopologicalOrder().value();
  auto pos = [&](const std::string& n) {
    return std::find(order.begin(), order.end(), n) - order.begin();
  };
  EXPECT_LT(pos("Age"), pos("B"));
  EXPECT_LT(pos("B"), pos("M"));
  EXPECT_LT(pos("M"), pos("Y"));
}

TEST(CausalGraphTest, CycleDetected) {
  CausalGraph g;
  g.AddEdge("A", "B");
  g.AddEdge("B", "C");
  g.AddEdge("C", "A");
  EXPECT_FALSE(g.Validate().ok());
  EXPECT_FALSE(g.TopologicalOrder().ok());
}

TEST(CausalGraphTest, CrossTupleDetection) {
  CausalGraph g = ConfounderGraph();
  EXPECT_FALSE(g.HasCrossTupleEdges());
  g.AddEdge("B", "Y", "Category");
  EXPECT_TRUE(g.HasCrossTupleEdges());
}

TEST(CausalGraphTest, DotExport) {
  CausalGraph g;
  g.AddEdge("Quality", "Price");
  g.AddEdge("Price", "Rating", "PID");
  const std::string dot = g.ToDot("fig2");
  EXPECT_NE(dot.find("digraph fig2"), std::string::npos);
  EXPECT_NE(dot.find("\"Quality\" -> \"Price\";"), std::string::npos);
  EXPECT_NE(dot.find("\"Price\" -> \"Rating\" [style=dashed, label=\"PID\"]"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// d-separation
// ---------------------------------------------------------------------------

TEST(DSeparationTest, ChainBlockedByMiddle) {
  CausalGraph g;
  g.AddEdge("A", "B");
  g.AddEdge("B", "C");
  EXPECT_FALSE(DSeparated(g, "A", "C", {}));
  EXPECT_TRUE(DSeparated(g, "A", "C", {"B"}));
}

TEST(DSeparationTest, ForkBlockedByRoot) {
  CausalGraph g;
  g.AddEdge("B", "A");
  g.AddEdge("B", "C");
  EXPECT_FALSE(DSeparated(g, "A", "C", {}));
  EXPECT_TRUE(DSeparated(g, "A", "C", {"B"}));
}

TEST(DSeparationTest, ColliderBlocksByDefault) {
  CausalGraph g;
  g.AddEdge("A", "B");
  g.AddEdge("C", "B");
  EXPECT_TRUE(DSeparated(g, "A", "C", {}));
  // Conditioning on the collider opens the path.
  EXPECT_FALSE(DSeparated(g, "A", "C", {"B"}));
}

TEST(DSeparationTest, ColliderDescendantOpensPath) {
  CausalGraph g;
  g.AddEdge("A", "B");
  g.AddEdge("C", "B");
  g.AddEdge("B", "D");
  EXPECT_TRUE(DSeparated(g, "A", "C", {}));
  EXPECT_FALSE(DSeparated(g, "A", "C", {"D"}));
}

TEST(DSeparationTest, MShapeGraph) {
  // A <- U1 -> M <- U2 -> Y: A and Y d-separated given {} and given M open.
  CausalGraph g;
  g.AddEdge("U1", "A");
  g.AddEdge("U1", "M");
  g.AddEdge("U2", "M");
  g.AddEdge("U2", "Y");
  EXPECT_TRUE(DSeparated(g, "A", "Y", {}));
  EXPECT_FALSE(DSeparated(g, "A", "Y", {"M"}));
  EXPECT_TRUE(DSeparated(g, "A", "Y", {"M", "U1"}));
  EXPECT_TRUE(DSeparated(g, "A", "Y", {"M", "U2"}));
}

TEST(DSeparationTest, DisconnectedNodesSeparated) {
  CausalGraph g;
  g.AddNode("A");
  g.AddNode("B");
  EXPECT_TRUE(DSeparated(g, "A", "B", {}));
}

// ---------------------------------------------------------------------------
// Backdoor criterion
// ---------------------------------------------------------------------------

TEST(BackdoorTest, ConfounderMustBeBlocked) {
  CausalGraph g = ConfounderGraph();
  EXPECT_FALSE(SatisfiesBackdoor(g, "B", "Y", {}));
  EXPECT_TRUE(SatisfiesBackdoor(g, "B", "Y", {"C"}));
}

TEST(BackdoorTest, DescendantOfTreatmentRejected) {
  CausalGraph g = ChainGraph();
  // M is a descendant of B: not allowed in a backdoor set.
  EXPECT_FALSE(SatisfiesBackdoor(g, "B", "Y", {"Age", "M"}));
  EXPECT_TRUE(SatisfiesBackdoor(g, "B", "Y", {"Age"}));
}

TEST(BackdoorTest, TreatmentOrOutcomeNotAllowedInSet) {
  CausalGraph g = ConfounderGraph();
  EXPECT_FALSE(SatisfiesBackdoor(g, "B", "Y", {"B"}));
  EXPECT_FALSE(SatisfiesBackdoor(g, "B", "Y", {"Y"}));
}

TEST(BackdoorTest, NoConfoundingNeedsEmptySet) {
  CausalGraph g;
  g.AddEdge("B", "Y");
  EXPECT_TRUE(SatisfiesBackdoor(g, "B", "Y", {}));
}

TEST(BackdoorTest, MinimalSetOnConfounder) {
  CausalGraph g = ConfounderGraph();
  auto set = MinimalBackdoorSet(g, "B", "Y").value();
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.count("C"));
}

TEST(BackdoorTest, MinimalSetEmptyWhenNoConfounding) {
  CausalGraph g;
  g.AddEdge("B", "M");
  g.AddEdge("M", "Y");
  auto set = MinimalBackdoorSet(g, "B", "Y").value();
  EXPECT_TRUE(set.empty());
}

TEST(BackdoorTest, MinimalSetDropsIrrelevantNodes) {
  CausalGraph g = ConfounderGraph();
  g.AddEdge("Noise1", "C");
  g.AddNode("Noise2");
  auto set = MinimalBackdoorSet(g, "B", "Y").value();
  // Conditioning on C suffices; the noise nodes must have been dropped.
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.count("C"));
}

TEST(BackdoorTest, MinimalSetWithTwoConfounders) {
  CausalGraph g;
  g.AddEdge("C1", "B");
  g.AddEdge("C1", "Y");
  g.AddEdge("C2", "B");
  g.AddEdge("C2", "Y");
  g.AddEdge("B", "Y");
  auto set = MinimalBackdoorSet(g, "B", "Y").value();
  EXPECT_EQ(set.size(), 2u);
}

TEST(BackdoorTest, UnknownNodeIsError) {
  CausalGraph g = ConfounderGraph();
  EXPECT_FALSE(MinimalBackdoorSet(g, "B", "Nope").ok());
}

// ---------------------------------------------------------------------------
// Ground graph + tuple components (Amazon database, Figures 1-3)
// ---------------------------------------------------------------------------

Database AmazonDb() {
  Database db;
  Table product(Schema("Product",
                       {{"PID", ValueType::kInt, Mutability::kImmutable},
                        {"Category", ValueType::kString, Mutability::kImmutable},
                        {"Price", ValueType::kDouble, Mutability::kMutable},
                        {"Quality", ValueType::kDouble, Mutability::kMutable}},
                       {"PID"}));
  product.AppendUnchecked({Value::Int(1), Value::String("Laptop"),
                           Value::Double(999), Value::Double(0.7)});
  product.AppendUnchecked({Value::Int(2), Value::String("Laptop"),
                           Value::Double(529), Value::Double(0.65)});
  product.AppendUnchecked({Value::Int(4), Value::String("Camera"),
                           Value::Double(549), Value::Double(0.75)});
  product.AppendUnchecked({Value::Int(5), Value::String("Book"),
                           Value::Double(15.99), Value::Double(0.4)});
  Table review(Schema("Review",
                      {{"PID", ValueType::kInt, Mutability::kImmutable},
                       {"ReviewID", ValueType::kInt, Mutability::kImmutable},
                       {"Rating", ValueType::kDouble, Mutability::kMutable}},
                      {"PID", "ReviewID"}));
  review.AppendUnchecked({Value::Int(1), Value::Int(1), Value::Double(2)});
  review.AppendUnchecked({Value::Int(2), Value::Int(2), Value::Double(4)});
  review.AppendUnchecked({Value::Int(2), Value::Int(3), Value::Double(1)});
  review.AppendUnchecked({Value::Int(4), Value::Int(5), Value::Double(4)});
  EXPECT_TRUE(db.AddTable(std::move(product)).ok());
  EXPECT_TRUE(db.AddTable(std::move(review)).ok());
  return db;
}

/// Quality -> Price (same tuple); Price -> Rating (via PID, cross relation).
CausalGraph AmazonGraph() {
  CausalGraph g;
  g.AddEdge("Quality", "Price");
  g.AddEdge("Price", "Rating", "PID");
  return g;
}

TEST(GroundGraphTest, NodesPerTuple) {
  Database db = AmazonDb();
  auto ground = GroundCausalGraph::Build(AmazonGraph(), db).value();
  // Quality and Price ground over 4 products; Rating over 4 reviews.
  EXPECT_EQ(ground.num_nodes(), 4u + 4u + 4u);
}

TEST(GroundGraphTest, IntraTupleEdgesGrounded) {
  Database db = AmazonDb();
  auto ground = GroundCausalGraph::Build(AmazonGraph(), db).value();
  // 4 Quality->Price edges; Price->Rating: p1->r0, p2->{r1,r2}, p4->r3 = 4.
  EXPECT_EQ(ground.edges().size(), 8u);
}

TEST(GroundGraphTest, ParentsOfGroundedReview) {
  Database db = AmazonDb();
  auto ground = GroundCausalGraph::Build(AmazonGraph(), db).value();
  // Review tid=1 (PID 2): parent should be Price of product tid=1.
  size_t node = ground.NodeIndex(TupleId{"Review", 1}, "Rating").value();
  const auto& parents = ground.ParentsOf(node);
  ASSERT_EQ(parents.size(), 1u);
  EXPECT_EQ(ground.nodes()[parents[0]].tuple.relation, "Product");
  EXPECT_EQ(ground.nodes()[parents[0]].tuple.tid, 1u);
  EXPECT_EQ(ground.nodes()[parents[0]].attribute, "Price");
}

TEST(GroundGraphTest, CrossTupleEdgeViaCategory) {
  Database db = AmazonDb();
  CausalGraph g = AmazonGraph();
  // Competitors' quality affects my price within a category (dashed edge).
  g.AddEdge("Quality", "Price", "Category");
  auto ground = GroundCausalGraph::Build(g, db).value();
  // Products whose Quality is a parent of product `tid`'s Price.
  auto quality_parents = [&](size_t tid) {
    std::vector<size_t> tids;
    size_t price = ground.NodeIndex(TupleId{"Product", tid}, "Price").value();
    for (size_t parent : ground.ParentsOf(price)) {
      EXPECT_EQ(ground.nodes()[parent].attribute, "Quality");
      tids.push_back(ground.nodes()[parent].tuple.tid);
    }
    std::sort(tids.begin(), tids.end());
    return tids;
  };
  // The two laptops now depend on each other; the camera only on itself.
  EXPECT_EQ(quality_parents(0), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(quality_parents(1), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(quality_parents(2), (std::vector<size_t>{2}));
}

TEST(GroundGraphTest, IntraTupleEdgeAcrossRelationsRejected) {
  Database db = AmazonDb();
  CausalGraph g;
  g.AddEdge("Price", "Rating");  // spans relations without a link
  EXPECT_FALSE(GroundCausalGraph::Build(g, db).ok());
}

TEST(TupleComponentsTest, BlocksFollowKeyLinks) {
  Database db = AmazonDb();
  auto blocks = TupleComponents::Build(AmazonGraph(), db).value();
  // Each product forms a block with its reviews: p1+r0, p2+r1+r2, p4+r3,
  // p5 alone -> 4 blocks.
  EXPECT_EQ(blocks.num_blocks(), 4u);
  EXPECT_EQ(blocks.BlockOf(TupleId{"Product", 1}).value(),
            blocks.BlockOf(TupleId{"Review", 1}).value());
  EXPECT_EQ(blocks.BlockOf(TupleId{"Review", 1}).value(),
            blocks.BlockOf(TupleId{"Review", 2}).value());
  EXPECT_NE(blocks.BlockOf(TupleId{"Product", 0}).value(),
            blocks.BlockOf(TupleId{"Product", 1}).value());
}

TEST(TupleComponentsTest, CategoryEdgeMergesLaptops) {
  // Example 7's decomposition: laptops merge into one block.
  Database db = AmazonDb();
  CausalGraph g = AmazonGraph();
  g.AddEdge("Quality", "Price", "Category");
  auto blocks = TupleComponents::Build(g, db).value();
  // Blocks: {laptops + their reviews}, {camera + review}, {book} -> 3.
  EXPECT_EQ(blocks.num_blocks(), 3u);
  EXPECT_EQ(blocks.BlockOf(TupleId{"Product", 0}).value(),
            blocks.BlockOf(TupleId{"Product", 1}).value());
}

TEST(TupleComponentsTest, NoEdgesMeansSingletonBlocks) {
  Database db = AmazonDb();
  CausalGraph g;
  g.AddEdge("Quality", "Price");  // intra-tuple only
  auto blocks = TupleComponents::Build(g, db).value();
  EXPECT_EQ(blocks.num_blocks(), db.TotalRows());
}

// ---------------------------------------------------------------------------
// Scm
// ---------------------------------------------------------------------------

/// Binary confounder model: C ~ Bern(0.5); B ~ Bern(0.8 if C else 0.2);
/// Y ~ Bern(0.9 if B&&C, 0.6 if B, 0.3 if C, 0.1 else).
Scm BinaryConfounderScm() {
  Scm scm;
  auto bern = [](auto prob_fn) {
    return std::make_unique<DiscreteMechanism>(
        std::vector<Value>{Value::Int(0), Value::Int(1)},
        [prob_fn](const std::vector<Value>& ps) {
          double p = prob_fn(ps);
          return std::vector<double>{1.0 - p, p};
        });
  };
  EXPECT_TRUE(scm.AddAttribute("C", {},
                               bern([](const std::vector<Value>&) {
                                 return 0.5;
                               }))
                  .ok());
  EXPECT_TRUE(scm.AddAttribute("B", {{"C", ""}},
                               bern([](const std::vector<Value>& ps) {
                                 return ps[0].int_value() ? 0.8 : 0.2;
                               }))
                  .ok());
  EXPECT_TRUE(scm.AddAttribute("Y", {{"B", ""}, {"C", ""}},
                               bern([](const std::vector<Value>& ps) {
                                 bool b = ps[0].int_value();
                                 bool c = ps[1].int_value();
                                 if (b && c) return 0.9;
                                 if (b) return 0.6;
                                 if (c) return 0.3;
                                 return 0.1;
                               }))
                  .ok());
  return scm;
}

TEST(ScmTest, ParentsMustBeDeclaredFirst) {
  Scm scm;
  auto mech = std::make_unique<DeterministicMechanism>(
      [](const std::vector<Value>&) { return Value::Int(0); });
  EXPECT_EQ(scm.AddAttribute("Y", {{"X", ""}}, std::move(mech)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ScmTest, DuplicateAttributeRejected) {
  Scm scm = BinaryConfounderScm();
  auto mech = std::make_unique<DeterministicMechanism>(
      [](const std::vector<Value>&) { return Value::Int(0); });
  EXPECT_EQ(scm.AddAttribute("C", {}, std::move(mech)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ScmTest, GraphReflectsParents) {
  Scm scm = BinaryConfounderScm();
  CausalGraph g = scm.Graph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_TRUE(SatisfiesBackdoor(g, "B", "Y", {"C"}));
}

TEST(ScmTest, SampleEntityMatchesMarginals) {
  Scm scm = BinaryConfounderScm();
  Rng rng(5);
  int c1 = 0, b1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Assignment a = scm.SampleEntity(rng).value();
    c1 += a.at("C").int_value();
    b1 += a.at("B").int_value();
  }
  EXPECT_NEAR(c1 / double(n), 0.5, 0.02);
  // P(B=1) = 0.5*0.8 + 0.5*0.2 = 0.5.
  EXPECT_NEAR(b1 / double(n), 0.5, 0.02);
}

TEST(ScmTest, InterventionalWorldsExact) {
  Scm scm = BinaryConfounderScm();
  // Observed entity: C=1, B=0, Y=0. Intervene B:=1.
  Assignment observed{{"C", Value::Int(1)},
                      {"B", Value::Int(0)},
                      {"Y", Value::Int(0)}};
  Assignment update{{"B", Value::Int(1)}};
  auto worlds = scm.InterventionalWorlds(observed, update).value();
  // Y is the only affected attribute: two worlds.
  ASSERT_EQ(worlds.size(), 2u);
  double total = 0, p_y1 = 0;
  for (const auto& [state, prob] : worlds) {
    EXPECT_TRUE(state.at("C").Equals(Value::Int(1)));  // held fixed
    EXPECT_TRUE(state.at("B").Equals(Value::Int(1)));  // intervened
    total += prob;
    if (state.at("Y").int_value() == 1) p_y1 += prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // do(B=1), C=1 -> P(Y=1) = 0.9.
  EXPECT_NEAR(p_y1, 0.9, 1e-12);
}

TEST(ScmTest, InterventionOnRootAffectsWholeChain) {
  Scm scm = BinaryConfounderScm();
  Assignment observed{{"C", Value::Int(0)},
                      {"B", Value::Int(0)},
                      {"Y", Value::Int(0)}};
  auto worlds =
      scm.InterventionalWorlds(observed, {{"C", Value::Int(1)}}).value();
  // B and Y both resample: 4 worlds.
  ASSERT_EQ(worlds.size(), 4u);
  double p_y1 = 0;
  for (const auto& [state, prob] : worlds) {
    if (state.at("Y").int_value() == 1) p_y1 += prob;
  }
  // P(Y=1 | do(C=1)) = 0.8*0.9 + 0.2*0.3 = 0.78.
  EXPECT_NEAR(p_y1, 0.78, 1e-12);
}

TEST(ScmTest, InterventionalMeanMatchesExact) {
  Scm scm = BinaryConfounderScm();
  Assignment observed{{"C", Value::Int(1)},
                      {"B", Value::Int(0)},
                      {"Y", Value::Int(0)}};
  Rng rng(7);
  double mean = scm.InterventionalMean(observed, {{"B", Value::Int(1)}}, "Y",
                                       20000, rng)
                    .value();
  EXPECT_NEAR(mean, 0.9, 0.01);
}

TEST(ScmTest, LinearGaussianSampling) {
  Scm scm;
  ASSERT_TRUE(scm.AddAttribute("X", {},
                               std::make_unique<LinearGaussianMechanism>(
                                   std::vector<double>{}, 2.0, 0.0))
                  .ok());
  ASSERT_TRUE(scm.AddAttribute("Y", {{"X", ""}},
                               std::make_unique<LinearGaussianMechanism>(
                                   std::vector<double>{3.0}, 1.0, 0.0))
                  .ok());
  Rng rng(1);
  Assignment a = scm.SampleEntity(rng).value();
  EXPECT_DOUBLE_EQ(a.at("X").double_value(), 2.0);
  EXPECT_DOUBLE_EQ(a.at("Y").double_value(), 7.0);  // 3*2+1
}

TEST(ScmTest, ExactEnumerationRejectsContinuous) {
  Scm scm;
  ASSERT_TRUE(scm.AddAttribute("X", {},
                               std::make_unique<LinearGaussianMechanism>(
                                   std::vector<double>{}, 0.0, 1.0))
                  .ok());
  ASSERT_TRUE(scm.AddAttribute("Y", {{"X", ""}},
                               std::make_unique<LinearGaussianMechanism>(
                                   std::vector<double>{1.0}, 0.0, 1.0))
                  .ok());
  Assignment observed{{"X", Value::Double(0)}, {"Y", Value::Double(0)}};
  EXPECT_EQ(scm.InterventionalWorlds(observed, {{"X", Value::Double(1)}})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// GroundScm possible-world enumeration
// ---------------------------------------------------------------------------

TEST(GroundScmTest, SingleTupleWorlds) {
  // One-relation database with the binary confounder model, one tuple.
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"C", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  t.AppendUnchecked(
      {Value::Int(0), Value::Int(1), Value::Int(0), Value::Int(0)});
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());

  Scm scm = BinaryConfounderScm();
  auto ground = GroundScm::Build(&scm, &db).value();
  auto worlds =
      ground
          .PostUpdateWorlds({{TupleId{"R", 0}, "B", Value::Int(1)}})
          .value();
  ASSERT_EQ(worlds.size(), 2u);
  double p_y1 = 0, total = 0;
  for (const auto& w : worlds) {
    const Table& table = *w.db.GetTable("R").value();
    total += w.prob;
    if (table.At(0, 3).int_value() == 1) p_y1 += w.prob;
    EXPECT_EQ(table.At(0, 2).int_value(), 1);  // B intervened everywhere
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(p_y1, 0.9, 1e-12);
}

TEST(GroundScmTest, UpdatePropagatesAcrossRelations) {
  // Product.Price in {0,1} affects Review.Rating in {0,1} via PID.
  Database db;
  Table product(Schema("Product",
                       {{"PID", ValueType::kInt, Mutability::kImmutable},
                        {"Price", ValueType::kInt, Mutability::kMutable}},
                       {"PID"}));
  product.AppendUnchecked({Value::Int(1), Value::Int(0)});
  Table review(Schema("Review",
                      {{"PID", ValueType::kInt, Mutability::kImmutable},
                       {"RID", ValueType::kInt, Mutability::kImmutable},
                       {"Rating", ValueType::kInt, Mutability::kMutable}},
                      {"PID", "RID"}));
  review.AppendUnchecked({Value::Int(1), Value::Int(1), Value::Int(1)});
  review.AppendUnchecked({Value::Int(1), Value::Int(2), Value::Int(1)});
  ASSERT_TRUE(db.AddTable(std::move(product)).ok());
  ASSERT_TRUE(db.AddTable(std::move(review)).ok());

  Scm scm;
  ASSERT_TRUE(scm.AddAttribute("Price", {},
                               std::make_unique<DiscreteMechanism>(
                                   std::vector<Value>{Value::Int(0),
                                                      Value::Int(1)},
                                   [](const std::vector<Value>&) {
                                     return std::vector<double>{0.5, 0.5};
                                   }))
                  .ok());
  // High price -> rating 1 w.p. 0.25; low price -> w.p. 0.75.
  ASSERT_TRUE(scm.AddAttribute("Rating", {{"Price", "PID"}},
                               std::make_unique<DiscreteMechanism>(
                                   std::vector<Value>{Value::Int(0),
                                                      Value::Int(1)},
                                   [](const std::vector<Value>& ps) {
                                     double p =
                                         ps[0].AsDouble().value() > 0.5
                                             ? 0.25
                                             : 0.75;
                                     return std::vector<double>{1 - p, p};
                                   }))
                  .ok());

  auto ground = GroundScm::Build(&scm, &db).value();
  auto worlds =
      ground
          .PostUpdateWorlds({{TupleId{"Product", 0}, "Price", Value::Int(1)}})
          .value();
  // Two reviews re-randomize: 4 worlds.
  ASSERT_EQ(worlds.size(), 4u);
  double expected_avg = 0;
  for (const auto& w : worlds) {
    const Table& r = *w.db.GetTable("Review").value();
    double avg =
        (r.At(0, 2).AsDouble().value() + r.At(1, 2).AsDouble().value()) / 2;
    expected_avg += avg * w.prob;
  }
  // E[rating] per review after do(Price=1) is 0.25.
  EXPECT_NEAR(expected_avg, 0.25, 1e-12);
}

TEST(GroundScmTest, UnaffectedTuplesKeepValues) {
  Database db;
  Table t(Schema("R",
                 {{"Id", ValueType::kInt, Mutability::kImmutable},
                  {"C", ValueType::kInt, Mutability::kMutable},
                  {"B", ValueType::kInt, Mutability::kMutable},
                  {"Y", ValueType::kInt, Mutability::kMutable}},
                 {"Id"}));
  t.AppendUnchecked(
      {Value::Int(0), Value::Int(1), Value::Int(0), Value::Int(0)});
  t.AppendUnchecked(
      {Value::Int(1), Value::Int(0), Value::Int(1), Value::Int(1)});
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  Scm scm = BinaryConfounderScm();
  auto ground = GroundScm::Build(&scm, &db).value();
  auto worlds =
      ground
          .PostUpdateWorlds({{TupleId{"R", 0}, "B", Value::Int(1)}})
          .value();
  for (const auto& w : worlds) {
    const Table& table = *w.db.GetTable("R").value();
    // Tuple 1 is untouched in every world (tuple independence).
    EXPECT_EQ(table.At(1, 1).int_value(), 0);
    EXPECT_EQ(table.At(1, 2).int_value(), 1);
    EXPECT_EQ(table.At(1, 3).int_value(), 1);
  }
}

}  // namespace
}  // namespace hyper::causal
