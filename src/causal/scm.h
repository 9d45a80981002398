#ifndef HYPER_CAUSAL_SCM_H_
#define HYPER_CAUSAL_SCM_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/graph.h"
#include "causal/ground.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/database.h"

namespace hyper::causal {

/// A (partial) assignment of attribute values; ordered map for determinism.
using Assignment = std::map<std::string, Value>;

/// A structural mechanism: the conditional distribution of one attribute
/// given its (summarized) parents. The paper's structural equations with
/// unobserved noise (§2.2) reduce, for query evaluation, to the conditional
/// distributions Pr(A | psi(Pa(A))); mechanisms model exactly that.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// True when Distribution() is available (finite outcome set).
  virtual bool is_discrete() const = 0;

  /// The full conditional distribution given parent values. Only valid for
  /// discrete mechanisms. Probabilities sum to 1.
  virtual Result<std::vector<std::pair<Value, double>>> Distribution(
      const std::vector<Value>& parents) const = 0;

  /// Draws one value given parent values.
  virtual Result<Value> Sample(const std::vector<Value>& parents,
                               Rng& rng) const = 0;
};

/// Discrete mechanism: a fixed outcome list whose (unnormalized) weights are
/// an arbitrary function of the parent values. Subsumes CPTs, logistic-style
/// dependencies, and noisy thresholds.
class DiscreteMechanism : public Mechanism {
 public:
  using WeightFn =
      std::function<std::vector<double>(const std::vector<Value>&)>;

  DiscreteMechanism(std::vector<Value> outcomes, WeightFn weights)
      : outcomes_(std::move(outcomes)), weights_(std::move(weights)) {}

  bool is_discrete() const override { return true; }
  Result<std::vector<std::pair<Value, double>>> Distribution(
      const std::vector<Value>& parents) const override;
  Result<Value> Sample(const std::vector<Value>& parents,
                       Rng& rng) const override;

 private:
  std::vector<Value> outcomes_;
  WeightFn weights_;
};

/// Continuous mechanism: value = bias + sum_i weight_i * parent_i + noise,
/// noise ~ N(0, stddev^2). Sampling only (no exact enumeration).
class LinearGaussianMechanism : public Mechanism {
 public:
  LinearGaussianMechanism(std::vector<double> weights, double bias,
                          double noise_stddev)
      : weights_(std::move(weights)), bias_(bias), stddev_(noise_stddev) {}

  bool is_discrete() const override { return false; }
  Result<std::vector<std::pair<Value, double>>> Distribution(
      const std::vector<Value>& parents) const override;
  Result<Value> Sample(const std::vector<Value>& parents,
                       Rng& rng) const override;

 private:
  std::vector<double> weights_;
  double bias_;
  double stddev_;
};

/// Deterministic mechanism: value = fn(parents). Discrete with one outcome.
class DeterministicMechanism : public Mechanism {
 public:
  using Fn = std::function<Value(const std::vector<Value>&)>;
  explicit DeterministicMechanism(Fn fn) : fn_(std::move(fn)) {}

  bool is_discrete() const override { return true; }
  Result<std::vector<std::pair<Value, double>>> Distribution(
      const std::vector<Value>& parents) const override {
    return std::vector<std::pair<Value, double>>{{fn_(parents), 1.0}};
  }
  Result<Value> Sample(const std::vector<Value>& parents, Rng&) const override {
    return fn_(parents);
  }

 private:
  Fn fn_;
};

/// Reference to a parent attribute. An empty link means the parent lives in
/// the same tuple; a non-empty link L means the parent values are gathered
/// from all tuples agreeing on L and summarized by psi (the paper's
/// distribution-preserving summary function, §2.2 — implemented as the mean
/// for numeric parents, identity for a single parent).
struct ParentRef {
  std::string attribute;
  std::string link;  // empty = same tuple
};

/// An attribute-level structural causal model. Serves three roles:
///  1. ground truth for the synthetic datasets (sampling),
///  2. exact interventional distributions for single entities
///     (Opt-HowTo / solution-quality baselines),
///  3. source of the attribute-level CausalGraph handed to HypeR.
class Scm {
 public:
  Scm() = default;

  /// Declares attribute `name` with the given parents and mechanism.
  /// Attributes must be added parents-first (insertion order is taken as the
  /// topological order and validated).
  Status AddAttribute(const std::string& name, std::vector<ParentRef> parents,
                      std::unique_ptr<Mechanism> mechanism);

  const std::vector<std::string>& attributes() const { return order_; }
  const std::vector<ParentRef>& ParentsOf(const std::string& name) const;
  const Mechanism& MechanismOf(const std::string& name) const;

  /// The induced attribute-level causal graph (edges carry parent links).
  CausalGraph Graph() const;

  /// Samples a full entity (all attributes, same-tuple parents only; for
  /// SCMs with cross-tuple links, use GroundScm / the dataset generators).
  Result<Assignment> SampleEntity(Rng& rng) const;

  /// Compiled flat sampler over this SCM's attributes; see EntitySampler.
  /// The Scm must outlive the sampler (it borrows the mechanisms).
  class EntitySampler;
  Result<EntitySampler> CompileEntitySampler() const;

  /// Exact interventional distribution for a single entity: holds the
  /// observed values of non-descendants fixed, sets `interventions`, and
  /// enumerates the joint distribution of all affected attributes (the
  /// descendants of the intervened ones). Requires discrete mechanisms on
  /// the affected attributes. Returned assignments contain the full entity
  /// state (observed + intervened + resampled); probabilities sum to 1.
  Result<std::vector<std::pair<Assignment, double>>> InterventionalWorlds(
      const Assignment& observed, const Assignment& interventions) const;

  /// Monte-Carlo version of InterventionalWorlds for continuous mechanisms:
  /// returns the expected value of `target` after the intervention,
  /// averaging `samples` draws.
  // lint:allow(unreferenced): oracle — the Monte-Carlo do() expectation
  // for continuous mechanisms, which InterventionalWorlds cannot enumerate.
  Result<double> InterventionalMean(const Assignment& observed,
                                    const Assignment& interventions,
                                    const std::string& target, size_t samples,
                                    Rng& rng) const;

 private:
  struct Node {
    std::vector<ParentRef> parents;
    std::unique_ptr<Mechanism> mechanism;
  };

  /// Attributes affected by intervening on `targets`: their descendants
  /// (excluding the targets themselves), in topological order.
  std::vector<std::string> AffectedInOrder(
      const std::vector<std::string>& targets) const;

  Result<std::vector<Value>> GatherParents(const std::string& attr,
                                           const Assignment& state) const;

  std::map<std::string, Node> nodes_;
  std::vector<std::string> order_;  // insertion order == topological order
};

/// Flat-entity sampler for the million-row dataset generators: attribute
/// positions and parent indices are resolved once at compile time, so
/// per-entity sampling does no name lookups and builds no Assignment maps.
/// Mechanisms are invoked in the same topological order with the same parent
/// values as SampleEntity, so both paths consume the identical RNG stream
/// and generate identical data.
class Scm::EntitySampler {
 public:
  /// Position of `name` in the sampled vector (the Scm's attributes()
  /// order); num_attributes() when unknown.
  size_t IndexOf(const std::string& name) const;

  size_t num_attributes() const { return steps_.size(); }

  /// Samples one entity into `out`, resized to num_attributes() (slot i is
  /// attributes()[i]); the vector's capacity is reused across calls.
  Status Sample(Rng& rng, std::vector<Value>* out) const;

 private:
  friend class Scm;
  struct Step {
    const Mechanism* mechanism = nullptr;
    std::vector<size_t> parents;  // positions of parent values in `out`
  };
  std::vector<Step> steps_;
  std::vector<std::string> names_;  // parallel to steps_
};

/// One intervention on a ground variable.
struct GroundIntervention {
  TupleId tuple;
  std::string attribute;
  Value value;
};

/// A possible world of the database with its post-update probability
/// (Definitions 1 and 3).
struct PossibleWorld {
  Database db;
  double prob = 1.0;
};

/// The grounded SCM over a concrete database: mechanisms applied per tuple,
/// with cross-tuple parents summarized by psi (mean). This is the machinery
/// behind the *exact* possible-world oracle used to validate the efficient
/// engine (Definition 5) — exponential in the number of affected ground
/// variables, so only for small instances.
class GroundScm {
 public:
  static Result<GroundScm> Build(const Scm* scm, const Database* db);

  /// Enumerates the post-update distribution over possible worlds after the
  /// interventions: non-affected variables keep their observed values,
  /// affected ones (ground descendants of the intervened variables) are
  /// jointly re-randomized per the mechanisms in topological order.
  Result<std::vector<PossibleWorld>> PostUpdateWorlds(
      const std::vector<GroundIntervention>& interventions) const;

 private:
  const Scm* scm_ = nullptr;
  const Database* db_ = nullptr;
  GroundCausalGraph ground_;
  std::vector<size_t> topo_;  // ground node indices in topological order
};

}  // namespace hyper::causal

#endif  // HYPER_CAUSAL_SCM_H_
