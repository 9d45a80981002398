#ifndef HYPER_DATA_DATASETS_H_
#define HYPER_DATA_DATASETS_H_

#include <cstdint>
#include <string>

#include "causal/graph.h"
#include "causal/scm.h"
#include "common/status.h"
#include "storage/database.h"

namespace hyper::data {

/// A synthetic dataset bundle: the relational database HypeR queries, a
/// flattened single-relation image for exact ground-truth evaluation, the
/// entity-level SCM that generated it, and the attribute-level causal graph
/// (with cross-relation links) handed to the engine.
///
/// All five paper datasets (§5.1) are generated from SCMs that follow the
/// causal graphs the paper cites (Chiappa 2019 for Adult/German; the paper's
/// own Figure 2 for Amazon); see FIDELITY.md §1 for the substitution rationale.
struct Dataset {
  std::string name;
  /// Relational form: what the engine queries (may be multi-relation).
  Database db;
  /// Flattened single-relation form for per-tuple ground truth; equals the
  /// main relation for single-table datasets. For Student-Syn it is the
  /// participation rows joined with their student attributes (averaging the
  /// flat rows equals averaging per-student course averages because every
  /// student takes the same number of courses).
  Database flat;
  std::string flat_relation;
  /// Entity-level SCM over the flat schema (exact interventionals).
  causal::Scm scm;
  /// Attribute-level causal graph for the engine (relational links included).
  causal::CausalGraph graph;
  /// Relation carrying the usual update attributes.
  std::string main_relation;
};

// ---------------------------------------------------------------------------
// German credit (synthetic; graph follows Chiappa 2019 as cited by §5.1)
// ---------------------------------------------------------------------------

struct GermanOptions {
  size_t rows = 1000;
  uint64_t seed = 11;
  /// Continuous CreditAmount (root attribute) — the Figure 9 discretization
  /// experiment uses this variant.
  bool continuous_amount = false;
};

/// Attributes: Age{0,1,2}, Sex{0,1} (roots); Status{0..3}, Savings{0..2},
/// Housing{0..2}, CreditHistory{0..2}, CreditAmount{0..3 or continuous};
/// Credit{0,1}. Age confounds Status and Credit, so the correlational
/// Indep baseline over-estimates the effect of Status (Figure 10a).
Result<Dataset> MakeGermanSyn(const GermanOptions& options);

// ---------------------------------------------------------------------------
// Adult income (synthetic)
// ---------------------------------------------------------------------------

struct AdultOptions {
  size_t rows = 32000;
  uint64_t seed = 13;
};

/// Attributes: Age{0,1,2}, Sex{0,1} (roots); Education{0..3},
/// Marital{0,1,2}, Occupation{0..3}, Hours{0..2}, Workclass{0..2};
/// Income{0,1}. Marital status carries the dominant effect on income —
/// the §5.3 observation (38% vs <9%) is baked into the mechanism.
Result<Dataset> MakeAdultSyn(const AdultOptions& options);

// ---------------------------------------------------------------------------
// Amazon products + reviews (two relations; Figures 1-2)
// ---------------------------------------------------------------------------

struct AmazonOptions {
  size_t products = 3000;
  /// Expected reviews per product (uniform 1..2x-1).
  size_t reviews_per_product = 18;
  uint64_t seed = 17;
};

/// Product(PID, Category, Brand, Color, Quality, Price) and
/// Review(PID, ReviewID, Sentiment, Rating). Quality raises price and
/// ratings; price depresses ratings (cheaper laptops rate better, §5.3);
/// Apple's brand quality prior is highest. The flat form joins each review
/// with its product attributes.
Result<Dataset> MakeAmazonSyn(const AmazonOptions& options);

// ---------------------------------------------------------------------------
// Student participation (two relations, 5 courses per student; §5.1)
// ---------------------------------------------------------------------------

struct StudentOptions {
  size_t students = 2000;
  size_t courses_per_student = 5;
  uint64_t seed = 19;
};

/// Student(SID, Age, Gender, Country, Attendance) and
/// Participation(SID, CourseID, HandRaised, Discussion, Announcements,
/// Assignment, Grade). Attendance has the largest *total* effect on grades
/// (direct plus through discussion/announcements), matching §5.4.
Result<Dataset> MakeStudentSyn(const StudentOptions& options);

// ---------------------------------------------------------------------------
// Registry (bench harnesses look datasets up by paper name)
// ---------------------------------------------------------------------------

/// Names: "german", "german-syn-20k", "german-syn-1m", "german-syn-10m"
/// (scaled by `scale` in [0,1] to keep default bench runs fast), "adult",
/// "amazon", "student-syn".
Result<Dataset> MakeByName(const std::string& name, double scale = 1.0,
                           uint64_t seed = 23);

}  // namespace hyper::data

#endif  // HYPER_DATA_DATASETS_H_
