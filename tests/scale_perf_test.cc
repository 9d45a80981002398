#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/simd.h"
#include "data/datasets.h"
#include "relational/compiled.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "storage/column.h"
#include "whatif/engine.h"

namespace hyper {
namespace {

// ---------------------------------------------------------------------------
// 100k-row perf-smoke gates: bit-equality contracts only, no timing
// assertions (timings would flake under sanitizers and loaded CI hosts).
// 100k rows spans two 64k column segments, so the kernel paths cross a
// segment boundary and the what-if paths exercise the segment-partitioned
// override/patch machinery; the kernel gate also runs on a 10k-row,
// one-segment table.
// ---------------------------------------------------------------------------

constexpr size_t kRows = 100000;

/// Restores the process-wide SIMD force-scalar flag the tests flip.
class ScopedForceScalar {
 public:
  ScopedForceScalar() : saved_(simd::ForceScalar()) {}
  ~ScopedForceScalar() { simd::SetForceScalar(saved_); }

 private:
  bool saved_;
};

data::Dataset MakeGerman(size_t rows = kRows) {
  data::GermanOptions gopt;
  gopt.rows = rows;
  auto ds = data::MakeGermanSyn(gopt);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return std::move(ds).value();
}

// The reference runs the SIMD kernels forced to their scalar mirror on one
// thread. Default-level SIMD at any thread budget must reproduce its bits:
// a divergence is a correctness bug, not a perf regression.
TEST(ScalePerfTest, WhatIfScalarVsSimdBitEqualAt100k) {
  ScopedForceScalar restore;
  auto ds = MakeGerman();
  auto stmt = sql::ParseSql(
      "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_NE(stmt->whatif, nullptr);

  const auto run = [&](bool force_scalar, size_t threads) {
    whatif::WhatIfOptions options;
    options.estimator = learn::EstimatorKind::kFrequency;
    options.num_threads = threads;
    simd::SetForceScalar(force_scalar);
    whatif::WhatIfEngine engine(&ds.db, &ds.graph, options);
    auto result = engine.Run(*stmt->whatif);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->value : 0.0;
  };

  const double scalar = run(/*force_scalar=*/true, /*threads=*/1);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const double value = run(/*force_scalar=*/false, threads);
    uint64_t got = 0, want = 0;
    std::memcpy(&got, &value, sizeof(got));
    std::memcpy(&want, &scalar, sizeof(want));
    ASSERT_EQ(got, want) << "threads=" << threads;
  }
}

// Kernel-vs-per-row equality for the two expression kernels the engine leans
// on (When-mask and double projection): the per-row evaluator, the kernel
// forced to its scalar mirror and the SIMD kernel must agree byte for byte
// on a `rows`-row table of `segments` column segments.
void ExpectExpressionKernelsMatchPerRow(size_t rows, size_t segments) {
  ScopedForceScalar restore;
  auto ds = MakeGerman(rows);
  const Table& t = *ds.db.GetTable("German").value();
  auto ct_or = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct_or.ok()) << ct_or.status();
  const ColumnTable& ct = *ct_or;
  ASSERT_EQ(ct.num_segments(), segments);

  const Schema& schema = t.schema();
  const std::vector<relational::ScopedTuple> scope{
      relational::ScopedTuple{schema.relation_name(), &schema}};

  {
    auto pred = sql::MakeBinary(
        sql::BinaryOp::kAnd,
        sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", "Status"),
                        sql::MakeLiteral(Value::Int(1))),
        sql::MakeBinary(sql::BinaryOp::kGe, sql::MakeColumnRef("", "Age"),
                        sql::MakeLiteral(Value::Int(1))));
    auto compiled = relational::CompiledExpr::Compile(*pred, scope);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto bound = relational::ColumnBoundExpr::Bind(*compiled, ct);
    ASSERT_TRUE(bound.ok()) << bound.status();

    std::vector<uint8_t> per_row(rows);
    for (size_t r = 0; r < rows; ++r) {
      auto b = bound->EvalBool(r);
      ASSERT_TRUE(b.ok()) << b.status();
      per_row[r] = *b ? 1 : 0;
    }
    for (bool force : {true, false}) {
      simd::SetForceScalar(force);
      std::vector<uint8_t> mask;
      ASSERT_TRUE(bound->TryMaskKernel(&mask, /*max_threads=*/0)) << "force=" << force;
      ASSERT_EQ(mask.size(), rows);
      ASSERT_EQ(std::memcmp(mask.data(), per_row.data(), rows), 0)
          << "force=" << force;
    }
  }

  {
    auto expr = sql::MakeBinary(
        sql::BinaryOp::kAdd, sql::MakeColumnRef("", "CreditAmount"),
        sql::MakeBinary(sql::BinaryOp::kMul, sql::MakeLiteral(Value::Int(2)),
                        sql::MakeColumnRef("", "Age")));
    auto compiled = relational::CompiledExpr::Compile(*expr, scope);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto bound = relational::ColumnBoundExpr::Bind(*compiled, ct);
    ASSERT_TRUE(bound.ok()) << bound.status();

    std::vector<double> per_row(rows);
    for (size_t r = 0; r < rows; ++r) {
      auto v = bound->Eval(r);
      ASSERT_TRUE(v.ok()) << v.status();
      auto d = v->AsDouble();
      ASSERT_TRUE(d.ok()) << d.status();
      per_row[r] = *d;
    }
    for (bool force : {true, false}) {
      simd::SetForceScalar(force);
      std::vector<double> vals;
      std::vector<uint8_t> err;
      ASSERT_TRUE(bound->TryEvalDoubleKernel(&vals, &err, /*max_threads=*/0))
          << "force=" << force;
      ASSERT_EQ(vals.size(), rows);
      for (size_t r = 0; r < rows; ++r) ASSERT_EQ(err[r], 0) << r;
      ASSERT_EQ(std::memcmp(vals.data(), per_row.data(),
                            rows * sizeof(double)),
                0)
          << "force=" << force;
    }
  }
}

TEST(ScalePerfTest, ExpressionKernelsMatchPerRowAt100k) {
  ExpectExpressionKernelsMatchPerRow(kRows, /*segments=*/2);
}

TEST(ScalePerfTest, ExpressionKernelsMatchPerRowAt10k) {
  ExpectExpressionKernelsMatchPerRow(10000, /*segments=*/1);
}

}  // namespace
}  // namespace hyper
