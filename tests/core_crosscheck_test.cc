#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/core/fallback.h"
#include "src/core/monte_carlo.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

/// Cross-check verification harness (the repo's ground-truth gate): random
/// small query/instance pairs conditioned on the paper's classes — 2WP
/// instances (Prop. 4.11), DWT instances (Prop. 4.10/3.6), polytree
/// instances (Props. 5.4/5.5), and a #P-hard cell (Prop. 3.3) — each
/// checked for EXACT agreement between the dispatcher, every applicable
/// forced polynomial-time engine, the match-lineage solver, and brute-force
/// world enumeration, plus a statistical agreement check against Monte
/// Carlo. All seeds are fixed; every case is reproducible. The corpus
/// generators live in tests/test_util.h and are shared with the numeric
/// backend agreement suite.

namespace phom {
namespace {

using test_util::CellClass;
using test_util::kCrosscheckSeedBase;
using test_util::MakeCrosscheckCase;
using test_util::ToString;

constexpr int kCasesPerClass = 220;

class CrosscheckTest : public ::testing::TestWithParam<CellClass> {};

/// Exact agreement: dispatcher == brute-force world enumeration, and every
/// forced polynomial-time engine that accepts the problem agrees bit-exactly.
TEST_P(CrosscheckTest, SolverAgreesWithWorldEnumeration) {
  CellClass cell = GetParam();
  Rng rng(kCrosscheckSeedBase + static_cast<uint64_t>(cell));
  Solver solver;
  for (int trial = 0; trial < kCasesPerClass; ++trial) {
    test_util::CrosscheckCase c = MakeCrosscheckCase(cell, &rng);
    Result<SolveResult> fast = solver.Solve(c.query, c.instance);
    ASSERT_TRUE(fast.ok())
        << ToString(cell) << " trial " << trial << ": "
        << fast.status().ToString();
    EXPECT_EQ(fast->analysis.tractable, c.expect_tractable)
        << ToString(cell) << " trial " << trial << " dispatched to "
        << ToString(fast->analysis.algorithm);

    Result<Rational> oracle = SolveByWorldEnumeration(c.query, c.instance);
    ASSERT_TRUE(oracle.ok()) << ToString(cell) << " trial " << trial;
    EXPECT_EQ(fast->probability, *oracle)
        << ToString(cell) << " trial " << trial << " cell "
        << fast->analysis.cell << " algo "
        << ToString(fast->analysis.algorithm);

    // Every forced polynomial-time engine that accepts this problem must
    // reproduce the oracle exactly; rejections are fine (the engine's
    // preconditions just do not hold for this case).
    for (const char* engine :
         {"connected-on-2wp", "path-on-dwt", "unlabeled-dwt-instance",
          "unlabeled-polytree"}) {
      SolveOptions force;
      force.force_engine = engine;
      Result<Rational> forced = SolveProbability(c.query, c.instance, force);
      if (forced.ok()) {
        EXPECT_EQ(*forced, *oracle)
            << ToString(cell) << " trial " << trial << " forced engine "
            << engine;
      }
    }

    // Same through the registry's name-based selection: the lineage+Shannon
    // DWT route is an independent engine now.
    {
      SolveOptions force;
      force.force_engine = "dwt-lineage-shannon";
      Result<Rational> forced = SolveProbability(c.query, c.instance, force);
      if (forced.ok()) {
        EXPECT_EQ(*forced, *oracle)
            << ToString(cell) << " trial " << trial << " dwt-lineage-shannon";
      }
    }

    // The match-lineage exponential solver is an independent second oracle
    // for connected queries.
    if (Classify(c.query).num_components == 1 && c.query.num_edges() > 0) {
      Result<Rational> lineage = SolveByMatchLineage(c.query, c.instance);
      ASSERT_TRUE(lineage.ok()) << ToString(cell) << " trial " << trial;
      EXPECT_EQ(*lineage, *oracle) << ToString(cell) << " trial " << trial;
    }
  }
}

/// Statistical agreement: Monte Carlo estimates land within a 5-sigma-ish
/// band of the exact answer on a handful of cases per class — both through
/// the direct estimator API and through the registered "monte-carlo" engine.
TEST_P(CrosscheckTest, MonteCarloAgreesStatistically) {
  CellClass cell = GetParam();
  Rng rng(kCrosscheckSeedBase + 1000 + static_cast<uint64_t>(cell));
  for (int trial = 0; trial < 8; ++trial) {
    test_util::CrosscheckCase c = MakeCrosscheckCase(cell, &rng);
    Result<Rational> exact_r = SolveProbability(c.query, c.instance);
    ASSERT_TRUE(exact_r.ok())
        << ToString(cell) << " trial " << trial << ": "
        << exact_r.status().ToString();
    double exact = exact_r->ToDouble();
    MonteCarloOptions options;
    options.samples = 20'000;
    Result<MonteCarloEstimate> e = EstimateProbabilityMonteCarlo(
        c.query, c.instance, kCrosscheckSeedBase + trial, options);
    ASSERT_TRUE(e.ok()) << ToString(cell) << " trial " << trial;
    // half_width_95 is ~2 sigma; 2.5x that plus an absolute floor for the
    // p≈0/p≈1 cases where the width estimate itself degenerates.
    EXPECT_NEAR(e->estimate, exact, 2.5 * e->half_width_95 + 5e-3)
        << ToString(cell) << " trial " << trial;

    // The registered engine must reproduce the direct estimator bit for bit
    // when given identical inputs: it samples the PREPARED problem (labels
    // marginalized, query possibly collapsed), so compare on that.
    SolveOptions mc;
    mc.force_engine = "monte-carlo";
    mc.monte_carlo = options;
    mc.monte_carlo_seed = kCrosscheckSeedBase + trial;
    Result<SolveResult> via_engine = Solver(mc).Solve(c.query, c.instance);
    ASSERT_TRUE(via_engine.ok()) << ToString(cell) << " trial " << trial;
    PreparedProblem prep = PrepareProblem(c.query, c.instance);
    if (!prep.immediate.has_value()) {
      Result<MonteCarloEstimate> prepared_est = EstimateProbabilityMonteCarlo(
          prep.query, prep.instance(), kCrosscheckSeedBase + trial, options);
      ASSERT_TRUE(prepared_est.ok()) << ToString(cell) << " trial " << trial;
      EXPECT_EQ(via_engine->probability_double, prepared_est->estimate)
          << ToString(cell) << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, CrosscheckTest,
                         ::testing::Values(CellClass::k2wp, CellClass::kDwt,
                                           CellClass::kPolytree,
                                           CellClass::kHardCell),
                         [](const ::testing::TestParamInfo<CellClass>& info) {
                           switch (info.param) {
                             case CellClass::k2wp: return "TwoWayPath";
                             case CellClass::kDwt: return "DownwardTree";
                             case CellClass::kPolytree: return "Polytree";
                             case CellClass::kHardCell: return "HardCell";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace phom
