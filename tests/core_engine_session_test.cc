#include <gtest/gtest.h>

#include <vector>

#include "src/core/engine.h"
#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

/// Tier-1 coverage of the engine registry and the amortized session layer:
/// registry lookup/forcing semantics, EvalSession bit-equality with one-shot
/// solving, and the exactly-once instance-preparation guarantee.

namespace phom {
namespace {

using test_util::CellClass;
using test_util::kCrosscheckSeedBase;
using test_util::MakeCrosscheckCase;
using test_util::PaperFigure1;
using test_util::ToString;

TEST(EngineRegistry, DefaultEnginesAreRegistered) {
  const EngineRegistry& registry = EngineRegistry::Global();
  for (const char* name :
       {"connected-on-2wp", "path-on-dwt", "unlabeled-dwt-instance",
        "unlabeled-polytree", "per-component", "fallback",
        "dwt-lineage-shannon", "match-lineage", "monte-carlo"}) {
    EXPECT_NE(registry.FindByName(name), nullptr) << name;
  }
  EXPECT_EQ(registry.FindByName("no-such-engine"), nullptr);
  // Estimators are never eligible for auto dispatch.
  const Engine* mc = registry.FindByName("monte-carlo");
  ASSERT_NE(mc, nullptr);
  EXPECT_FALSE(mc->exact());
}

TEST(EngineRegistry, ForceEngineByName) {
  PaperFigure1 ex;
  // The running example's restricted instance is a general connected graph,
  // so the applicable engines are the per-component/per-world ones.
  for (const char* name : {"per-component", "fallback", "match-lineage"}) {
    SolveOptions options;
    options.force_engine = name;
    Result<SolveResult> r = Solver(options).Solve(ex.query, ex.instance);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_EQ(r->probability, ex.expected) << name;
    EXPECT_EQ(r->stats.engine, name);
  }
  // A 2WP cell exercises the fine engine by name.
  {
    DiGraph q = MakeOneWayPath(2);
    ProbGraph h(3);
    AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
    AddEdgeOrDie(&h, 1, 2, 0, Rational::Half());
    SolveOptions options;
    options.force_engine = "connected-on-2wp";
    Result<SolveResult> r = Solver(options).Solve(q, h);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->probability, Rational(1, 4));
    EXPECT_EQ(r->stats.engine, "connected-on-2wp");
  }
  // Unknown engines are an Invalid error, inapplicable ones NotSupported.
  SolveOptions unknown;
  unknown.force_engine = "no-such-engine";
  EXPECT_EQ(Solver(unknown).Solve(ex.query, ex.instance).status().code(),
            Status::Code::kInvalidArgument);
  // ... even when the answer would be immediate (typos must not be masked
  // by a trivial first input).
  EXPECT_EQ(Solver(unknown).Solve(DiGraph(2), ex.instance).status().code(),
            Status::Code::kInvalidArgument);
  SolveOptions inapplicable;
  inapplicable.force_engine = "unlabeled-polytree";  // two labels in use
  EXPECT_EQ(Solver(inapplicable).Solve(ex.query, ex.instance).status().code(),
            Status::Code::kNotSupported);
}

TEST(EngineRegistry, AutoDispatchReportsEngineName) {
  // The selected engine is surfaced in SolveStats for every dispatch path.
  Rng rng(4711);
  ProbGraph twp = AttachRandomProbabilities(
      &rng, RandomTwoWayPath(&rng, 8, 1), 3);
  Result<SolveResult> r = Solver().Solve(MakeOneWayPath(1), twp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.engine, "connected-on-2wp");

  PaperFigure1 ex;
  Result<SolveResult> hard = Solver().Solve(ex.query, ex.instance);
  ASSERT_TRUE(hard.ok());
  EXPECT_EQ(hard->stats.engine, "per-component");
}

class SessionAgreementTest : public ::testing::TestWithParam<CellClass> {};

TEST_P(SessionAgreementTest, SessionAnswersBitIdenticalToOneShot) {
  CellClass cell = GetParam();
  Rng rng(kCrosscheckSeedBase + 3000 + static_cast<uint64_t>(cell));
  // One instance, a batch of queries from the same cell generator.
  test_util::CrosscheckCase base = MakeCrosscheckCase(cell, &rng);
  std::vector<DiGraph> queries;
  queries.push_back(base.query);
  for (int i = 0; i < 7; ++i) {
    queries.push_back(MakeCrosscheckCase(cell, &rng).query);
  }

  EvalSession session(base.instance);
  std::vector<Result<SolveResult>> batch = session.SolveBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  EXPECT_EQ(session.stats().queries, queries.size());

  Solver one_shot;
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<SolveResult> direct = one_shot.Solve(queries[i], base.instance);
    ASSERT_EQ(batch[i].ok(), direct.ok()) << ToString(cell) << " query " << i;
    if (!direct.ok()) continue;
    EXPECT_EQ(batch[i]->probability, direct->probability)
        << ToString(cell) << " query " << i;
    EXPECT_EQ(batch[i]->probability_double, direct->probability_double);
    EXPECT_EQ(batch[i]->stats.engine, direct->stats.engine);
    EXPECT_EQ(batch[i]->analysis.cell, direct->analysis.cell);
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, SessionAgreementTest,
                         ::testing::ValuesIn(test_util::AllCellClasses()),
                         [](const ::testing::TestParamInfo<CellClass>& info) {
                           switch (info.param) {
                             case CellClass::k2wp: return "TwoWayPath";
                             case CellClass::kDwt: return "DownwardTree";
                             case CellClass::kPolytree: return "Polytree";
                             case CellClass::kHardCell: return "HardCell";
                           }
                           return "Unknown";
                         });

TEST(EvalSession, PreparesInstanceExactlyOncePerLabelSet) {
  PaperFigure1 ex;
  EvalSession session(ex.instance);
  // N queries over the same label set {R, S}: exactly ONE preparation.
  for (int i = 0; i < 10; ++i) {
    Result<SolveResult> r = session.Solve(ex.query);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->probability, ex.expected);
  }
  EXPECT_EQ(session.stats().queries, 10u);
  EXPECT_EQ(session.stats().instance_preparations, 1u);
  EXPECT_EQ(session.stats().context_cache_hits, 9u);

  // A different label set builds its own context once.
  DiGraph r_only = MakeLabeledPath({0});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.Solve(r_only).ok());
  }
  EXPECT_EQ(session.stats().instance_preparations, 2u);
  EXPECT_EQ(session.stats().context_cache_hits, 11u);

  // Trivial queries never touch the instance side.
  ASSERT_TRUE(session.Solve(DiGraph(2)).ok());
  EXPECT_EQ(session.stats().instance_preparations, 2u);
}

TEST(Solver, SolveProbabilityStaysExactUnderDoubleOptions) {
  // The Rational-returning convenience must not silently answer zero when
  // handed serving options that select the double backend.
  PaperFigure1 ex;
  SolveOptions serving;
  serving.numeric = NumericBackend::kDouble;
  Result<Rational> p = SolveProbability(ex.query, ex.instance, serving);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, ex.expected);
}

TEST(EvalSession, DoubleBackendSessions) {
  PaperFigure1 ex;
  SolveOptions options;
  options.numeric = NumericBackend::kDouble;
  EvalSession session(ex.instance, options);
  Result<SolveResult> r = session.Solve(ex.query);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->numeric, NumericBackend::kDouble);
  EXPECT_NEAR(r->probability_double, 0.574, 1e-12);
}

}  // namespace
}  // namespace phom
