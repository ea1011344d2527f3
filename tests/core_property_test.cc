#include <gtest/gtest.h>

#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

/// Randomized ground-truth testing: for every combination of query class and
/// instance class in Tables 1-3 (plus general graphs), the dispatcher's
/// answer must equal brute-force possible-world enumeration. Parameterized
/// over seeds so the sweep is wide but reproducible.

namespace phom {
namespace {

using test_util::GraphClass;
using test_util::MakeClassGraph;

class SolverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverPropertyTest, DispatcherMatchesBruteForceOracle) {
  Rng rng(GetParam());
  const std::vector<GraphClass>& kinds = test_util::AllGraphClasses();
  Solver solver;
  for (GraphClass qk : kinds) {
    for (GraphClass ik : kinds) {
      for (size_t labels : {1u, 2u}) {
        DiGraph q = MakeClassGraph(qk, &rng, rng.UniformInt(1, 3), labels);
        DiGraph ig = MakeClassGraph(ik, &rng, rng.UniformInt(1, 6), labels);
        if (ig.num_edges() > 14) continue;  // keep the oracle cheap
        ProbGraph h = AttachRandomProbabilities(&rng, ig, 2, 0.25);
        Result<SolveResult> fast = solver.Solve(q, h);
        ASSERT_TRUE(fast.ok()) << fast.status().ToString();
        SolveOptions force;
        force.force_engine = "fallback";
        Rational oracle = *SolveProbability(q, h, force);
        EXPECT_EQ(fast->probability, oracle)
            << "query kind " << static_cast<int>(qk) << " instance kind "
            << static_cast<int>(ik) << " labels " << labels << " cell "
            << fast->analysis.cell << " algo "
            << ToString(fast->analysis.algorithm);
      }
    }
  }
}

TEST_P(SolverPropertyTest, ProbabilitiesAreValidAndMonotone) {
  // Raising an edge probability can only raise Pr(G ⇝ H) (monotone query).
  Rng rng(GetParam() + 1000);
  Solver solver;
  for (int trial = 0; trial < 10; ++trial) {
    DiGraph q = RandomTwoWayPath(&rng, rng.UniformInt(1, 3), 1);
    DiGraph ig = RandomPolytree(&rng, rng.UniformInt(3, 8), 1);
    ProbGraph h = AttachRandomProbabilities(&rng, ig, 3);
    Result<SolveResult> base = solver.Solve(q, h);
    ASSERT_TRUE(base.ok());
    EXPECT_TRUE(base->probability.IsProbability());

    // Bump one random edge's probability.
    EdgeId e = static_cast<EdgeId>(rng.UniformInt(0, ig.num_edges() - 1));
    std::vector<Rational> probs = h.probs();
    probs[e] = probs[e] + probs[e].Complement() * Rational::Half();
    ProbGraph h2(h.graph(), probs);
    Result<SolveResult> bumped = solver.Solve(q, h2);
    ASSERT_TRUE(bumped.ok());
    EXPECT_GE(bumped->probability, base->probability);
  }
}

TEST_P(SolverPropertyTest, EquivalentQueriesSameProbability) {
  // Prop. 5.5 in action: a random unlabeled ⊔DWT query and its collapsed
  // path are equivalent, so they agree on every instance.
  Rng rng(GetParam() + 2000);
  Solver solver;
  for (int trial = 0; trial < 10; ++trial) {
    DiGraph q = RandomDisjointUnion(&rng, 2, [&](Rng* r) {
      return RandomDownwardTree(r, 2 + r->UniformInt(0, 4), 1, 0.5);
    });
    GradedAnalysis ga = AnalyzeGraded(q);
    ASSERT_TRUE(ga.is_graded);
    DiGraph collapsed = MakeOneWayPath(
        static_cast<size_t>(ga.difference_of_levels));
    DiGraph ig = RandomPolytree(&rng, rng.UniformInt(3, 9), 1);
    ProbGraph h = AttachRandomProbabilities(&rng, ig, 2);
    EXPECT_EQ(solver.Solve(q, h)->probability,
              solver.Solve(collapsed, h)->probability);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace phom
