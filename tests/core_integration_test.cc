#include <gtest/gtest.h>

#include "src/core/phom.h"
#include "src/hom/backtrack.h"
#include "src/reductions/edge_cover_reduction.h"
#include "src/reductions/pp2dnf_reduction.h"
#include "tests/test_util.h"

/// End-to-end suites crossing module boundaries: counting semantics,
/// Lemma 3.7, label restriction, the reductions run through the full solver,
/// and agreement between every applicable tractable engine on cells where
/// several apply at once.

namespace phom {
namespace {

// ---------------------------------------------------------------------------
// Counting view (all probabilities 1/2).
// ---------------------------------------------------------------------------

using test_util::CountWorldsByEnumeration;

TEST(Counting, MatchesEnumerationAcrossCells) {
  Rng rng(201);
  for (int trial = 0; trial < 60; ++trial) {
    DiGraph instance;
    switch (trial % 4) {
      case 0: instance = RandomTwoWayPath(&rng, rng.UniformInt(1, 8), 2); break;
      case 1: instance = RandomDownwardTree(&rng, rng.UniformInt(2, 9), 2); break;
      case 2: instance = RandomPolytree(&rng, rng.UniformInt(2, 9), 1); break;
      default: instance = RandomConnected(&rng, rng.UniformInt(2, 6), 2, 1);
    }
    DiGraph query = trial % 2 == 0
                        ? RandomOneWayPath(&rng, rng.UniformInt(1, 3), 2)
                        : RandomTwoWayPath(&rng, rng.UniformInt(1, 3), 1);
    Result<BigInt> counted = CountSatisfyingWorlds(query, instance);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_EQ(*counted, CountWorldsByEnumeration(query, instance)) << trial;
  }
}

TEST(Counting, PathOnPath) {
  // #subgraphs of →→→ containing →→: e0e1, e1e2, all three = 3 of 8... by
  // enumeration: masks {011,110,111} -> 3.
  EXPECT_EQ(*CountSatisfyingWorlds(MakeOneWayPath(2), MakeOneWayPath(3)),
            BigInt(3));
  EXPECT_EQ(*CountSatisfyingWorlds(MakeOneWayPath(1), MakeOneWayPath(1)),
            BigInt(1));
}

// ---------------------------------------------------------------------------
// Lemma 3.7: disconnected instances.
// ---------------------------------------------------------------------------

TEST(Lemma37, ManyComponentsCombineIndependently) {
  Rng rng(202);
  DiGraph query = MakeOneWayPath(2);
  // Build k single-chain components and check against the closed form.
  ProbGraph h(0);
  std::vector<Rational> expected_miss;
  for (int k = 0; k < 5; ++k) {
    VertexId a = h.AddVertex();
    VertexId b = h.AddVertex();
    VertexId c = h.AddVertex();
    Rational p1 = rng.NontrivialDyadicProbability(3);
    Rational p2 = rng.NontrivialDyadicProbability(3);
    AddEdgeOrDie(&h, a, b, 0, p1);
    AddEdgeOrDie(&h, b, c, 0, p2);
    expected_miss.push_back((p1 * p2).Complement());
  }
  Rational expected = Rational::One();
  for (const Rational& miss : expected_miss) expected *= miss;
  EXPECT_EQ(*SolveProbability(query, h), expected.Complement());
}

TEST(Lemma37, AgreesWithFallbackOnRandomForests) {
  Rng rng(203);
  for (int trial = 0; trial < 40; ++trial) {
    DiGraph shape = RandomDisjointUnion(&rng, 3, [&](Rng* r) {
      return RandomPolytree(r, 1 + r->UniformInt(1, 4), 1);
    });
    ProbGraph h = AttachRandomProbabilities(&rng, shape, 2);
    DiGraph query = MakeOneWayPath(rng.UniformInt(1, 2));
    SolveOptions force;
    force.force_engine = "fallback";
    EXPECT_EQ(*SolveProbability(query, h),
              *SolveProbability(query, h, force))
        << trial;
  }
}

// ---------------------------------------------------------------------------
// Label restriction.
// ---------------------------------------------------------------------------

TEST(LabelRestriction, IrrelevantLabelsNeverChangeTheAnswer) {
  Rng rng(204);
  for (int trial = 0; trial < 40; ++trial) {
    // Query over label 0 only; instance gets random label-1 edges added.
    DiGraph query = RandomOneWayPath(&rng, rng.UniformInt(1, 3), 1);
    DiGraph base = RandomPolytree(&rng, rng.UniformInt(2, 7), 1);
    ProbGraph h1 = AttachRandomProbabilities(&rng, base, 2);
    // Superimpose label-1 noise edges (fresh vertices to stay loop-free).
    ProbGraph h2 = h1;
    for (int i = 0; i < 4; ++i) {
      VertexId a = h2.AddVertex();
      VertexId b = static_cast<VertexId>(
          rng.UniformInt(0, h2.num_vertices() - 1));
      AddEdgeOrDie(&h2, a, b, 1, rng.NontrivialDyadicProbability(2));
    }
    EXPECT_EQ(*SolveProbability(query, h1), *SolveProbability(query, h2))
        << trial;
  }
}

// ---------------------------------------------------------------------------
// Reductions through the full solver (dispatch + fallback).
// ---------------------------------------------------------------------------

TEST(ReductionsEndToEnd, EdgeCoverThroughSolver) {
  Rng rng(205);
  BipartiteGraph bipartite = RandomBipartite(&rng, 2, 3, 0.5);
  if (bipartite.edges.size() > 7) bipartite.edges.resize(7);
  EdgeCoverReduction red = BuildEdgeCoverReductionLabeled(bipartite);
  Solver solver;
  Result<SolveResult> result = solver.Solve(red.query, red.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->analysis.tractable);  // Prop. 3.3 cell
  EXPECT_EQ(RecoverCount(result->probability, red.num_probabilistic_edges),
            CountEdgeCoversBruteForce(bipartite));
}

TEST(ReductionsEndToEnd, Pp2DnfThroughSolver) {
  Rng rng(206);
  Pp2Dnf formula = RandomPp2Dnf(&rng, 2, 2, 3);
  Pp2DnfReduction red = BuildPp2DnfReductionLabeled(formula);
  Solver solver;
  Result<SolveResult> result = solver.Solve(red.query, red.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->analysis.tractable);  // Prop. 4.1 cell
  EXPECT_EQ(RecoverCount(result->probability, red.num_probabilistic_edges),
            CountSatisfyingAssignments(formula));
}

// ---------------------------------------------------------------------------
// Multi-engine agreement on overlapping cells (parameterized).
// ---------------------------------------------------------------------------

class EngineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreementTest, UnlabeledPathOn1wpInstance) {
  // A 1WP instance sits in 2WP ∩ DWT ∩ PT: Prop. 4.11, Prop. 4.10/3.6 and
  // Prop. 5.4 all apply and must agree (plus the fallback oracle).
  Rng rng(GetParam());
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomOneWayPath(&rng, rng.UniformInt(1, 12), 1), 3);
  DiGraph q = MakeOneWayPath(rng.UniformInt(1, 4));

  std::vector<Rational> answers;
  for (const char* engine :
       {"unlabeled-dwt-instance", "unlabeled-polytree", "fallback"}) {
    SolveOptions options;
    options.force_engine = engine;
    Result<Rational> p = SolveProbability(q, h, options);
    ASSERT_TRUE(p.ok()) << engine << ": " << p.status().ToString();
    answers.push_back(*p);
  }
  // Dispatcher (will pick Prop. 4.11's route since the instance is a 2WP).
  answers.push_back(*SolveProbability(q, h));
  for (size_t i = 1; i < answers.size(); ++i) {
    EXPECT_EQ(answers[0], answers[i]) << "engine " << i;
  }
}

TEST_P(EngineAgreementTest, DwtLineageEngineAgrees) {
  Rng rng(GetParam() + 500);
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomDownwardTree(&rng, rng.UniformInt(2, 12), 2, 0.4), 2);
  std::vector<LabelId> pattern;
  for (int i = 0, m = rng.UniformInt(1, 4); i < m; ++i) {
    pattern.push_back(static_cast<LabelId>(rng.UniformInt(0, 1)));
  }
  DiGraph q = MakeLabeledPath(pattern);
  SolveOptions lineage;
  lineage.force_engine = "dwt-lineage-shannon";
  EXPECT_EQ(*SolveProbability(q, h), *SolveProbability(q, h, lineage));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementTest,
                         ::testing::Range<uint64_t>(300, 316));

// ---------------------------------------------------------------------------
// Paper fixtures at the paper's own scale.
// ---------------------------------------------------------------------------

TEST(PaperFixtures, Figure5Construction) {
  // Γ from Figure 5: X = {x1, x2}, Y = {y1, y2, y3},
  // e1=(x1,y1) e2=(x1,y2) e3=(x2,y2) e4=(x2,y3).
  BipartiteGraph gamma;
  gamma.left_size = 2;
  gamma.right_size = 3;
  gamma.edges = {{0, 0}, {0, 1}, {1, 1}, {1, 2}};
  EdgeCoverReduction red = BuildEdgeCoverReductionLabeled(gamma);
  // Instance: C + Σ_j (l_j + 1 + r_j) + m C's. Query: one component per
  // vertex of Γ with i+2 edges for index i.
  EXPECT_TRUE(IsOneWayPath(red.instance.graph()));
  EXPECT_EQ(Classify(red.query).num_components, 5u);
  Result<Rational> prob = SolveProbability(red.query, red.instance);
  ASSERT_TRUE(prob.ok());
  // Edge covers of Γ: both x's and all three y's covered. y1 only via e1,
  // y3 only via e4 -> e1, e4 forced; y2 via e2 or e3 (x's then covered).
  // Subsets: {e1,e4} ∪ any non-empty subset of {e2,e3} -> 3 covers.
  EXPECT_EQ(RecoverCount(*prob, 4), BigInt(3));
}

TEST(PaperFixtures, Figure7And8AgreeWithEachOther) {
  Pp2Dnf example = test_util::MakePaperPp2Dnf();
  Pp2DnfReduction labeled = BuildPp2DnfReductionLabeled(example);
  Pp2DnfReduction unlabeled = BuildPp2DnfReductionUnlabeled(example);
  Rational p1 = *SolveProbability(labeled.query, labeled.instance);
  Rational p2 = *SolveProbability(unlabeled.query, unlabeled.instance);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1, Rational::Half());
}

}  // namespace
}  // namespace phom
