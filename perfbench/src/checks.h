#pragma once

#include <string>
#include <vector>

#include "src/core/solver.h"
#include "src/graph/digraph.h"
#include "src/graph/prob_graph.h"
#include "src/util/rational.h"

/// \file checks.h
/// Independent answer checks. Nothing here calls an engine: the world
/// enumeration shares only the homomorphism test with the library, and the
/// properties are plain Rational arithmetic.

namespace perfbench {

/// Pr(some disjunct maps into the world), summed over every world of the
/// uncertain edges whose label some disjunct uses (edges of other labels
/// cannot be the image of a query edge, so they sum out). Requires every
/// uncertain probability to be k/2^kLog2Den and at most 22 such edges.
phom::Rational EnumerateWorlds(const std::vector<phom::DiGraph>& disjuncts,
                               const phom::ProbGraph& instance);

/// Uncertain edges (0 < p < 1) of `instance`.
size_t UncertainEdges(const phom::ProbGraph& instance);

/// Empty when `p` is a probability whose denominator divides
/// 2^(kLog2Den · uncertain), else a description of the violation.
std::string CheckDyadicProbability(const phom::Rational& p, size_t uncertain);

/// Lemma 3.7: 1 − Π (1 − p_i) over independent components.
phom::Rational CombineIndependent(const std::vector<phom::Rational>& parts);

/// lo ≤ exact ≤ hi, compared exactly.
bool EnclosureContains(const phom::ProbabilityBound& bound,
                       const phom::Rational& exact);

/// Bit identity of two answers in the backend they were computed in: equal
/// Rationals, and equal bit patterns of the double and of both bounds.
bool SameAnswer(const phom::SolveResult& a, const phom::SolveResult& b);

/// Exact answers' size in bits: numerator plus denominator bit lengths.
uint64_t AnswerBits(const phom::Rational& p);

}  // namespace perfbench
