#include "perfbench/src/checks.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "perfbench/src/workloads.h"
#include "src/hom/backtrack.h"

namespace perfbench {

using phom::BigInt;
using phom::DiGraph;
using phom::Edge;
using phom::EdgeId;
using phom::LabelId;
using phom::ProbGraph;
using phom::Rational;

namespace {

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::abort();
}

BigInt FromUint128(unsigned __int128 v) {
  const uint64_t hi = static_cast<uint64_t>(v >> 64);
  const uint64_t lo = static_cast<uint64_t>(v);
  // Split into 32-bit halves: BigInt takes signed 64-bit values.
  BigInt out = BigInt(static_cast<int64_t>(hi >> 32)).ShiftLeft(32) +
               BigInt(static_cast<int64_t>(hi & 0xffffffffu));
  out = out.ShiftLeft(32) + BigInt(static_cast<int64_t>(lo >> 32));
  return out.ShiftLeft(32) + BigInt(static_cast<int64_t>(lo & 0xffffffffu));
}

}  // namespace

size_t UncertainEdges(const ProbGraph& instance) {
  size_t n = 0;
  for (const Rational& p : instance.probs()) {
    if (!p.is_zero() && !p.is_one()) ++n;
  }
  return n;
}

Rational EnumerateWorlds(const std::vector<DiGraph>& disjuncts,
                         const ProbGraph& instance) {
  std::vector<LabelId> labels;
  for (const DiGraph& d : disjuncts) {
    for (const Edge& e : d.edges()) labels.push_back(e.label);
  }
  auto used = [&](LabelId l) {
    return std::find(labels.begin(), labels.end(), l) != labels.end();
  };
  const int64_t den = int64_t{1} << kLog2Den;
  std::vector<EdgeId> certain;
  std::vector<EdgeId> uncertain;
  std::vector<uint64_t> keep_weight;  // k for p = k/den
  const DiGraph& g = instance.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Rational& p = instance.prob(e);
    if (!used(g.edge(e).label) || p.is_zero()) continue;
    if (p.is_one()) {
      certain.push_back(e);
      continue;
    }
    const Rational scaled = p * Rational(den);
    if (scaled.den() != BigInt(1) || !scaled.num().ToInt64()) {
      Die("world enumeration needs k/2^d probabilities");
    }
    uncertain.push_back(e);
    keep_weight.push_back(static_cast<uint64_t>(*scaled.num().ToInt64()));
  }
  const size_t m = uncertain.size();
  if (m > 22) Die("world enumeration over more than 22 uncertain edges");

  unsigned __int128 total = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    DiGraph world(g.num_vertices());
    for (EdgeId e : certain) {
      const Edge& edge = g.edge(e);
      (void)world.AddEdge(edge.src, edge.dst, edge.label);
    }
    unsigned __int128 weight = 1;
    for (size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1) {
        const Edge& edge = g.edge(uncertain[i]);
        (void)world.AddEdge(edge.src, edge.dst, edge.label);
        weight *= keep_weight[i];
      } else {
        weight *= static_cast<uint64_t>(den) - keep_weight[i];
      }
    }
    for (const DiGraph& d : disjuncts) {
      phom::Result<bool> hit = phom::HasHomomorphism(d, world);
      if (!hit.ok()) Die("homomorphism test failed");
      if (*hit) {
        total += weight;
        break;
      }
    }
  }
  return Rational(FromUint128(total),
                  BigInt::Pow2(static_cast<uint64_t>(kLog2Den) * m));
}

std::string CheckDyadicProbability(const Rational& p, size_t uncertain) {
  if (p < Rational::Zero() || p > Rational::One()) {
    return "answer " + p.ToString() + " lies outside [0, 1]";
  }
  const BigInt& den = p.den();
  if (!den.IsPowerOfTwo() ||
      den.BitLength() - 1 > static_cast<uint64_t>(kLog2Den) * uncertain) {
    return "denominator of " + p.ToString() + " does not divide 2^(" +
           std::to_string(kLog2Den) + "*" + std::to_string(uncertain) + ")";
  }
  return "";
}

Rational CombineIndependent(const std::vector<Rational>& parts) {
  Rational none = Rational::One();
  for (const Rational& p : parts) none = none * (Rational::One() - p);
  return Rational::One() - none;
}

bool EnclosureContains(const phom::ProbabilityBound& bound,
                       const Rational& exact) {
  return Rational::FromDouble(bound.lo) <= exact &&
         exact <= Rational::FromDouble(bound.hi);
}

bool SameAnswer(const phom::SolveResult& a, const phom::SolveResult& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return a.numeric == b.numeric && a.probability == b.probability &&
         same_bits(a.probability_double, b.probability_double) &&
         same_bits(a.bound.lo, b.bound.lo) &&
         same_bits(a.bound.hi, b.bound.hi) &&
         a.bound.certified == b.bound.certified;
}

uint64_t AnswerBits(const Rational& p) {
  return p.num().BitLength() + p.den().BitLength();
}

}  // namespace perfbench
