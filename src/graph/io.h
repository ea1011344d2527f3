#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "src/graph/alphabet.h"
#include "src/graph/digraph.h"
#include "src/graph/prob_graph.h"
#include "src/util/result.h"

/// \file io.h
/// Text serialization (a simple line format for fixtures and tooling) and
/// Graphviz DOT export for visual inspection of instances and reductions.
///
/// Text format:
///   line 1: "<num_vertices> <num_edges>"
///   then per edge: "<src> <dst> <label-name> [<prob>]"
/// Probabilities accept "1/2" and "0.5" forms; omitted means certain.
/// <num_vertices> may be at most kMaxParsedVertices; a larger header (or a
/// negative one, which wraps around) is Status::ResourceExhausted before
/// anything is allocated.

namespace phom {

/// Largest vertex count a parsed header may declare: 2^22 (4,194,304). The
/// graph allocates its adjacency lists from the header alone, ~48 bytes per
/// vertex (~200 MB at the limit), before any edge line is read. Well inside
/// VertexId's 32-bit range.
inline constexpr size_t kMaxParsedVertices = size_t{1} << 22;

std::string Serialize(const DiGraph& g, const Alphabet& alphabet);
std::string Serialize(const ProbGraph& g, const Alphabet& alphabet);

Result<DiGraph> ParseDiGraph(std::string_view text, Alphabet* alphabet);
Result<ProbGraph> ParseProbGraph(std::string_view text, Alphabet* alphabet);

/// DOT rendering. Dashed edges carry a probability < 1 (annotated), solid
/// edges are certain — mirroring the paper's figures.
std::string ToDot(const DiGraph& g, const Alphabet* alphabet = nullptr);
std::string ToDot(const ProbGraph& g, const Alphabet* alphabet = nullptr);

}  // namespace phom
