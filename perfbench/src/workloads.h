#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/alphabet.h"
#include "src/graph/digraph.h"
#include "src/graph/prob_graph.h"
#include "src/graph/ucq.h"

/// \file workloads.h
/// The benchmark's three workloads, generated from one seed by the
/// benchmark's own generator (so a change to the library's generators never
/// changes the inputs). Every uncertain edge probability is dyadic k/2^d
/// with d = kLog2Den, which the checks use (checks.h).

namespace perfbench {

using phom::DiGraph;
using phom::ProbGraph;
using phom::Ucq;

inline constexpr int kLog2Den = 4;

/// splitmix64: a fixed, portable stream (std distributions are
/// implementation-defined).
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (modulo bias is irrelevant here).
  uint64_t Between(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }

 private:
  uint64_t state_;
};

struct Request {
  /// The cell the request was generated for (a class label used by the
  /// make-up report; the engine that answers is read from SolveStats).
  std::string cell;
  size_t instance = 0;  ///< index into Workload::instances
  bool is_ucq = false;
  DiGraph query;        ///< when !is_ucq
  Ucq ucq;              ///< when is_ucq
  std::string query_text;     ///< cold-text only
};

struct InstanceInfo {
  std::string shape;          ///< e.g. "DWT", "2WP+2WP", "DWT+2WP+PT"
  size_t labels = 0;          ///< distinct labels on the instance
  std::string text;           ///< cold-text only: the instance file text
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  phom::Alphabet alphabet;
  std::vector<ProbGraph> instances;
  std::vector<InstanceInfo> info;  ///< aligned with instances
  /// One round of requests, ordered so that each of the `passes` equal
  /// slices holds the same mix of cells.
  std::vector<Request> requests;
  /// requests[i] replays requests[i % distinct].
  size_t distinct = 0;
  size_t passes = 0;
};

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

/// Builds `name` from `seed`; aborts on an unknown name (the caller
/// validates names first).
Workload MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
