#include "perfbench/src/workloads.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>

#include "src/util/rational.h"

namespace perfbench {

using phom::Edge;
using phom::EdgeId;
using phom::LabelId;
using phom::Rational;
using phom::VertexId;

namespace {

// ---------------------------------------------------------------------------
// Sizes. Instance sizes are fixed per cell so that every seed asks for the
// same amount of work; only shapes, labels and probabilities vary.
// ---------------------------------------------------------------------------

// exact-tables: kExactCycles cycles of the weighted cell list, all distinct.
constexpr size_t kExactCycles = 80;
constexpr size_t kExactInstancesPerCell = 8;
constexpr size_t kExactPasses = 8;
constexpr size_t kExactDwtVertices = 96;
constexpr size_t kExact2wpEdges = 24;       // per path, two paths
constexpr size_t kExactUnlabeledDwtVertices = 64;
constexpr size_t kExactPolytreeVertices = 24;
constexpr size_t kExactMixedPart = 32;      // DWT and 2WP parts
constexpr size_t kExactMixedPolytree = 8;   // the #P-hard component
constexpr size_t kExactHardVertices = 7;    // cyclic instance, fallback
constexpr size_t kExactHardExtra = 2;

// serve-interval: kServeDistinct distinct requests, replayed to fill a round.
constexpr size_t kServeDistinct = 256;
constexpr size_t kServeReplays = 4;
constexpr size_t kServeInstancesPerShape = 4;
constexpr size_t kServePasses = 4;
constexpr size_t kServeParts = 4;           // components per forest
constexpr size_t kServeDwtVertices = 96;
constexpr size_t kServe2wpEdges = 64;

// cold-text: kColdInstances small instances, kColdQueries queries each; a
// multiple of 6 kinds x 8 passes, so every pass holds the same mix.
constexpr size_t kColdInstances = 528;
constexpr size_t kColdQueries = 4;
constexpr size_t kColdReplays = 1;
constexpr size_t kColdPasses = 8;

LabelId Pick(BenchRng& rng, const std::vector<LabelId>& labels) {
  return labels[rng.Between(0, labels.size() - 1)];
}

void AddOrDie(DiGraph* g, VertexId src, VertexId dst, LabelId label) {
  if (!g->AddEdge(src, dst, label).ok()) {
    std::fprintf(stderr, "perfbench: generator produced a bad edge\n");
    std::abort();
  }
}

// --- Shapes ----------------------------------------------------------------

DiGraph OneWayPath(BenchRng& rng, size_t edges,
                   const std::vector<LabelId>& labels) {
  DiGraph g(edges + 1);
  for (size_t i = 0; i < edges; ++i) {
    AddOrDie(&g, static_cast<VertexId>(i), static_cast<VertexId>(i + 1),
             Pick(rng, labels));
  }
  return g;
}

/// A 1WP whose first edge is labels[0] and last edge labels[1], so the
/// query uses both labels (a one-label query is an unlabeled-cell query).
DiGraph TwoLabelPath(BenchRng& rng, size_t edges,
                     const std::vector<LabelId>& labels) {
  DiGraph g(edges + 1);
  for (size_t i = 0; i < edges; ++i) {
    const LabelId label =
        i == 0 ? labels[0] : i + 1 == edges ? labels[1] : Pick(rng, labels);
    AddOrDie(&g, static_cast<VertexId>(i), static_cast<VertexId>(i + 1), label);
  }
  return g;
}

/// A two-way path with random orientations. With `proper`, edges 0 and 1
/// point at vertex 1, so the path is neither a 1WP nor a DWT.
DiGraph TwoWayPath(BenchRng& rng, size_t edges,
                   const std::vector<LabelId>& labels, bool proper) {
  DiGraph g(edges + 1);
  for (size_t i = 0; i < edges; ++i) {
    bool forward = rng.Between(0, 1) == 1;
    if (proper && i < 2) forward = (i == 0);
    VertexId a = static_cast<VertexId>(i);
    VertexId b = static_cast<VertexId>(i + 1);
    if (forward) {
      AddOrDie(&g, a, b, Pick(rng, labels));
    } else {
      AddOrDie(&g, b, a, Pick(rng, labels));
    }
  }
  return g;
}

/// Parent of vertex i among the `window` previous vertices (deep trees).
VertexId TreeParent(BenchRng& rng, size_t i, size_t window) {
  size_t lo = i > window ? i - window : 0;
  return static_cast<VertexId>(rng.Between(lo, i - 1));
}

/// A downward tree. With `proper`, the root has three children, so the tree
/// is not a two-way path.
DiGraph DownwardTree(BenchRng& rng, size_t vertices,
                     const std::vector<LabelId>& labels, bool proper) {
  DiGraph g(vertices);
  for (size_t i = 1; i < vertices; ++i) {
    VertexId parent = (proper && i <= 3) ? 0 : TreeParent(rng, i, 4);
    AddOrDie(&g, parent, static_cast<VertexId>(i), Pick(rng, labels));
  }
  return g;
}

/// A polytree: a random tree with random orientations. With `proper`,
/// vertex 0 has three neighbours and two in-edges, so it is neither a 2WP
/// nor a DWT.
DiGraph Polytree(BenchRng& rng, size_t vertices,
                 const std::vector<LabelId>& labels, bool proper) {
  DiGraph g(vertices);
  for (size_t i = 1; i < vertices; ++i) {
    VertexId parent = (proper && i <= 3) ? 0 : TreeParent(rng, i, 4);
    bool down = rng.Between(0, 1) == 1;
    if (proper && i <= 3) down = (i == 1);
    if (down) {
      AddOrDie(&g, parent, static_cast<VertexId>(i), Pick(rng, labels));
    } else {
      AddOrDie(&g, static_cast<VertexId>(i), parent, Pick(rng, labels));
    }
  }
  return g;
}

/// A connected graph with cycles: a random polytree plus `extra` edges.
DiGraph Cyclic(BenchRng& rng, size_t vertices, size_t extra,
               const std::vector<LabelId>& labels) {
  DiGraph g = Polytree(rng, vertices, labels, /*proper=*/false);
  size_t added = 0;
  while (added < extra) {
    VertexId a = static_cast<VertexId>(rng.Between(0, vertices - 1));
    VertexId b = static_cast<VertexId>(rng.Between(0, vertices - 1));
    if (a == b || g.FindEdge(a, b) || g.FindEdge(b, a)) continue;
    AddOrDie(&g, a, b, Pick(rng, labels));
    ++added;
  }
  return g;
}

DiGraph Union(const std::vector<DiGraph>& parts) {
  size_t n = 0;
  for (const DiGraph& p : parts) n += p.num_vertices();
  DiGraph g(n);
  VertexId offset = 0;
  for (const DiGraph& p : parts) {
    for (const Edge& e : p.edges()) {
      AddOrDie(&g, e.src + offset, e.dst + offset, e.label);
    }
    offset += static_cast<VertexId>(p.num_vertices());
  }
  return g;
}

/// Every edge gets k/2^kLog2Den with k in [1, 2^kLog2Den - 1], or 1 with
/// probability certain_percent/100.
ProbGraph AttachProbabilities(BenchRng& rng, const DiGraph& g,
                              uint64_t certain_percent) {
  const int64_t den = int64_t{1} << kLog2Den;
  std::vector<Rational> probs;
  probs.reserve(g.num_edges());
  for (size_t e = 0; e < g.num_edges(); ++e) {
    if (rng.Between(0, 99) < certain_percent) {
      probs.push_back(Rational::One());
    } else {
      probs.emplace_back(static_cast<int64_t>(rng.Between(1, den - 1)), den);
    }
  }
  return ProbGraph(g, std::move(probs));
}

// --- Text forms (cold-text) ---------------------------------------------------

std::string InstanceText(const ProbGraph& g, const phom::Alphabet& alphabet) {
  std::string out = std::to_string(g.num_vertices()) + " " +
                    std::to_string(g.num_edges()) + "\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.graph().edge(e);
    out += std::to_string(edge.src) + " " + std::to_string(edge.dst) + " " +
           alphabet.Name(edge.label) + " " + g.prob(e).ToString() + "\n";
  }
  return out;
}

std::string QueryText(const DiGraph& q, const phom::Alphabet& alphabet) {
  std::string out;
  for (const Edge& e : q.edges()) {
    if (!out.empty()) out += ", ";
    out += alphabet.Name(e.label) + "(x" + std::to_string(e.src) + ",x" +
           std::to_string(e.dst) + ")";
  }
  return out;
}

std::string UcqText(const Ucq& u, const phom::Alphabet& alphabet) {
  std::string out;
  for (const DiGraph& d : u.disjuncts) {
    if (!out.empty()) out += " | ";
    out += QueryText(d, alphabet);
  }
  return out;
}

// --- Assembly ----------------------------------------------------------------

/// A cell of a workload: its weight in the stratified request order and the
/// generator of its next request (which may add instances).
struct Cell {
  std::string name;
  size_t weight;
  std::function<Request(BenchRng&)> next;
};

/// Lays out `cycles` cycles of the weighted cell list. A slice of
/// cycles/passes consecutive cycles holds the same mix as any other.
void Stratify(Workload* w, BenchRng& rng, std::vector<Cell>& cells,
              size_t cycles) {
  for (size_t c = 0; c < cycles; ++c) {
    for (Cell& cell : cells) {
      for (size_t k = 0; k < cell.weight; ++k) {
        Request r = cell.next(rng);
        r.cell = cell.name;
        w->requests.push_back(std::move(r));
      }
    }
  }
}

/// Makes the requests so far the distinct ones and repeats them to a round
/// of `copies` whole copies (each copy keeps the stratification).
void Replay(Workload* w, size_t copies) {
  w->distinct = w->requests.size();
  w->requests.reserve(w->distinct * copies);
  for (size_t k = 1; k < copies; ++k) {
    for (size_t i = 0; i < w->distinct; ++i) {
      w->requests.push_back(w->requests[i]);
    }
  }
}

size_t AddInstance(Workload* w, ProbGraph g, std::string shape) {
  InstanceInfo info;
  info.shape = std::move(shape);
  info.labels = g.graph().UsedLabels().size();
  w->instances.push_back(std::move(g));
  w->info.push_back(std::move(info));
  return w->instances.size() - 1;
}

/// Instances of one shape; requests take them in turn.
struct Pool {
  std::vector<size_t> ids;
  size_t next = 0;
  size_t Next() { return ids[next++ % ids.size()]; }
};

Pool MakePool(Workload* w, BenchRng& rng, size_t count,
              const std::function<DiGraph()>& shape, const std::string& name) {
  Pool pool;
  for (size_t i = 0; i < count; ++i) {
    pool.ids.push_back(
        AddInstance(w, AttachProbabilities(rng, shape(), 0), name));
  }
  return pool;
}

Request CqRequest(size_t instance, DiGraph query) {
  Request r;
  r.instance = instance;
  r.query = std::move(query);
  return r;
}

void MakeExactTables(Workload* w, BenchRng& rng) {
  const LabelId R = w->alphabet.Intern("R");
  const LabelId S = w->alphabet.Intern("S");
  const LabelId E = w->alphabet.Intern("E");
  const std::vector<LabelId> rs = {R, S};
  const std::vector<LabelId> e = {E};

  const size_t k = kExactInstancesPerCell;
  Pool dwt = MakePool(w, rng, k, [&] {
    return DownwardTree(rng, kExactDwtVertices, rs, true);
  }, "DWT");
  Pool twp = MakePool(w, rng, k, [&] {
    return Union({TwoWayPath(rng, kExact2wpEdges, rs, true),
                  TwoWayPath(rng, kExact2wpEdges, rs, true)});
  }, "2WP+2WP");
  Pool udwt = MakePool(w, rng, k, [&] {
    return DownwardTree(rng, kExactUnlabeledDwtVertices, e, true);
  }, "DWT, unlabeled");
  Pool upt = MakePool(w, rng, k, [&] {
    return Polytree(rng, kExactPolytreeVertices, e, true);
  }, "PT, unlabeled");
  Pool mixed = MakePool(w, rng, k, [&] {
    return Union({DownwardTree(rng, kExactMixedPart, rs, true),
                  TwoWayPath(rng, kExactMixedPart, rs, true),
                  Polytree(rng, kExactMixedPolytree, rs, true)});
  }, "DWT+2WP+PT");
  Pool hard = MakePool(w, rng, k, [&] {
    return Cyclic(rng, kExactHardVertices, kExactHardExtra, rs);
  }, "cyclic");
  std::vector<Cell> cells = {
      {"path-on-dwt", 3,
       [&](BenchRng& r) {
         return CqRequest(dwt.Next(), TwoLabelPath(r, r.Between(2, 4), rs));
       }},
      {"connected-on-2wp", 3,
       [&](BenchRng& r) {
         DiGraph q = r.Between(0, 1) == 0
                         ? TwoWayPath(r, r.Between(2, 4), rs, false)
                         : DownwardTree(r, r.Between(3, 4), rs, false);
         return CqRequest(twp.Next(), std::move(q));
       }},
      {"unlabeled-dwt-instance", 2,
       [&](BenchRng& r) {
         return CqRequest(udwt.Next(), Polytree(r, r.Between(3, 6), e, false));
       }},
      {"unlabeled-polytree", 2,
       [&](BenchRng& r) {
         return CqRequest(upt.Next(), DownwardTree(r, r.Between(3, 5), e, false));
       }},
      {"per-component", 2,
       [&](BenchRng& r) {
         return CqRequest(mixed.Next(), TwoLabelPath(r, r.Between(2, 3), rs));
       }},
      {"fallback", 1,
       [&](BenchRng& r) {
         // A disconnected query: no engine of the dichotomy applies.
         return CqRequest(hard.Next(), Union({OneWayPath(r, r.Between(1, 2), rs),
                                            OneWayPath(r, 1, rs)}));
       }},
  };
  Stratify(w, rng, cells, kExactCycles);
  Replay(w, 1);
  w->passes = kExactPasses;
}

void MakeServeInterval(Workload* w, BenchRng& rng) {
  const LabelId R = w->alphabet.Intern("R");
  const LabelId S = w->alphabet.Intern("S");
  const LabelId T = w->alphabet.Intern("T");
  const LabelId U = w->alphabet.Intern("U");
  const std::vector<LabelId> all = {R, S, T, U};
  const std::vector<LabelId> rs = {R, S};
  const std::vector<LabelId> tu = {T, U};

  auto forest = [&](bool dwt) {
    std::vector<DiGraph> parts;
    for (size_t i = 0; i < kServeParts; ++i) {
      parts.push_back(dwt ? DownwardTree(rng, kServeDwtVertices, all, true)
                          : TwoWayPath(rng, kServe2wpEdges, all, true));
    }
    return Union(parts);
  };
  const size_t k = kServeInstancesPerShape;
  Pool dwt = MakePool(w, rng, k, [&] { return forest(true); },
                      std::to_string(kServeParts) + "xDWT");
  Pool twp = MakePool(w, rng, k, [&] { return forest(false); },
                      std::to_string(kServeParts) + "x2WP");
  auto connected_query = [&](BenchRng& r, const std::vector<LabelId>& labels) {
    return r.Between(0, 1) == 0 ? TwoWayPath(r, r.Between(2, 3), labels, false)
                                : DownwardTree(r, r.Between(3, 4), labels,
                                               false);
  };
  auto ucq = [&](BenchRng& r, bool on_dwt) {
    // Two label-disjoint disjuncts: an independent union of two units.
    Request req;
    req.is_ucq = true;
    req.instance = on_dwt ? dwt.Next() : twp.Next();
    if (on_dwt) {
      req.ucq.disjuncts = {OneWayPath(r, r.Between(2, 3), rs),
                           OneWayPath(r, r.Between(2, 3), tu)};
    } else {
      req.ucq.disjuncts = {connected_query(r, rs), connected_query(r, tu)};
    }
    return req;
  };
  std::vector<Cell> cells = {
      {"path-on-dwt", 1,
       [&](BenchRng& r) {
         return CqRequest(dwt.Next(), OneWayPath(r, r.Between(2, 4), all));
       }},
      {"connected-on-2wp", 1,
       [&](BenchRng& r) {
         return CqRequest(twp.Next(), connected_query(r, all));
       }},
      {"ucq-on-dwt", 1, [&](BenchRng& r) { return ucq(r, true); }},
      {"ucq-on-2wp", 1, [&](BenchRng& r) { return ucq(r, false); }},
  };
  Stratify(w, rng, cells, kServeDistinct / cells.size());
  Replay(w, kServeReplays);
  w->passes = kServePasses;
}

void MakeColdText(Workload* w, BenchRng& rng) {
  const LabelId R = w->alphabet.Intern("R");
  const LabelId S = w->alphabet.Intern("S");
  const LabelId E = w->alphabet.Intern("E");
  const std::vector<LabelId> rs = {R, S};
  const std::vector<LabelId> e = {E};
  const std::vector<LabelId> just_r = {R};
  const std::vector<LabelId> just_s = {S};

  auto connected = [](BenchRng& r, const std::vector<LabelId>& labels) {
    return r.Between(0, 1) == 0 ? TwoWayPath(r, r.Between(2, 3), labels, false)
                                : DownwardTree(r, r.Between(3, 4), labels,
                                               false);
  };
  // Each kind is an instance shape plus the queries asked of it: tractable
  // cells of Tables 1-3 (CQs and label-disjoint, liftable UCQs), and one
  // kind of #P-hard cells on instances small enough for the exponential
  // engines (≤ 7 uncertain edges).
  struct Kind {
    std::string name;
    std::function<DiGraph(BenchRng&)> instance;
    std::function<Request(BenchRng&, size_t)> request;  // k-th query
  };
  auto cq = [](DiGraph q) {
    Request r;
    r.query = std::move(q);
    return r;
  };
  auto ucq = [](std::vector<DiGraph> disjuncts) {
    Request r;
    r.is_ucq = true;
    r.ucq.disjuncts = std::move(disjuncts);
    return r;
  };
  const std::vector<Kind> kinds = {
      {"2wp", [&](BenchRng& r) { return TwoWayPath(r, 10, rs, true); },
       [&](BenchRng& r, size_t k) {
         return k < 2 ? cq(connected(r, rs))
                      : ucq({connected(r, just_r), connected(r, just_s)});
       }},
      {"dwt", [&](BenchRng& r) { return DownwardTree(r, 10, rs, true); },
       [&](BenchRng& r, size_t k) {
         return k < 2 ? cq(TwoLabelPath(r, r.Between(2, 3), rs))
                      : ucq({OneWayPath(r, r.Between(1, 2), just_r),
                             OneWayPath(r, r.Between(1, 2), just_s)});
       }},
      {"unlabeled-dwt", [&](BenchRng& r) { return DownwardTree(r, 10, e, true); },
       [&](BenchRng& r, size_t) {
         return cq(Polytree(r, r.Between(3, 4), e, false));
       }},
      {"unlabeled-pt", [&](BenchRng& r) { return Polytree(r, 10, e, true); },
       [&](BenchRng& r, size_t) {
         return cq(DownwardTree(r, r.Between(3, 4), e, false));
       }},
      {"forest",
       [&](BenchRng& r) {
         return Union({DownwardTree(r, 6, rs, true), TwoWayPath(r, 5, rs, true)});
       },
       [&](BenchRng& r, size_t k) {
         return k < 2 ? cq(TwoLabelPath(r, 2, rs))
                      : ucq({OneWayPath(r, 2, just_r), OneWayPath(r, 2, just_s)});
       }},
      {"hard", [&](BenchRng& r) { return Cyclic(r, 6, 2, rs); },
       [&](BenchRng& r, size_t k) {
         switch (k) {
           case 0: return cq(Cyclic(r, 3, 1, rs));
           case 1: return cq(TwoWayPath(r, 3, rs, true));
           default: return ucq({connected(r, rs), connected(r, rs)});
         }
       }},
  };

  for (size_t i = 0; i < kColdInstances; ++i) {
    const Kind& kind = kinds[i % kinds.size()];
    const size_t inst = AddInstance(
        w, AttachProbabilities(rng, kind.instance(rng), 0), kind.name);
    w->info[inst].text = InstanceText(w->instances[inst], w->alphabet);
    for (size_t k = 0; k < kColdQueries; ++k) {
      Request req = kind.request(rng, k);
      req.instance = inst;
      req.cell = kind.name + (req.is_ucq ? "-ucq" : "-cq");
      req.query_text = req.is_ucq ? UcqText(req.ucq, w->alphabet)
                                  : QueryText(req.query, w->alphabet);
      w->requests.push_back(std::move(req));
    }
  }
  Replay(w, kColdReplays);
  w->passes = kColdPasses;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"exact-tables",
                                                 "serve-interval", "cold-text"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // Each workload draws from its own stream of the seed.
  uint64_t stream = 0xcbf29ce484222325ull;  // FNV-1a of the name
  for (char c : name) stream = (stream ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  BenchRng rng(seed * 0x9e3779b97f4a7c15ull ^ stream);
  if (name == "exact-tables") {
    MakeExactTables(&w, rng);
  } else if (name == "serve-interval") {
    MakeServeInterval(&w, rng);
  } else if (name == "cold-text") {
    MakeColdText(&w, rng);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    std::abort();
  }
  return w;
}

}  // namespace perfbench
