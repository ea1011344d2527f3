#include <cstdio>
#include <map>
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/run.h"

namespace perfbench {

namespace {

std::string Range(size_t lo, size_t hi) {
  return lo == hi ? std::to_string(lo)
                  : std::to_string(lo) + "–" + std::to_string(hi);
}

}  // namespace

void PrintMakeup(const Bench& bench, const RunOutcome& run,
                 const std::vector<Reference>& refs) {
  const Workload& w = bench.w;
  std::printf("### %s, seed %llu\n\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed));
  std::printf("%zu requests per round (%zu distinct), cut into %zu passes.\n\n",
              w.requests.size(), w.distinct, w.passes);

  // Instances grouped by shape: count, and min–max of each size.
  struct ShapeStats {
    size_t count = 0;
    size_t min_v = SIZE_MAX, max_v = 0, min_e = SIZE_MAX, max_e = 0;
    size_t min_u = SIZE_MAX, max_u = 0, labels = 0;
  };
  std::map<std::string, ShapeStats> shapes;
  for (size_t i = 0; i < w.instances.size(); ++i) {
    ShapeStats& s = shapes[w.info[i].shape];
    const size_t v = w.instances[i].num_vertices();
    const size_t e = w.instances[i].num_edges();
    const size_t u = UncertainEdges(w.instances[i]);
    ++s.count;
    s.min_v = std::min(s.min_v, v), s.max_v = std::max(s.max_v, v);
    s.min_e = std::min(s.min_e, e), s.max_e = std::max(s.max_e, e);
    s.min_u = std::min(s.min_u, u), s.max_u = std::max(s.max_u, u);
    s.labels = std::max(s.labels, w.info[i].labels);
  }
  std::printf("| instance shape | instances | vertices | edges | uncertain "
              "edges | labels |\n|---|---|---|---|---|---|\n");
  for (const auto& [shape, s] : shapes) {
    std::printf("| %s | %zu | %s | %s | %s | %zu |\n", shape.c_str(), s.count,
                Range(s.min_v, s.max_v).c_str(),
                Range(s.min_e, s.max_e).c_str(),
                Range(s.min_u, s.max_u).c_str(), s.labels);
  }

  struct CellStats {
    size_t count = 0;
    size_t ucqs = 0;
    size_t min_edges = SIZE_MAX, max_edges = 0;
    std::map<std::string, size_t> engines;
    std::vector<double> ms;
    std::vector<double> bits;
  };
  std::map<std::string, CellStats> cells;
  std::map<std::string, size_t> engines;
  std::vector<double> all_bits;
  for (size_t i = 0; i < w.distinct; ++i) {
    const Request& r = w.requests[i];
    CellStats& c = cells[r.cell];
    ++c.count;
    size_t edges = 0;
    if (r.is_ucq) {
      ++c.ucqs;
      for (const DiGraph& d : r.ucq.disjuncts) edges += d.num_edges();
    } else {
      edges = r.query.num_edges();
    }
    c.min_edges = std::min(c.min_edges, edges);
    c.max_edges = std::max(c.max_edges, edges);
    const std::string engine =
        refs[i].engine.empty() ? "(prepared)" : refs[i].engine;
    ++c.engines[engine];
    ++engines[engine];
    c.ms.push_back(run.first_round_ms[i]);
    const double bits = static_cast<double>(AnswerBits(refs[i].exact));
    c.bits.push_back(bits);
    all_bits.push_back(bits);
  }
  std::printf(
      "\n| cell | distinct | UCQs | query edges | engines | latency ms mean / "
      "max | exact bits p50 / max |\n|---|---|---|---|---|---|---|\n");
  for (const auto& [name, c] : cells) {
    std::string engine_list;
    for (const auto& [engine, n] : c.engines) {
      if (!engine_list.empty()) engine_list += ", ";
      engine_list += engine + " " + std::to_string(n);
    }
    double max_ms = 0.0, max_bits = 0.0;
    for (double x : c.ms) max_ms = std::max(max_ms, x);
    for (double x : c.bits) max_bits = std::max(max_bits, x);
    std::printf("| %s | %zu | %zu | %s | %s | %.3f / %.3f | %.0f / %.0f |\n",
                name.c_str(), c.count, c.ucqs,
                Range(c.min_edges, c.max_edges).c_str(), engine_list.c_str(),
                Mean(c.ms), max_ms, Median(c.bits), max_bits);
  }
  std::printf("\nEngine share of distinct requests:");
  for (const auto& [engine, n] : engines) {
    std::printf(" %s %.1f%%;", engine.c_str(),
                100.0 * static_cast<double>(n) / static_cast<double>(w.distinct));
  }
  std::printf("\nExact answer bits: p50 %.0f, max %.0f.\n\n", Median(all_bits),
              Percentile(all_bits, 1.0));
}

}  // namespace perfbench
