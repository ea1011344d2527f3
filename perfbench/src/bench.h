#pragma once

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/serve/executor.h"
#include "src/util/rational.h"

/// \file bench.h
/// The benchmark's runtime: set-up of a workload behind its front door, one
/// timed pass over a slice of its requests, and the once-per-distinct-
/// request correctness checks.

namespace perfbench {

using phom::Result;
using phom::SolveResult;

/// Executor width of serve-interval, and its closed-loop window.
inline constexpr size_t kServeThreads = 2;
inline constexpr size_t kServeWindow = 4;

struct Bench {
  Workload w;
  /// One warm session per instance (exact-tables, serve-interval).
  std::vector<std::unique_ptr<phom::EvalSession>> sessions;
  std::unique_ptr<phom::serve::BatchExecutor> executor;  ///< serve-interval
  /// serve-interval: per-request shared inputs, so a submit copies nothing.
  std::vector<std::shared_ptr<const phom::DiGraph>> shared_queries;
  std::vector<std::shared_ptr<const phom::Ucq>> shared_ucqs;
};

/// Generates the workload, builds its sessions and executor, and runs one
/// warm-up pass (the first pass of the round).
std::unique_ptr<Bench> SetUp(const std::string& workload, uint64_t seed);

/// The outcome of requests [begin, end) run through the workload's front
/// door: wall and process CPU time of the pass, per-request latency and
/// answer (aligned with the requests).
struct PassOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<Result<SolveResult>> results;
};

/// What a traced serve-interval pass reads per request from outside the
/// executor: the Submit call's own time and the ticket's RequestStats.
struct ServeTrace {
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> solve_ms;
};

/// `trace` is used by serve-interval only; null for an untraced pass.
PassOutcome RunPass(Bench& bench, size_t begin, size_t end,
                    ServeTrace* trace = nullptr);

/// The checked answer of one distinct request.
struct Reference {
  phom::Rational exact;    ///< the exact probability
  std::string engine;      ///< engine that answered (SolveStats::engine)
  size_t ucq_units = 0;    ///< SolveStats::ucq_units
};

/// Checks the front door's answers to the distinct requests (answers[i] for
/// i < distinct, as a timed round returned them) against the independent
/// computations of checks.h, outside any timed pass. Returns false, with a
/// description in *error, on the first failed request or mismatch.
bool CheckAll(Bench& bench, const std::vector<Result<SolveResult>>& answers,
              std::vector<Reference>* refs, std::string* error);

/// Prepares request `index` as its workload does before solving: through
/// its warm session, or from scratch for cold-text (PrepareProblem /
/// lifted::PrepareUcq on the generated instance).
phom::PreparedProblem PrepareRequest(Bench& bench, size_t index);

/// The options the workload solves with (session options, or the default
/// exact options of a fresh Solver for cold-text).
phom::SolveOptions WorkloadOptions(const Bench& bench, size_t index);

}  // namespace perfbench
