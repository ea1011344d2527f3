#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

/// \file run.h
/// The timed phase, the traced phase, the make-up report and the result
/// line.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object as the last line of stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

/// Whole rounds of the request list, each cut into the workload's equal
/// passes, until `seconds` have elapsed (at least one round).
struct RunOutcome {
  std::vector<double> pass_qps;
  std::vector<double> pass_cpu_ms_per_query;
  std::vector<double> round_p50_ms;
  std::vector<double> round_p90_ms;
  /// The first round's answers and latencies, aligned with the request
  /// list. Every later answer to request i must equal
  /// first_round[i % distinct] bit for bit; CheckAll checks the distinct
  /// ones.
  std::vector<Result<SolveResult>> first_round;
  std::vector<double> first_round_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;  ///< answers that differ from the first round's
  double peak_rss_mb = 0.0;  ///< at the end of the timed phase
};

RunOutcome TimedRun(Bench& bench, double seconds);

/// throughput_qps, latency_p50_ms, latency_p90_ms, cpu_ms_per_query and
/// peak_rss_mb: medians over passes (rates) and over rounds (percentiles).
std::vector<Metric> EndToEndMetrics(const RunOutcome& run);

/// The traced phase: the same requests, layer by layer, for `seconds`;
/// prints the per-layer metrics and returns the exit code.
int TracedRun(Bench& bench, const std::vector<Reference>& refs,
              const RunOutcome& untraced, double seconds);

/// Prints the workload's make-up as markdown.
void PrintMakeup(const Bench& bench, const RunOutcome& run,
                 const std::vector<Reference>& refs);

}  // namespace perfbench
