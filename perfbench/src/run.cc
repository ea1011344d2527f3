#include "perfbench/src/run.h"

#include <cstdio>

#include "perfbench/src/checks.h"
#include "perfbench/src/measure.h"

namespace perfbench {

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

RunOutcome TimedRun(Bench& bench, double seconds) {
  RunOutcome run;
  const Workload& w = bench.w;
  const size_t n = w.requests.size();
  const Clock::time_point start = Clock::now();
  do {
    std::vector<double> latencies;
    latencies.reserve(n);
    const bool first_round = run.first_round.empty();
    for (size_t p = 0; p < w.passes; ++p) {
      const size_t begin = p * n / w.passes;
      const size_t end = (p + 1) * n / w.passes;
      PassOutcome o = RunPass(bench, begin, end);
      run.attempted += end - begin;
      for (size_t k = 0; k < o.results.size(); ++k) {
        const size_t i = begin + k;
        const Result<SolveResult>& r = o.results[k];
        if (!r.ok()) {
          ++run.failed;
        } else if (i >= w.distinct || !first_round) {
          const Result<SolveResult>& ref = run.first_round[i % w.distinct];
          if (!ref.ok() || !SameAnswer(*r, *ref)) ++run.mismatched;
        }
        if (first_round) {
          run.first_round.push_back(std::move(o.results[k]));
          run.first_round_ms.push_back(o.latency_ms[k]);
        }
      }
      const double count = static_cast<double>(end - begin);
      run.pass_qps.push_back(count / o.wall_s);
      run.pass_cpu_ms_per_query.push_back(1e3 * o.cpu_s / count);
      latencies.insert(latencies.end(), o.latency_ms.begin(),
                       o.latency_ms.end());
    }
    run.round_p50_ms.push_back(Percentile(latencies, 0.50));
    run.round_p90_ms.push_back(Percentile(latencies, 0.90));
  } while (SecondsBetween(start, Clock::now()) < seconds);
  run.peak_rss_mb = PeakRssMb();
  return run;
}

std::vector<Metric> EndToEndMetrics(const RunOutcome& run) {
  return {
      {"throughput_qps", Median(run.pass_qps), "1/s"},
      {"latency_p50_ms", Median(run.round_p50_ms), "ms"},
      {"latency_p90_ms", Median(run.round_p90_ms), "ms"},
      {"cpu_ms_per_query", Median(run.pass_cpu_ms_per_query), "ms"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

}  // namespace perfbench
