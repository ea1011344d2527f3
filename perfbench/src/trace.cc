// The traced phase: the same requests as the untraced phase, with each
// layer's public call timed from outside (spans around the calls, no
// tracing inside the library), checked bit for bit against the untraced
// answers, and priced against the untraced rate.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/run.h"
#include "src/core/case.h"
#include "src/graph/cq_parser.h"
#include "src/graph/io.h"
#include "src/lifted/lift.h"

namespace perfbench {

using phom::NumericBackend;
using phom::PreparedProblem;
using phom::SolveOptions;

namespace {

/// The engines the workloads reach, each reported as engine.<name>.kernel_ms.
const char* const kEngines[] = {
    "connected-on-2wp",   "path-on-dwt",   "unlabeled-dwt-instance",
    "unlabeled-polytree", "per-component", "fallback",
    "lifted-ucq",
};

/// Per-request samples of each layer's time. A layer a request does not
/// reach contributes 0, so the means add up to a per-query total.
struct Layers {
  std::vector<double> parse_instance_us;
  std::vector<double> parse_query_us;
  std::vector<double> prepare_us;
  std::vector<double> lifted_prepare_us;  ///< UCQ requests only
  std::vector<double> plan_us;
  std::vector<double> kernel_ms;
  std::vector<double> combine_us;
  std::map<std::string, std::vector<double>> engine_kernel_ms;
};

double UsSince(Clock::time_point t) { return 1e6 * SecondsBetween(t, Clock::now()); }

/// One request, layer by layer: (parse), prepare, plan the component
/// dispatch, solve each component or the whole problem, combine.
Result<SolveResult> SolveStepByStep(Bench& b, size_t i, Layers* t) {
  const Request& r = b.w.requests[i];
  const SolveOptions options = WorkloadOptions(b, i);
  PreparedProblem prepared;
  Clock::time_point s = Clock::now();
  if (b.w.name == "cold-text") {
    phom::Alphabet alphabet;
    Result<phom::ProbGraph> instance =
        phom::ParseProbGraph(b.w.info[r.instance].text, &alphabet);
    t->parse_instance_us.push_back(UsSince(s));
    if (!instance.ok()) return instance.status();
    s = Clock::now();
    if (r.is_ucq) {
      Result<phom::ParsedUcq> ucq = phom::ParseUcq(r.query_text, &alphabet);
      t->parse_query_us.push_back(UsSince(s));
      if (!ucq.ok()) return ucq.status();
      s = Clock::now();
      prepared = phom::lifted::PrepareUcq(ucq->ucq, *instance);
    } else {
      Result<phom::ParsedQuery> query =
          phom::ParseConjunctiveQuery(r.query_text, &alphabet);
      t->parse_query_us.push_back(UsSince(s));
      if (!query.ok()) return query.status();
      s = Clock::now();
      prepared = phom::PrepareProblem(query->graph, *instance);
    }
  } else {
    t->parse_instance_us.push_back(0.0);
    t->parse_query_us.push_back(0.0);
    phom::EvalSession& session = *b.sessions[r.instance];
    prepared = r.is_ucq ? session.PrepareUcq(r.ucq) : session.Prepare(r.query);
  }
  t->prepare_us.push_back(UsSince(s));
  if (r.is_ucq) t->lifted_prepare_us.push_back(t->prepare_us.back());

  s = Clock::now();
  const phom::ComponentDispatch dispatch =
      phom::PlanComponentDispatch(prepared, options);
  t->plan_us.push_back(UsSince(s));

  Result<SolveResult> result = phom::Status::Invalid("not solved");
  double kernel_us = 0.0;
  if (dispatch.components > 0) {
    std::vector<Result<SolveResult>> parts;
    parts.reserve(dispatch.components);
    s = Clock::now();
    for (size_t c = 0; c < dispatch.components; ++c) {
      parts.push_back(
          phom::SolvePreparedComponent(prepared, dispatch, c, options));
    }
    kernel_us = UsSince(s);
    s = Clock::now();
    result = phom::CombinePreparedComponents(prepared, dispatch, options,
                                             std::move(parts));
    t->combine_us.push_back(UsSince(s));
  } else {
    s = Clock::now();
    result = phom::SolvePrepared(prepared, options);
    kernel_us = UsSince(s);
    t->combine_us.push_back(0.0);
  }
  t->kernel_ms.push_back(1e-3 * kernel_us);
  if (result.ok()) {
    t->engine_kernel_ms[result->stats.engine].push_back(1e-3 * kernel_us);
  }
  return result;
}

/// Kernel time of SolvePrepared on one prepared problem under `numeric`.
double KernelMs(const PreparedProblem& prepared, SolveOptions options,
                NumericBackend numeric) {
  options.numeric = numeric;
  const Clock::time_point s = Clock::now();
  Result<SolveResult> r = phom::SolvePrepared(prepared, options);
  const double ms = 1e3 * SecondsBetween(s, Clock::now());
  return r.ok() ? ms : 0.0;
}

}  // namespace

int TracedRun(Bench& b, const std::vector<Reference>& refs,
              const RunOutcome& untraced, double seconds) {
  const Workload& w = b.w;
  const size_t n = w.requests.size();
  const bool serve = w.name == "serve-interval";
  Layers layers;
  ServeTrace serve_trace;
  std::vector<double> traced_qps;
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  const phom::serve::ExecutorStats before =
      serve ? b.executor->stats() : phom::serve::ExecutorStats{};
  uint64_t served = 0;

  // Traced passes: whole rounds until `seconds` have elapsed. serve-interval
  // reads its spans from the executor's tickets; the others run their
  // requests layer by layer.
  const Clock::time_point start = Clock::now();
  do {
    for (size_t p = 0; p < w.passes; ++p) {
      const size_t begin = p * n / w.passes;
      const size_t end = (p + 1) * n / w.passes;
      std::vector<Result<SolveResult>> results;
      const Clock::time_point t0 = Clock::now();
      if (serve) {
        results = RunPass(b, begin, end, &serve_trace).results;
        served += end - begin;
      } else {
        for (size_t i = begin; i < end; ++i) {
          results.push_back(SolveStepByStep(b, i, &layers));
        }
      }
      traced_qps.push_back(static_cast<double>(end - begin) /
                           SecondsBetween(t0, Clock::now()));
      attempted += end - begin;
      for (size_t k = 0; k < results.size(); ++k) {
        if (!results[k].ok()) {
          ++failed;
        } else {
          const Result<SolveResult>& ref =
              untraced.first_round[(begin + k) % w.distinct];
          if (!ref.ok() || !SameAnswer(*results[k], *ref)) ++mismatched;
        }
      }
    }
  } while (SecondsBetween(start, Clock::now()) < seconds);
  const phom::serve::ExecutorStats after =
      serve ? b.executor->stats() : phom::serve::ExecutorStats{};

  // serve-interval's layers below the executor: every distinct request
  // once, layer by layer, under the same interval options.
  if (serve) {
    attempted += w.distinct;
    for (size_t i = 0; i < w.distinct; ++i) {
      Result<SolveResult> r = SolveStepByStep(b, i, &layers);
      const Result<SolveResult>& ref = untraced.first_round[i];
      if (!r.ok()) {
        ++failed;
      } else if (!ref.ok() || !SameAnswer(*r, *ref)) {
        ++mismatched;
      }
    }
  }

  // Numeric backends priced against each other on the same prepared
  // problems, and the size of the exact answers.
  std::vector<double> exact_extra, interval_extra, bits, units;
  for (size_t i = 0; i < w.distinct; ++i) {
    const PreparedProblem prepared = PrepareRequest(b, i);
    const SolveOptions options = WorkloadOptions(b, i);
    const double dbl = KernelMs(prepared, options, NumericBackend::kDouble);
    exact_extra.push_back(KernelMs(prepared, options, NumericBackend::kExact) -
                          dbl);
    interval_extra.push_back(
        KernelMs(prepared, options, NumericBackend::kIntervalDouble) - dbl);
    bits.push_back(static_cast<double>(AnswerBits(refs[i].exact)));
    if (w.requests[i].is_ucq) {
      units.push_back(static_cast<double>(refs[i].ucq_units));
    }
  }

  double context_builds = 0.0;
  for (const auto& session : b.sessions) {
    context_builds += static_cast<double>(session->stats().instance_preparations);
  }
  const double per_served = served > 0 ? 1.0 / static_cast<double>(served) : 0.0;
  const double overhead_pct =
      100.0 * (Median(untraced.pass_qps) / Median(traced_qps) - 1.0);

  std::vector<Metric> metrics = {
      {"graph.parse_instance_us", Mean(layers.parse_instance_us), "us"},
      {"graph.parse_query_us", Mean(layers.parse_query_us), "us"},
      {"core.prepare_us", Mean(layers.prepare_us), "us"},
      {"core.context_builds", context_builds, "count"},
      {"lifted.prepare_us", Mean(layers.lifted_prepare_us), "us"},
      {"lifted.units_per_ucq", Mean(units), "count"},
      {"core.plan_us", Mean(layers.plan_us), "us"},
      {"core.kernel_ms", Mean(layers.kernel_ms), "ms"},
  };
  for (const char* engine : kEngines) {
    metrics.push_back({std::string("engine.") + engine + ".kernel_ms",
                       Mean(layers.engine_kernel_ms[engine]), "ms"});
  }
  const std::vector<Metric> rest = {
      {"core.combine_us", Mean(layers.combine_us), "us"},
      {"numeric.exact_extra_ms", Mean(exact_extra), "ms"},
      {"numeric.interval_extra_ms", Mean(interval_extra), "ms"},
      {"numeric.answer_bits_p50", Median(bits), "count"},
      {"serve.submit_us", Mean(serve_trace.submit_us), "us"},
      {"serve.queue_wait_ms_p50", Percentile(serve_trace.queue_wait_ms, 0.5),
       "ms"},
      {"serve.solve_ms_p50", Percentile(serve_trace.solve_ms, 0.5), "ms"},
      {"serve.tasks_stolen_per_query",
       static_cast<double>(after.tasks_stolen - before.tasks_stolen) *
           per_served,
       "count"},
      {"serve.inline_runs_per_query",
       static_cast<double>(after.inline_runs - before.inline_runs) * per_served,
       "count"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());

  std::fprintf(stderr,
               "perfbench: traced %llu requests, %llu failed, %llu differ "
               "from the untraced answers; tracing overhead %.2f%%\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(mismatched), overhead_pct);
  const bool correct = mismatched == 0 && failed == 0 &&
                       untraced.mismatched == 0 && untraced.failed == 0;
  PrintResult(correct, untraced.attempted + attempted,
              untraced.failed + failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
