#include "perfbench/src/bench.h"

#include <condition_variable>
#include <mutex>

#include "perfbench/src/checks.h"
#include "perfbench/src/measure.h"
#include "src/core/case.h"
#include "src/graph/classify.h"
#include "src/graph/cq_parser.h"
#include "src/graph/io.h"
#include "src/lifted/lift.h"

namespace perfbench {

using phom::DiGraph;
using phom::EvalSession;
using phom::NumericBackend;
using phom::PreparedProblem;
using phom::ProbGraph;
using phom::Rational;
using phom::SolveOptions;
using phom::Solver;
using phom::Status;
namespace serve = phom::serve;

namespace {

bool IsServe(const Bench& b) { return b.w.name == "serve-interval"; }
bool IsCold(const Bench& b) { return b.w.name == "cold-text"; }

/// cold-text's front door: instance text and query text, parsed into a
/// fresh alphabet and answered by a fresh Solver (default exact backend).
Result<SolveResult> SolveFromText(const Workload& w, const Request& r) {
  phom::Alphabet alphabet;
  Result<ProbGraph> instance =
      phom::ParseProbGraph(w.info[r.instance].text, &alphabet);
  if (!instance.ok()) return instance.status();
  if (r.is_ucq) {
    Result<phom::ParsedUcq> ucq = phom::ParseUcq(r.query_text, &alphabet);
    if (!ucq.ok()) return ucq.status();
    return Solver().SolveUcq(ucq->ucq, *instance);
  }
  Result<phom::ParsedQuery> query =
      phom::ParseConjunctiveQuery(r.query_text, &alphabet);
  if (!query.ok()) return query.status();
  return Solver().Solve(query->graph, *instance);
}

PassOutcome RunSerialPass(Bench& b, size_t begin, size_t end) {
  PassOutcome out;
  out.latency_ms.reserve(end - begin);
  out.results.reserve(end - begin);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  for (size_t i = begin; i < end; ++i) {
    const Request& r = b.w.requests[i];
    const Clock::time_point s = Clock::now();
    if (IsCold(b)) {
      out.results.push_back(SolveFromText(b.w, r));
    } else {
      out.results.push_back(b.sessions[r.instance]->Solve(r.query));
    }
    out.latency_ms.push_back(1e3 * SecondsBetween(s, Clock::now()));
  }
  out.wall_s = SecondsBetween(t0, Clock::now());
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  return out;
}

/// Closed loop: at most kServeWindow requests in flight; the next request
/// is submitted as soon as one completes. Latency runs from just before
/// Submit to the completion callback.
PassOutcome RunServePass(Bench& b, size_t begin, size_t end,
                         ServeTrace* trace) {
  const size_t n = end - begin;
  PassOutcome out;
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;  // guarded by mu
  std::vector<Clock::time_point> submitted(n);
  std::vector<Clock::time_point> finished(n);
  std::vector<serve::SolveTicket> tickets(n);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  for (size_t k = 0; k < n; ++k) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return k - completed < kServeWindow; });
    }
    const size_t i = begin + k;
    const Request& r = b.w.requests[i];
    serve::SolveRequest request =
        r.is_ucq ? serve::SolveRequest(b.shared_ucqs[i])
                 : serve::SolveRequest(b.shared_queries[i]);
    submitted[k] = Clock::now();
    tickets[k] = b.executor->Submit(
        *b.sessions[r.instance], std::move(request),
        [&, k](const Result<SolveResult>&, const serve::RequestStats&) {
          finished[k] = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
          cv.notify_one();
        });
    if (trace != nullptr) {
      trace->submit_us.push_back(1e6 *
                                 SecondsBetween(submitted[k], Clock::now()));
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == n; });
  }
  out.wall_s = SecondsBetween(t0, Clock::now());
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.latency_ms.reserve(n);
  out.results.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    out.latency_ms.push_back(1e3 * SecondsBetween(submitted[k], finished[k]));
    if (trace != nullptr) {
      const serve::RequestStats stats = tickets[k].stats();
      trace->queue_wait_ms.push_back(
          1e3 * std::chrono::duration<double>(stats.queue_delay()).count());
      trace->solve_ms.push_back(
          1e3 * std::chrono::duration<double>(stats.solve_time()).count());
    }
    out.results.push_back(tickets[k].Take());
  }
  return out;
}

// --- Checks ------------------------------------------------------------------

/// Pr(query ⇝ instance) computed without the engine auto dispatch picked:
/// world enumeration when few uncertain edges carry the query's labels;
/// otherwise, for a connected query, Lemma 3.7 over the components, each
/// solved by this same rule; and on a single large component, a second
/// registered engine (dwt-lineage-shannon where it applies, else
/// match-lineage), neither of which auto dispatch ever selects.
Result<Rational> SecondOpinion(const DiGraph& query, const ProbGraph& instance,
                               std::string* how) {
  const ProbGraph relevant = instance.RestrictToLabels(query.UsedLabels());
  if (UncertainEdges(relevant) <= 12) {
    *how = "world-enumeration";
    return EnumerateWorlds({query}, instance);
  }
  if (phom::IsConnected(query)) {
    std::vector<phom::ComponentView> parts = phom::SplitComponents(relevant);
    if (parts.size() >= 2) {
      std::vector<Rational> answers;
      for (const phom::ComponentView& part : parts) {
        std::string part_how;
        Result<Rational> p = SecondOpinion(query, part.graph, &part_how);
        if (!p.ok()) return p.status();
        answers.push_back(*p);
      }
      *how = "lemma-3.7";
      return CombineIndependent(answers);
    }
  }
  for (const char* engine : {"dwt-lineage-shannon", "match-lineage"}) {
    SolveOptions options;
    options.force_engine = engine;
    Result<SolveResult> r = Solver(options).Solve(query, instance);
    if (r.ok()) {
      *how = engine;
      return r->probability;
    }
    if (r.status().code() != Status::Code::kNotSupported) return r.status();
  }
  return Status::NotSupported("no second engine applies");
}

std::string Describe(const Bench& b, size_t i) {
  const Request& r = b.w.requests[i];
  return b.w.name + " request " + std::to_string(i) + " (" + r.cell +
         ", instance " + std::to_string(r.instance) + ")";
}

}  // namespace

std::unique_ptr<Bench> SetUp(const std::string& workload, uint64_t seed) {
  auto b = std::make_unique<Bench>();
  b->w = MakeWorkload(workload, seed);
  if (!IsCold(*b)) {
    SolveOptions options;
    if (IsServe(*b)) options.numeric = NumericBackend::kIntervalDouble;
    for (const ProbGraph& g : b->w.instances) {
      b->sessions.push_back(std::make_unique<EvalSession>(g, options));
    }
  }
  if (IsServe(*b)) {
    serve::ExecutorOptions options;
    options.threads = kServeThreads;
    b->executor = std::make_unique<serve::BatchExecutor>(options);
    // Replays share one copy of their distinct request's query.
    for (size_t i = 0; i < b->w.requests.size(); ++i) {
      const Request& r = b->w.requests[i];
      if (i < b->w.distinct) {
        b->shared_queries.push_back(
            r.is_ucq ? nullptr : std::make_shared<const DiGraph>(r.query));
        b->shared_ucqs.push_back(
            r.is_ucq ? std::make_shared<const phom::Ucq>(r.ucq) : nullptr);
      } else {
        b->shared_queries.push_back(b->shared_queries[i % b->w.distinct]);
        b->shared_ucqs.push_back(b->shared_ucqs[i % b->w.distinct]);
      }
    }
  }
  RunPass(*b, 0, b->w.requests.size() / b->w.passes);
  return b;
}

PassOutcome RunPass(Bench& bench, size_t begin, size_t end,
                    ServeTrace* trace) {
  return IsServe(bench) ? RunServePass(bench, begin, end, trace)
                        : RunSerialPass(bench, begin, end);
}

SolveOptions WorkloadOptions(const Bench& b, size_t index) {
  return IsCold(b) ? SolveOptions()
                   : b.sessions[b.w.requests[index].instance]->options();
}

PreparedProblem PrepareRequest(Bench& b, size_t index) {
  const Request& r = b.w.requests[index];
  if (IsCold(b)) {
    const ProbGraph& g = b.w.instances[r.instance];
    return r.is_ucq ? phom::lifted::PrepareUcq(r.ucq, g)
                    : phom::PrepareProblem(r.query, g);
  }
  EvalSession& s = *b.sessions[r.instance];
  return r.is_ucq ? s.PrepareUcq(r.ucq) : s.Prepare(r.query);
}

bool CheckAll(Bench& b, const std::vector<Result<SolveResult>>& answers,
              std::vector<Reference>* refs, std::string* error) {
  refs->assign(b.w.distinct, Reference{});
  for (size_t i = 0; i < b.w.distinct; ++i) {
    const Request& r = b.w.requests[i];
    const ProbGraph& instance = b.w.instances[r.instance];
    auto fail = [&](const std::string& what) {
      *error = Describe(b, i) + ": " + what;
      return false;
    };
    if (!answers[i].ok()) {
      return fail("request failed: " + answers[i].status().ToString());
    }
    const SolveResult& answer = *answers[i];
    Reference& ref = (*refs)[i];
    ref.engine = answer.stats.engine;
    ref.ucq_units = answer.stats.ucq_units;
    if (IsServe(b)) {
      // The executor's answer is the serial one, bit for bit.
      const PreparedProblem prepared = PrepareRequest(b, i);
      Result<SolveResult> serial =
          phom::SolvePrepared(prepared, WorkloadOptions(b, i));
      if (!serial.ok() || !SameAnswer(answer, *serial)) {
        return fail("executor answer differs from the serial SolvePrepared");
      }
      // The exact answer must lie in the certified enclosure.
      Result<SolveResult> e = phom::SolvePrepared(prepared, SolveOptions());
      if (!e.ok()) return fail("exact solve failed: " + e.status().ToString());
      ref.exact = e->probability;
      if (!EnclosureContains(answer.bound, ref.exact)) {
        return fail("enclosure does not contain the exact answer " +
                    ref.exact.ToString());
      }
    } else {
      ref.exact = answer.probability;
    }
    const std::string property =
        CheckDyadicProbability(ref.exact, UncertainEdges(instance));
    if (!property.empty()) return fail(property);

    if (IsCold(b)) {
      const std::vector<DiGraph> disjuncts =
          r.is_ucq ? r.ucq.disjuncts : std::vector<DiGraph>{r.query};
      const Rational truth = EnumerateWorlds(disjuncts, instance);
      if (truth != ref.exact) {
        return fail("answer " + ref.exact.ToString() +
                    " != world enumeration " + truth.ToString());
      }
    } else if (!r.is_ucq) {
      std::string how;
      Result<Rational> second = SecondOpinion(r.query, instance, &how);
      if (!second.ok()) {
        return fail("second opinion failed: " + second.status().ToString());
      }
      if (*second != ref.exact) {
        return fail("answer " + ref.exact.ToString() + " != " + how + " " +
                    second->ToString());
      }
    }
  }
  return true;
}

}  // namespace perfbench
