// phom_perfbench: the end-to-end benchmark of the solver and its serve layer.
//
//   phom_perfbench --workload <exact-tables|serve-interval|cold-text>
//                  [--seed N] [--seconds S] [--trace 0|1] [--makeup 1]
//
// Prints progress to stderr and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
// per-layer metrics instead of the end-to-end ones; --makeup 1 prints the
// workload's make-up report (markdown) instead of measuring. --seconds
// defaults to BENCHMARK.json's run_seconds. Exits non-zero when a request
// fails or an answer fails a check.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/run.h"

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 1;
/// The length of a run BENCHMARK.json declares (run_seconds).
constexpr double kDefaultSeconds = 30.0;
/// From-scratch set-up repetitions; setup_s is their median.
constexpr int kSetupRepetitions = 7;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool trace = false;
  bool makeup = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "phom_perfbench: %s\nusage: phom_perfbench --workload "
               "<exact-tables|serve-interval|cold-text> [--seed N] "
               "[--seconds S] [--trace 0|1] [--makeup 0|1]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--makeup") {
      a.makeup = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& n : WorkloadNames()) known = known || n == a.workload;
  if (!known) Usage("unknown or missing --workload");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  // Set-up: several from-scratch repetitions; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    bench = SetUp(args.workload, args.seed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  // The timed phase (a single round for the make-up report); then the
  // checks of its answers, outside any timed pass.
  const double timed_s =
      args.makeup ? 0.0 : args.trace ? args.seconds / 2 : args.seconds;
  RunOutcome run = TimedRun(*bench, timed_s);
  std::vector<Reference> refs;
  std::string error;
  const Clock::time_point checks_start = Clock::now();
  const bool checked = CheckAll(*bench, run.first_round, &refs, &error);
  std::fprintf(stderr, "perfbench: %s seed %llu: checks %s in %.2f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               checked ? "passed" : "FAILED",
               SecondsBetween(checks_start, Clock::now()));
  if (!checked) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    PrintResult(false, run.attempted, run.failed, {});
    return 1;
  }

  if (args.makeup) {
    PrintMakeup(*bench, run, refs);
    return 0;
  }
  if (args.trace) {
    return TracedRun(*bench, refs, run, args.seconds / 2);
  }
  std::vector<Metric> metrics = EndToEndMetrics(run);
  metrics.insert(metrics.begin(), Metric{"setup_s", Median(setup_s), "s"});
  const bool correct = run.mismatched == 0 && run.failed == 0;
  PrintResult(correct, run.attempted, run.failed, metrics);
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %llu requests failed, %llu answers differ from "
                 "the first round's\n",
                 static_cast<unsigned long long>(run.failed),
                 static_cast<unsigned long long>(run.mismatched));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
