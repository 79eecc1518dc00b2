// puntbench: drives punt from outside, through its public library calls
// and through the serve daemon's wire protocol, and prints one JSON result
// line (see README.md).
//
//   puntbench --workload registry|pipelines|serve --seed N --seconds S --trace 0|1
//   puntbench --self-test       the output checks' own test
//   puntbench --roundtrip       literal totals: registry constructors vs .g text
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "flow.hpp"
#include "serve.hpp"
#include "src/benchmarks/registry.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/error.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/xorshift.hpp"

namespace puntbench {
namespace {

/// State budget of the pipelines' full-conformance check: instances whose
/// state graph is larger get the token-game walk alone.
constexpr std::size_t kConformanceStates = 20000;
/// Firings per token-game walk.
constexpr std::size_t kWalkSteps = 20000;

struct Op {
  std::size_t input = 0;
  std::size_t combo = 0;
};

/// Every input × combo, input-major, rotated by the seed: the seed picks
/// the first input and the first combo, while which syntheses follow which
/// (and so what the caches hold) stays the same for every seed.
std::vector<Op> seeded_ops(std::size_t inputs, std::size_t combos, std::uint64_t seed) {
  punt::XorShift random(seed * 0x9E3779B97F4A7C15ull + 1);
  const std::size_t input_start = random.below(inputs);
  const std::size_t combo_start = random.below(combos);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < inputs; ++i) {
    for (std::size_t c = 0; c < combos; ++c) {
      ops.push_back({(input_start + i) % inputs, (combo_start + c) % combos});
    }
  }
  return ops;
}

std::string op_label(const std::vector<Prepared>& prepared, const std::vector<Combo>& combos,
                     const Op& op) {
  return prepared[op.input].name + " " + combos[op.combo].method_name + "/" +
         combos[op.combo].arch_name;
}

/// One pass over `ops`, appending each synthesis's wall time to `op_ms`.
/// The first pass's circuits are kept in `first`; later passes are checked
/// against them, so every pass must render the same circuits.
void run_pass(const std::vector<Prepared>& prepared, const std::vector<Combo>& combos,
              const std::vector<Op>& ops, punt::core::ModelCache& cache, Tracer* tracer,
              std::vector<Circuit>& first, std::vector<double>& op_ms, Layers* layers,
              Outcome& out) {
  const bool keep = first.empty();
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Op& op = ops[k];
    Tracer::Scope span(tracer, "op");
    punt::Stopwatch watch;
    Circuit circuit = synthesize(prepared[op.input], combos[op.combo], cache, tracer);
    op_ms.push_back(watch.millis());
    ++out.attempted;
    if (!circuit.ok) {
      ++out.failed;
      std::fprintf(stderr, "failed: %s: %s\n", op_label(prepared, combos, op).c_str(),
                   circuit.error.c_str());
    }
    if (layers != nullptr) count_work(circuit, *layers);
    if (keep) {
      first.push_back(std::move(circuit));
    } else if (circuit.ok && first[k].ok && circuit.eqn != first[k].eqn) {
      out.fail(op_label(prepared, combos, op) + ": circuit differs between passes");
    }
  }
}

/// Checks every circuit of one pass against the specification.
void check_circuits(const std::string& workload, const std::vector<Prepared>& prepared,
                    const std::vector<Combo>& combos, const std::vector<Op>& ops,
                    const std::vector<Circuit>& circuits, std::uint64_t seed,
                    Outcome& out) {
  const bool registry = workload == "registry";
  std::vector<std::optional<punt::sg::StateGraph>> graphs(prepared.size());
  std::size_t conformance_checked = 0;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    punt::sg::BuildOptions options;
    options.state_budget = registry ? 0 : kConformanceStates;
    try {
      graphs[i] = punt::sg::StateGraph::build(prepared[i].stg, options);
    } catch (const punt::CapacityError&) {
      if (registry) out.fail(prepared[i].name + ": state graph does not fit");
    }
  }
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Circuit& circuit = circuits[k];
    if (!circuit.ok) continue;  // counted as failed
    const Prepared& input = prepared[ops[k].input];
    const std::string label = op_label(prepared, combos, ops[k]);
    if (graphs[ops[k].input]) {
      const std::string why = conformance_error(*graphs[ops[k].input], *circuit.netlist);
      if (!why.empty()) out.fail(label + ": does not conform: " + why);
      ++conformance_checked;
    }
    if (!registry) {
      const std::string why = walk_error(input.stg, *circuit.netlist, seed + k, kWalkSteps);
      if (!why.empty()) out.fail(label + ": token-game walk: " + why);
    }
  }
  std::fprintf(stderr, "checks: %zu of %zu circuit(s) by full conformance%s\n",
               conformance_checked, circuits.size(),
               registry ? "" : ", all by the token-game walk");
}

/// `registry` and `pipelines`: set-up, timed whole passes, checks.
Outcome run_in_process(const Args& args) {
  Outcome out;
  const bool registry = args.workload == "registry";
  const std::vector<Input> inputs = registry ? registry_inputs() : pipeline_inputs();
  const std::vector<Combo> combos =
      registry ? all_combos() : std::vector<Combo>{all_combos().front()};

  Tracer tracer;
  Tracer* const trace = args.trace ? &tracer : nullptr;
  Layers layers;

  // Set-up, kSetupRepeats times from a cold cache; the last one's cache and
  // inputs are kept (and traced).
  std::vector<double> setup_seconds;
  std::unique_ptr<punt::core::ModelCache> cache;
  std::vector<Prepared> prepared;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const bool last = r + 1 == kSetupRepeats;
    prepared.clear();
    cache.reset();
    cache = std::make_unique<punt::core::ModelCache>();
    punt::Stopwatch watch;
    prepared = set_up(inputs, combos, *cache, last ? trace : nullptr);
    setup_seconds.push_back(watch.seconds());
  }
  const punt::core::ModelCacheStats after_setup = cache->stats();
  for (const Prepared& p : prepared) {
    layers.unfolding_events += static_cast<double>(p.unfolding_events);
    layers.sg_states += static_cast<double>(p.sg_states);
  }

  const std::vector<Op> ops = seeded_ops(prepared.size(), combos.size(), args.seed);
  std::vector<Circuit> first;

  // Timed whole passes, untraced.  The traced run makes one untraced pass,
  // to measure the tracing overhead against, and then one traced pass.
  std::vector<double> pass_seconds;
  std::vector<double> op_ms;
  const double cpu_before = process_cpu_seconds();
  punt::Stopwatch timed;
  do {
    punt::Stopwatch pass;
    run_pass(prepared, combos, ops, *cache, nullptr, first, op_ms, nullptr, out);
    pass_seconds.push_back(pass.seconds());
  } while (!args.trace && timed.seconds() < args.seconds);
  const double timed_seconds = timed.seconds();
  const double cpu_seconds = process_cpu_seconds() - cpu_before;
  const double peak_rss_mb = process_peak_rss_mb();

  std::size_t literals = 0;
  for (const Circuit& circuit : first) literals += circuit.literals;

  if (args.trace) {
    const punt::core::ModelCacheStats before_pass = cache->stats();
    const long root = static_cast<long>(tracer.spans().size());
    {
      Tracer::Scope span(&tracer, "pass");
      std::vector<double> traced_op_ms;
      run_pass(prepared, combos, ops, *cache, &tracer, first, traced_op_ms, &layers, out);
    }
    const punt::core::ModelCacheStats after_pass = cache->stats();
    layers.self_ms = tracer.self_ms();
    account_pass(tracer, root, {"pass", "op"}, layers, out);
    layers.trace_overhead_ms = layers.pass_wall_ms - 1e3 * median(pass_seconds);
    layers.cache_builds = static_cast<double>(after_setup.builds);
    layers.cache_hits = static_cast<double>(after_pass.hits - before_pass.hits);
    const double lookups = static_cast<double>(after_pass.hits + after_pass.misses -
                                               before_pass.hits - before_pass.misses);
    layers.cache_hit_ratio = lookups > 0 ? layers.cache_hits / lookups : 0;
    const std::string path = ".bench_build/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (tracer.write_json(path)) std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }

  check_circuits(args.workload, prepared, combos, ops, first, args.seed, out);

  if (args.trace) {
    add_layer_metrics(out, layers);
  } else {
    const double ops_done = static_cast<double>(ops.size() * pass_seconds.size());
    out.add("setup_s", median(setup_seconds), "s");
    out.add("throughput_per_s", ops_done / timed_seconds, "1/s");
    // Each synthesis's latency is the median of its passes; the percentiles
    // are taken over the syntheses of a pass.
    std::vector<double> latency_ms;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      std::vector<double> times;
      for (std::size_t at = k; at < op_ms.size(); at += ops.size()) times.push_back(op_ms[at]);
      latency_ms.push_back(median(times));
    }
    out.add("latency_p50_ms", percentile(latency_ms, 50), "ms");
    out.add("latency_p99_ms", percentile(latency_ms, 99), "ms");
    out.add("cpu_ms_per_op", 1e3 * cpu_seconds / ops_done, "ms");
    out.add("literals", static_cast<double>(literals), "count");
    out.add("peak_rss_mb", peak_rss_mb, "MiB");
  }
  std::fprintf(stderr, "%s: %zu pass(es) of %zu synthesis(es), %zu attempted, %zu failed; "
                       "untraced pass walls (s):",
               args.workload.c_str(), pass_seconds.size() + (args.trace ? 1 : 0), ops.size(),
               out.attempted, out.failed);
  for (const double seconds : pass_seconds) std::fprintf(stderr, " %.3f", seconds);
  std::fprintf(stderr, "\n");
  return out;
}

/// Literal totals of the whole sweep, and of approx/acg, synthesised from
/// the registry constructors and from their `.g` text.
int roundtrip() {
  std::size_t sweep[2] = {0, 0};
  std::size_t approx_acg[2] = {0, 0};
  for (const punt::benchmarks::Benchmark& benchmark : punt::benchmarks::table1()) {
    const punt::stg::Stg built = benchmark.make();
    const punt::stg::Stg parsed = punt::stg::parse_g(punt::stg::write_g(built));
    for (const Combo& combo : all_combos()) {
      const bool is_approx_acg = &combo == &all_combos().front();
      const punt::stg::Stg* stgs[2] = {&built, &parsed};
      for (int side = 0; side < 2; ++side) {
        const std::size_t literals =
            punt::core::synthesize(*stgs[side], options_for(combo)).literal_count();
        sweep[side] += literals;
        if (is_approx_acg) approx_acg[side] += literals;
      }
    }
  }
  std::printf("sweep (21 specs x 9 method/arch): constructors %zu, .g text %zu\n",
              sweep[0], sweep[1]);
  std::printf("approx/acg (21 specs):            constructors %zu, .g text %zu\n",
              approx_acg[0], approx_acg[1]);
  return 0;
}

void print_result(const Outcome& out) {
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& metric = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "puntbench: %s\n"
               "usage: puntbench --workload registry|pipelines|serve --seed N "
               "--seconds S --trace 0|1\n"
               "       puntbench --self-test | --roundtrip\n",
               why);
  return 2;
}

}  // namespace
}  // namespace puntbench

int main(int argc, char** argv) {
  using namespace puntbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const std::vector<std::string> failures = self_test();
      for (const std::string& failure : failures) std::fprintf(stderr, "%s\n", failure.c_str());
      std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
      return failures.empty() ? 0 : 1;
    }
    if (arg == "--roundtrip") return roundtrip();
    if (i + 1 >= argc) return usage(("missing value after " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (args.workload != "registry" && args.workload != "pipelines" && args.workload != "serve") {
    return usage(("unknown workload " + args.workload).c_str());
  }
  try {
    const std::vector<std::string> self_test_failures = self_test();
    Outcome out = args.workload == "serve" ? run_serve(args) : run_in_process(args);
    for (const std::string& failure : self_test_failures) out.fail(failure);
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "puntbench: %s\n", e.what());
    return 1;
  }
}
