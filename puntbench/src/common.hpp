// What every workload of the benchmark shares: its arguments, the outcome it
// reports, and the statistics and process measurements behind the metrics.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace puntbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's result: the last line of stdout, as JSON.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed output checks, for stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// In-process workloads set up this many times per run and report the
/// median, so one slow set-up (a descheduling) does not move setup_s.
constexpr std::size_t kSetupRepeats = 9;

/// Share of the traced pass wall that per-layer self times may leave
/// unaccounted (README: "Traced runs").
constexpr double kTraceTolerance = 0.03;

inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

/// Nearest-rank percentile, q in (0, 100].
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

/// User plus system CPU seconds of this process so far.
inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set size of this process so far, in MiB.
inline double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Everything the traced run reports, per pass; a layer a workload does
/// not exercise stays 0.
struct Layers {
  std::map<std::string, double> self_ms;  // span name -> summed self time
  double unfolding_events = 0;
  double sg_states = 0;
  double refine_iterations = 0;
  double exact_fallbacks = 0;
  double cache_hits = 0;
  double cache_builds = 0;
  double cache_hit_ratio = 0;
  double cubes_in = 0;
  double cubes_out = 0;
  double minimize_iterations = 0;
  double service_ms = 0;
  double overhead_ms = 0;
  double codec_us = 0;
  double batches = 0;
  double fused_mean = 0;
  double queue_high_water = 0;
  double shed = 0;
  double layer_sum_ms = 0;      // per-layer self times over the traced pass
  double pass_wall_ms = 0;      // the traced pass, end to end
  double trace_overhead_ms = 0; // traced pass wall minus untraced pass wall

  double self(const char* span) const {
    const auto found = self_ms.find(span);
    return found == self_ms.end() ? 0.0 : found->second;
  }
};

/// Adds every per-layer metric, in BENCHMARK.json's order.
inline void add_layer_metrics(Outcome& out, const Layers& layers) {
  out.add("stg.parse_ms", layers.self("stg.parse"), "ms");
  out.add("lint.admission_ms", layers.self("lint.admission"), "ms");
  out.add("lint.deep_ms", layers.self("lint.deep"), "ms");
  out.add("unfolding.build_ms", layers.self("unfolding.build"), "ms");
  out.add("unfolding.events", layers.unfolding_events, "count");
  out.add("sg.build_ms", layers.self("sg.build"), "ms");
  out.add("sg.states", layers.sg_states, "count");
  out.add("core.model_ms", layers.self("core.model"), "ms");
  out.add("core.derive_ms", layers.self("core.derive"), "ms");
  out.add("core.refine_iterations", layers.refine_iterations, "count");
  out.add("core.exact_fallbacks", layers.exact_fallbacks, "count");
  out.add("core.cache_hits", layers.cache_hits, "count");
  out.add("core.cache_builds", layers.cache_builds, "count");
  out.add("core.cache_hit_ratio", layers.cache_hit_ratio, "ratio");
  out.add("logic.minimize_ms", layers.self("logic.minimize"), "ms");
  out.add("logic.cubes_in", layers.cubes_in, "count");
  out.add("logic.cubes_out", layers.cubes_out, "count");
  out.add("logic.iterations", layers.minimize_iterations, "count");
  out.add("netlist.render_ms", layers.self("netlist.render"), "ms");
  out.add("server.service_ms", layers.service_ms, "ms");
  out.add("server.overhead_ms", layers.overhead_ms, "ms");
  out.add("server.codec_us", layers.codec_us, "us");
  out.add("server.batches", layers.batches, "count");
  out.add("server.fused_mean", layers.fused_mean, "count");
  out.add("server.queue_high_water", layers.queue_high_water, "count");
  out.add("server.shed", layers.shed, "count");
  out.add("trace.layer_sum_ms", layers.layer_sum_ms, "ms");
  out.add("trace.pass_wall_ms", layers.pass_wall_ms, "ms");
  out.add("trace.overhead_ms", layers.trace_overhead_ms, "ms");
}

/// Fills the pass figures of `layers` from the traced pass under span
/// `root`, and fails `out` when the per-layer self times leave more than
/// kTraceTolerance of the pass wall unaccounted.  Spans named in `glue` are
/// the benchmark's own bookkeeping, not a layer.
inline void account_pass(const Tracer& tracer, long root,
                         const std::vector<std::string>& glue, Layers& layers,
                         Outcome& out) {
  layers.pass_wall_ms = tracer.spans()[static_cast<std::size_t>(root)].duration_ms();
  layers.layer_sum_ms = 0;
  for (const auto& [name, ms] : tracer.self_ms(root)) {
    if (std::find(glue.begin(), glue.end(), name) == glue.end()) layers.layer_sum_ms += ms;
  }
  const double unaccounted =
      layers.pass_wall_ms > 0
          ? std::abs(layers.pass_wall_ms - layers.layer_sum_ms) / layers.pass_wall_ms
          : 1.0;
  if (unaccounted > kTraceTolerance) {
    out.fail("traced run: per-layer self times leave " +
             std::to_string(100.0 * unaccounted) + "% of the pass wall unaccounted");
  }
}

}  // namespace puntbench
