#include "flow.hpp"

#include <set>
#include <utility>

#include "src/benchmarks/registry.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/lint.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"

namespace puntbench {

using punt::core::Architecture;
using punt::core::Method;

const std::vector<Combo>& all_combos() {
  static const std::vector<Combo> combos = {
      {Method::UnfoldingApprox, Architecture::ComplexGate, "approx", "acg"},
      {Method::UnfoldingApprox, Architecture::StandardC, "approx", "c"},
      {Method::UnfoldingApprox, Architecture::RsLatch, "approx", "rs"},
      {Method::UnfoldingExact, Architecture::ComplexGate, "exact", "acg"},
      {Method::UnfoldingExact, Architecture::StandardC, "exact", "c"},
      {Method::UnfoldingExact, Architecture::RsLatch, "exact", "rs"},
      {Method::StateGraph, Architecture::ComplexGate, "sg", "acg"},
      {Method::StateGraph, Architecture::StandardC, "sg", "c"},
      {Method::StateGraph, Architecture::RsLatch, "sg", "rs"},
  };
  return combos;
}

std::vector<Input> registry_inputs() {
  std::vector<Input> inputs;
  for (const punt::benchmarks::Benchmark& benchmark : punt::benchmarks::table1()) {
    inputs.push_back({benchmark.name, punt::stg::write_g(benchmark.make())});
  }
  return inputs;
}

std::vector<Input> pipeline_inputs() {
  std::vector<Input> inputs;
  for (std::size_t n = 8; n <= 32; n += 4) {
    inputs.push_back({"muller-" + std::to_string(n),
                      punt::stg::write_g(punt::stg::make_muller_pipeline(n))});
  }
  for (std::size_t stages = 4; stages <= 16; stages += 4) {
    inputs.push_back({"counterflow-" + std::to_string(stages),
                      punt::stg::write_g(punt::stg::make_counterflow_pipeline(stages))});
  }
  return inputs;
}

punt::core::SynthesisOptions options_for(const Combo& combo) {
  punt::core::SynthesisOptions options;
  options.method = combo.method;
  options.architecture = combo.arch;
  return options;
}

std::vector<Prepared> set_up(const std::vector<Input>& inputs,
                             const std::vector<Combo>& combos,
                             punt::core::ModelCache& cache, Tracer* tracer) {
  // One representative combo per model kind: the cache key covers only the
  // model-affecting options, so architectures and the two unfolding
  // methods share a model.
  std::vector<Combo> kinds;
  std::set<bool> seen;
  for (const Combo& combo : combos) {
    if (seen.insert(combo.method == Method::StateGraph).second) kinds.push_back(combo);
  }
  std::vector<Prepared> prepared;
  prepared.reserve(inputs.size());
  for (const Input& input : inputs) {
    {
      Tracer::Scope span(tracer, "lint.admission");
      const auto defects = punt::lint::lint_errors(input.text);
      if (!defects.empty()) {
        throw punt::Error(input.name + ": refused by admission lint: " +
                          defects.front().message);
      }
    }
    Prepared entry{input.name, input.text, {}, 0, 0};
    {
      Tracer::Scope span(tracer, "stg.parse");
      entry.stg = punt::stg::parse_g(input.text);
    }
    for (const Combo& combo : kinds) {
      Tracer::Scope span(tracer, combo.method == Method::StateGraph ? "sg.build"
                                                                    : "unfolding.build");
      const auto context =
          punt::core::PipelineContext::build(entry.stg, options_for(combo), &cache);
      entry.unfolding_events += context.model->unfold_stats.events;
      entry.sg_states += context.model->sg_states;
    }
    prepared.push_back(std::move(entry));
  }
  return prepared;
}

void count_work(const Circuit& circuit, Layers& layers) {
  layers.refine_iterations += static_cast<double>(circuit.refine_iterations);
  layers.exact_fallbacks += static_cast<double>(circuit.exact_fallbacks);
  layers.cubes_in += static_cast<double>(circuit.cubes_in);
  layers.cubes_out += static_cast<double>(circuit.cubes_out);
  layers.minimize_iterations += static_cast<double>(circuit.minimize_iterations);
}

Circuit synthesize(const Prepared& input, const Combo& combo,
                   punt::core::ModelCache& cache, Tracer* tracer) {
  Circuit circuit;
  try {
    punt::core::PipelineContext context;
    {
      Tracer::Scope span(tracer, "core.model");
      context = punt::core::PipelineContext::build(input.stg, options_for(combo), &cache);
    }
    punt::core::SynthesisResult result;
    result.method = combo.method;
    result.architecture = combo.arch;
    for (const punt::stg::SignalId signal : context.model->targets) {
      punt::core::DeriveTask derive;
      derive.signal = signal;
      {
        Tracer::Scope span(tracer, "core.derive");
        derive.run(context);
      }
      {
        Tracer::Scope span(tracer, "logic.minimize");
        punt::core::MinimizeTask minimize;
        minimize.run(context, derive);
      }
      circuit.refine_iterations += derive.refinement_iterations;
      circuit.exact_fallbacks += derive.exact_fallbacks;
      circuit.cubes_in += derive.impl.min_stats.initial_cubes;
      circuit.cubes_out += derive.impl.min_stats.final_cubes;
      circuit.minimize_iterations += derive.impl.min_stats.iterations;
      result.signals.push_back(std::move(derive.impl));
    }
    result.rebuild_signal_index();
    {
      Tracer::Scope span(tracer, "netlist.render");
      circuit.netlist = punt::net::Netlist::from_synthesis(input.stg, result);
      circuit.eqn = circuit.netlist->to_eqn();
    }
    circuit.literals = circuit.netlist->literal_count();
    circuit.ok = true;
  } catch (const std::exception& e) {
    circuit.error = e.what();
  }
  return circuit;
}

}  // namespace puntbench
