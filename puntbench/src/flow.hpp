// The benchmark's inputs and its in-process synthesis flow.
//
// Every input reaches punt as `.g` text.  The flow drives one synthesis
// through punt's public calls one layer at a time — parse_g, lint_errors,
// PipelineContext::build, DeriveTask::run, MinimizeTask::run, Netlist — so
// the traced run can time each layer on its own, with the same calls the
// untraced run makes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/model_cache.hpp"
#include "src/core/synthesis.hpp"
#include "src/netlist/netlist.hpp"
#include "src/stg/stg.hpp"
#include "common.hpp"
#include "trace.hpp"

namespace puntbench {

/// One specification, as `.g` text.
struct Input {
  std::string name;
  std::string text;
};

/// One method × architecture pair, with the wire protocol's spelling.
struct Combo {
  punt::core::Method method;
  punt::core::Architecture arch;
  const char* method_name;
  const char* arch_name;
};

/// {approx, exact, sg} × {acg, c, rs}, method-major.
const std::vector<Combo>& all_combos();

/// The 21 Table-1 specs, each written once through stg::write_g.
std::vector<Input> registry_inputs();

/// The Fig. 6 families at the benchmark's sizes (README: "Inputs").
std::vector<Input> pipeline_inputs();

/// Synthesis options of one combo; everything else at punt's defaults.
punt::core::SynthesisOptions options_for(const Combo& combo);

/// An input after the front layers: parsed and admitted.
struct Prepared {
  std::string name;
  std::string text;
  punt::stg::Stg stg;
  std::size_t unfolding_events = 0;  // of its unfolding segment, when built
  std::size_t sg_states = 0;         // of its state graph, when built
};

/// Set-up over every input: parse, admission lint and the build of each
/// model kind `combos` needs into `cache`.  Throws punt::Error when an
/// input fails to parse or is refused by admission, or a model fails.
std::vector<Prepared> set_up(const std::vector<Input>& inputs,
                             const std::vector<Combo>& combos,
                             punt::core::ModelCache& cache, Tracer* tracer);

/// What one synthesis produced, and the work counters the trace reports.
struct Circuit {
  bool ok = false;
  std::string error;
  std::size_t literals = 0;
  std::string eqn;  // rendered netlist: the output a user reads
  std::optional<punt::net::Netlist> netlist;
  std::size_t refine_iterations = 0;
  std::size_t exact_fallbacks = 0;
  std::size_t cubes_in = 0;
  std::size_t cubes_out = 0;
  std::size_t minimize_iterations = 0;
};

/// Adds a circuit's work counters to the traced run's figures.
void count_work(const Circuit& circuit, Layers& layers);

/// One synthesis of a prepared input through the layers, resolving the
/// model through `cache`.  Never throws: a failure comes back as !ok.
Circuit synthesize(const Prepared& input, const Combo& combo,
                   punt::core::ModelCache& cache, Tracer* tracer);

}  // namespace puntbench
