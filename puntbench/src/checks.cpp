#include "checks.hpp"

#include <algorithm>
#include <utility>

#include "src/core/synthesis.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/xorshift.hpp"

namespace puntbench {

std::string conformance_error(const punt::sg::StateGraph& sgraph,
                              const punt::net::Netlist& netlist) {
  const auto violations = punt::net::verify_conformance(sgraph, netlist);
  if (violations.empty()) return {};
  return netlist.stg().signal_name(violations.front().signal) + " at state " +
         std::to_string(violations.front().state) + ": " + violations.front().detail +
         " (" + std::to_string(violations.size()) + " violation(s))";
}

std::string walk_error(const punt::stg::Stg& stg, const punt::net::Netlist& netlist,
                       std::uint64_t seed, std::size_t steps) {
  punt::XorShift random(seed);
  const punt::pn::PetriNet& net = stg.net();
  const std::vector<punt::stg::SignalId> targets = stg.non_input_signals();
  punt::pn::Marking marking = net.initial_marking();
  punt::stg::Code code = stg.initial_code();
  std::vector<std::uint8_t> excited(stg.signal_count(), 0);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::vector<punt::pn::TransitionId> enabled = net.enabled_transitions(marking);
    if (enabled.empty()) return "deadlock after " + std::to_string(step) + " firing(s)";
    std::fill(excited.begin(), excited.end(), 0);
    for (const punt::pn::TransitionId t : enabled) {
      const punt::stg::Label& label = stg.label(t);
      if (!label.dummy) excited[label.signal.index()] = 1;
    }
    for (const punt::stg::SignalId signal : targets) {
      const std::uint8_t now = code[signal.index()];
      const bool implied = excited[signal.index()] != 0 ? now == 0 : now != 0;
      if (netlist.next_value(signal, code) != implied) {
        return "gate " + stg.signal_name(signal) + " drives " +
               std::to_string(int(!implied)) + " at step " + std::to_string(step) +
               " (code " + punt::stg::code_to_string(code) + ")";
      }
    }
    const punt::pn::TransitionId fired = enabled[random.below(enabled.size())];
    stg.apply(fired, code);
    marking = net.fire(marking, fired);
  }
  return {};
}

std::vector<std::string> self_test() {
  using punt::core::Architecture;
  std::vector<std::string> failures;
  // A small pipeline through .g text, as every benchmark input travels.
  const punt::stg::Stg stg =
      punt::stg::parse_g(punt::stg::write_g(punt::stg::make_muller_pipeline(4)));
  const punt::sg::StateGraph sgraph = punt::sg::StateGraph::build(stg);
  for (const Architecture arch :
       {Architecture::ComplexGate, Architecture::StandardC, Architecture::RsLatch}) {
    const std::string label = "self-test arch " + std::to_string(static_cast<int>(arch));
    punt::core::SynthesisOptions options;
    options.architecture = arch;
    punt::core::SynthesisResult result = punt::core::synthesize(stg, options);
    const auto correct = punt::net::Netlist::from_synthesis(stg, result);
    if (!conformance_error(sgraph, correct).empty()) {
      failures.push_back(label + ": conformance rejects a correct circuit");
    }
    if (!walk_error(stg, correct, 1, 500).empty()) {
      failures.push_back(label + ": walk rejects a correct circuit");
    }
    // Flip the middle gate: invert a complex gate's output, or swap a
    // memory element's set and reset functions.
    punt::core::SignalImplementation& impl = result.signals[result.signals.size() / 2];
    if (arch == Architecture::ComplexGate) {
      impl.gate_covers_on = !impl.gate_covers_on;
    } else {
      std::swap(impl.set_function, impl.reset_function);
    }
    const auto flipped = punt::net::Netlist::from_synthesis(stg, result);
    if (conformance_error(sgraph, flipped).empty()) {
      failures.push_back(label + ": conformance accepts a flipped gate");
    }
    if (walk_error(stg, flipped, 1, 500).empty()) {
      failures.push_back(label + ": walk accepts a flipped gate");
    }
  }
  return failures;
}

}  // namespace puntbench
