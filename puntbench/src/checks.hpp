// Output checks of the benchmark, computed apart from the synthesis flow.
//
//  - Conformance: net::verify_conformance against a state graph the check
//    builds itself with sg::StateGraph::build, never the synthesis model.
//  - Token-game walk: a seeded random firing sequence of the STG's own net
//    (PetriNet::enabled_transitions / fire, Stg::apply), comparing every
//    non-input gate's Netlist::next_value with the value the visited state
//    implies.  It needs no state graph, so it reaches the pipeline sizes
//    whose state graph does not fit.
//
// self_test() shows that both checks catch a wrong circuit: it flips one
// gate of a correct circuit and expects each check to fail on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/stg.hpp"

namespace puntbench {

/// Empty when `netlist` conforms to `sgraph`; otherwise the first violation.
std::string conformance_error(const punt::sg::StateGraph& sgraph,
                              const punt::net::Netlist& netlist);

/// Empty when every gate drives its implied value at each of `steps` states
/// of a random walk seeded with `seed`; otherwise the first mismatch (or a
/// deadlock, which a live pipeline never reaches).
std::string walk_error(const punt::stg::Stg& stg, const punt::net::Netlist& netlist,
                       std::uint64_t seed, std::size_t steps);

/// The checks' own test; returns its failures (empty = both checks pass a
/// correct circuit and reject one with a gate flipped, in every
/// architecture).
std::vector<std::string> self_test();

}  // namespace puntbench
