// The `serve` workload: a warm `punt serve` daemon on a Unix socket, driven
// closed-loop over its wire protocol (see README.md).
#pragma once

#include "common.hpp"

namespace puntbench {

Outcome run_serve(const Args& args);

}  // namespace puntbench
