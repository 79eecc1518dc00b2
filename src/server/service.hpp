// Request handlers behind `punt serve`: one function per traffic-bearing op,
// mapping a decoded protocol::Request onto the synthesis pipeline and
// rendering the exact stdout/stderr text (and exit code) the equivalent
// direct `punt` invocation produces.  Keeping the rendering here — not in
// the connection loop — is what makes the daemon's responses byte-comparable
// to the CLI and lets tests drive the handlers without a socket.
//
// Handlers never throw: every failure (unparseable .g text, CSC conflict,
// capacity blowup) becomes a Response with ok=true, a nonzero exit code and
// the same diagnostic a direct invocation prints to stderr.  Protocol-level
// failures are the caller's (the connection loop's) concern.
#pragma once

#include <cstddef>
#include <string>

#include "src/core/synthesis.hpp"
#include "src/server/protocol.hpp"
#include "src/stg/stg.hpp"

namespace punt::core {
class CostLedger;
class Executor;
class ModelCache;
struct ModelCacheStats;
}  // namespace punt::core

namespace punt::server {

/// The synthesis options a synth request's method/arch/minimize fields
/// select — the one mapping from flags to options, shared by the daemon
/// and the direct CLI (which parses its flags into a Request first).
core::SynthesisOptions options_of(const Request& request);

/// The stdout of `punt synth` for one synthesised STG: the "# name: ..."
/// and "# unfold ..." header lines, then the .eqn body when `eqn` and the
/// Verilog module when `verilog`.  The one renderer behind both the direct
/// CLI and run_synth, so their bytes cannot drift apart.
std::string synth_output(const stg::Stg& stg, const core::SynthesisResult& result,
                         bool eqn, bool verilog);

/// Handles {"op":"synth"}: lint admission, parse, synthesis, render — the
/// same stdout a direct `punt synth` prints and, on failure, the same
/// diagnostic and exit code.  `cache` (nullable) resolves phase 1; when
/// given, the per-request cache delta summary is appended to the response
/// log — the line a `--connect` client streams to its stderr.  `executor`
/// (nullable) runs the graph; the daemon passes its resident one, a null
/// falls back to an inline single-job run.  `ledger` (nullable) orders
/// dispatch by learned node costs and absorbs this request's measured ones —
/// the daemon passes its resident, self-tuning table.
Response run_synth(const Request& request, core::ModelCache* cache,
                   core::Executor* executor, core::CostLedger* ledger = nullptr);

/// Handles {"op":"check"} — and IS the direct `punt check` implementation
/// (tools/punt_cli.cpp prints the returned output/log verbatim), so the
/// daemon's byte-parity with the CLI holds by construction rather than by
/// hand-maintained duplication.  The cache is required (the checks and the
/// embedded synthesis run share one semantic model through it — the same
/// single-build guarantee `punt check` has); the "semantic model" verdict
/// line reports this *request's* cache delta, so a warm daemon truthfully
/// prints "built 0 time(s)".  `summarize_cache` controls the trailing
/// per-request summary line in the log: the daemon always wants it, the
/// direct CLI only when `--model-cache-dir` was given.
Response run_check(const Request& request, core::ModelCache& cache,
                   core::Executor* executor, bool summarize_cache = true,
                   core::CostLedger* ledger = nullptr);

/// Handles {"op":"lint"} — the whole client batch in one request, linted
/// as one TaskGraph on the daemon's resident executor so multi-file deep
/// lints parallelise under the daemon's --jobs exactly like a direct
/// `punt lint --deep --jobs=N`.  The response output is byte-identical to
/// the direct CLI's stdout for the same files (per-file human renderings in
/// request order, or one punt-lint-report v2 document), and the exit code
/// follows the same rule (1 when any file has an error-severity finding).
/// The cache is required: deep lint resolves its exact state-graph models
/// through it, so a warm daemon deep-lints a known spec with zero rebuilds —
/// the per-request delta summary appended to the log is the proof.  The
/// structural tier never touches the cache, so structural-only lints report
/// an all-zero delta.
Response run_lint(const Request& request, core::ModelCache& cache,
                  core::Executor* executor, core::CostLedger* ledger = nullptr);

/// The daemon-identity slice of the {"op":"cache-stats"} payload: who is
/// serving (transport, listen address, worker count), the connection
/// ledger (accepted / refused-at-handshake / idle-timed-out) the TCP
/// transport introduced in v3, and the synth admission counters.
struct ServeInfo {
  std::size_t requests_served = 0;
  std::size_t jobs = 0;
  std::string model_cache_dir;
  std::string transport = "unix";  // "unix" | "tcp"
  std::string listen;              // Endpoint::describe() of the listener
  std::size_t connections = 0;     // accepted since start()
  std::size_t auth_failures = 0;   // TCP handshakes refused
  std::size_t idle_timeouts = 0;   // connections closed by the idle deadline
  std::size_t queue_high_water = 0;  // most synth requests in flight at once
  std::size_t shed_queue_full = 0;   // synth requests refused by --max-queue
};

/// The {"op":"cache-stats"} payload: resident two-tier counters plus the
/// server identity, connection and admission fields ("punt-serve-stats"
/// schema, version 3).  The request-fusion fields — batch_window_ms,
/// admitted, batches, fused_requests, mean/max_batch, shed_connection_cap
/// and the batch-size histogram — are always zero, since the daemon runs
/// every request inline, and stay because consumers require them.
std::string cache_stats_json(const core::ModelCacheStats& stats, const ServeInfo& info);

}  // namespace punt::server
