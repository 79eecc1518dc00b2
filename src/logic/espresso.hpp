// Heuristic two-level minimisation in the style of Espresso.
//
// This is the stand-in for the paper's "EspTim" column: the classic
// EXPAND / IRREDUNDANT / (REDUCE, EXPAND, IRREDUNDANT)* loop, driven by a
// *blocking* cover rather than a complement where possible.
//
// Blocking semantics: the result must cover every point of `on` and avoid
// every point of `blocking`; points outside both are free.  This mirrors the
// paper's stronger correctness condition for approximated covers — the
// off-set cover produced by the unfolding flow acts as the blocking set, so
// part of the true DC-set may be walled off, which the paper notes can cost
// a literal or two versus exact-DC minimisation.
#pragma once

#include <cstddef>

#include "src/logic/cover.hpp"

namespace punt::logic {

/// Size bookkeeping for reports and the ablation bench.
struct MinimizeStats {
  std::size_t initial_cubes = 0;
  std::size_t initial_literals = 0;
  std::size_t final_cubes = 0;
  std::size_t final_literals = 0;
  /// REDUCE/EXPAND/IRREDUNDANT refinement rounds run, including the last,
  /// non-improving one that ends the loop: 1 when the first round already
  /// finds no cheaper cover, 0 only when max_iterations is 0.
  std::size_t iterations = 0;
};

struct EspressoOptions {
  /// Upper bound on (REDUCE, EXPAND, IRREDUNDANT) refinement rounds.
  std::size_t max_iterations = 5;
};

/// Minimises `on` against the `blocking` cover.  The result R satisfies
/// R ⊇ on and R ∩ blocking = ∅.  Throws ValidationError when `on` and
/// `blocking` already intersect (the inputs are contradictory).
Cover espresso(const Cover& on, const Cover& blocking, MinimizeStats* stats = nullptr,
               const EspressoOptions& options = {});

/// Convenience wrapper: minimise with an explicit don't-care cover; the
/// blocking set is complement(on + dc).
Cover espresso_with_dc(const Cover& on, const Cover& dc, MinimizeStats* stats = nullptr,
                       const EspressoOptions& options = {});

}  // namespace punt::logic
