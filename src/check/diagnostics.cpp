#include "check/diagnostics.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace mcs::check {

const char* to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
  }
  return "?";
}

std::size_t CheckReport::error_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

bool CheckReport::has_rule(std::string_view rule) const noexcept {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [rule](const Diagnostic& d) { return d.rule == rule; });
}

void CheckReport::add(std::string rule, Severity severity, std::string object,
                      std::string message) {
  diagnostics.push_back(Diagnostic{std::move(rule), severity,
                                   std::move(object), std::move(message)});
}

void CheckReport::merge(const CheckReport& other) {
  diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                     other.diagnostics.end());
}

std::string render(const Diagnostic& diagnostic) {
  std::string line = to_string(diagnostic.severity);
  line += ": ";
  line += diagnostic.rule;
  line += ": ";
  line += diagnostic.object;
  line += ": ";
  line += diagnostic.message;
  return line;
}

void render(const CheckReport& report, std::ostream& out) {
  for (const Diagnostic& diagnostic : report.diagnostics) {
    out << render(diagnostic) << '\n';
  }
}

const std::vector<RuleInfo>& rule_catalog() {
  // docs/LINTING.md mirrors this table entry for entry; tests compare the
  // two so an ID can never drift from its documentation.
  static const std::vector<RuleInfo> catalog = {
      // --- Generic model structure (any lp::Model) -------------------------
      {"MCS-F001", Severity::kError,
       "variable bound inversion or NaN bound (lower > upper)",
       "lp::Model invariant; DESIGN.md §5.5"},
      {"MCS-F002", Severity::kError,
       "non-finite model data (constraint coefficient, right-hand side, or "
       "integral-variable bound)",
       "lp::Model invariant"},
      {"MCS-F003", Severity::kError,
       "binary variable with bounds outside [0, 1]",
       "lp::Model invariant (binaries are placement indicators)"},
      {"MCS-F004", Severity::kWarning,
       "dangling column: variable in no constraint and not in the objective",
       "formulation hygiene"},
      {"MCS-F005", Severity::kWarning,
       "vacuous empty row: constraint with no terms that is trivially true",
       "formulation hygiene"},
      {"MCS-F006", Severity::kError,
       "unsatisfiable empty row: constraint with no terms that can never "
       "hold",
       "formulation hygiene"},
      {"MCS-F007", Severity::kError, "duplicate variable name",
       "LP-format export requires unique names"},
      {"MCS-F008", Severity::kError, "duplicate constraint name",
       "LP-format export requires unique names"},
      {"MCS-F009", Severity::kError,
       "constraint references an out-of-range variable index",
       "lp::Model invariant"},
      // --- Delay-MILP formulation (paper §V) -------------------------------
      {"MCS-F101", Severity::kError,
       "placement-cardinality row malformed: not exactly/at-most one "
       "execution per scheduling interval",
       "paper Constraint 5 (§V-A); DESIGN.md §5.5"},
      {"MCS-F102", Severity::kError,
       "copy-in cardinality row malformed: not exactly/at-most one copy-in "
       "per interval",
       "paper Constraint 6 (§V-A)"},
      {"MCS-F103", Severity::kError,
       "binary column outside the placement families (alpha, E, LE, CL)",
       "paper §V-A variable definitions"},
      {"MCS-F104", Severity::kError,
       "interference-budget row disagrees with eta_j(t) + 1 recomputed from "
       "the arrival curve",
       "paper Constraint 7; Theorem 1 window N_i(t)"},
      {"MCS-F105", Severity::kError,
       "cancellation-budget right-hand side disagrees with the LS release "
       "budget recomputed from the arrival curves",
       "rule R3 (§IV-A); cancellation tightening, DESIGN.md §5.5"},
      {"MCS-F106", Severity::kError,
       "non-integral coefficient or right-hand side: formulation data must "
       "stay in whole ticks",
       "tick model (§II); DESIGN.md §5.1"},
      {"MCS-F107", Severity::kError,
       "LS-marking column bounds inconsistent with the task set's current "
       "latency_sensitive flags",
       "greedy marking (§VI); patchable build, DESIGN.md §5.10"},
      {"MCS-F108", Severity::kError,
       "interval-length variable malformed (not continuous, negative lower "
       "bound, or unbounded)",
       "paper Constraints 9-13 (Delta_k definition)"},
      {"MCS-F109", Severity::kError,
       "objective is not `maximize sum_k Delta_k`",
       "paper Eq. 1 (delay maximization)"},
      {"MCS-F110", Severity::kError,
       "formulation handle invalid: interval/variable bookkeeping does not "
       "match the model",
       "DelayMilp structure; DESIGN.md §5.5"},
      // --- Structural model diff (patched vs fresh, write vs reparse) ------
      {"MCS-F201", Severity::kError, "column count mismatch",
       "cache-patch equivalence; DESIGN.md §5.10"},
      {"MCS-F202", Severity::kError,
       "column attribute mismatch (bounds, type, or name)",
       "cache-patch equivalence"},
      {"MCS-F203", Severity::kError, "row count mismatch",
       "cache-patch equivalence"},
      {"MCS-F204", Severity::kError,
       "row mismatch (relation, right-hand side, or coefficients)",
       "cache-patch equivalence"},
      {"MCS-F205", Severity::kError,
       "objective mismatch (sense, constant, or coefficients)",
       "cache-patch equivalence"},
      // --- Presolve / postsolve audit (lp/presolve.hpp) ---------------------
      {"MCS-F301", Severity::kError,
       "presolve bookkeeping inconsistent: reduction log, postsolve map, "
       "and model deltas disagree",
       "presolve exactness contract; DESIGN.md §5.11"},
      {"MCS-F302", Severity::kError,
       "presolve widened a variable domain, changed a type, or fixed a "
       "column outside its original bounds",
       "presolve exactness contract; DESIGN.md §5.11"},
      {"MCS-F303", Severity::kError,
       "postsolved solution infeasible in the pristine model (bounds, "
       "integrality, or a constraint row)",
       "postsolve exactness (lp/postsolve.hpp)"},
      {"MCS-F304", Severity::kError,
       "postsolved objective disagrees with the reduced-space objective "
       "beyond certificate tolerance",
       "objective pass-through contract (lp/postsolve.hpp)"},
      // --- Protocol trace audit (paper §IV) --------------------------------
      {"MCS-P001", Severity::kError,
       "interval sequencing broken (negative length or overlap)",
       "Definition 1 (scheduling intervals)"},
      {"MCS-P002", Severity::kError,
       "interval length differs from max(CPU, DMA) busy time",
       "rule R6 (§IV-A)"},
      {"MCS-P003", Severity::kError,
       "DMA accounting mismatch (busy time != copy-out + copy-in)",
       "rule R2 (§IV-A)"},
      {"MCS-P004", Severity::kError,
       "copy-in cancellation without a justifying higher-priority LS "
       "release (or under a protocol without cancellations)",
       "rule R3 (§IV-A); docs/PROTOCOL.md"},
      {"MCS-P005", Severity::kError,
       "urgent promotion of a non-latency-sensitive job",
       "rule R4 (§IV-A)"},
      {"MCS-P006", Severity::kError,
       "urgent execution without a CPU-performed sequential copy-in",
       "rule R5 (§IV-A), urgent path"},
      {"MCS-P007", Severity::kError,
       "execution without a completed copy-in in the adjacent previous "
       "interval",
       "rules R2/R5; Property 1 (§IV-B)"},
      {"MCS-P008", Severity::kError,
       "copy-out not in the adjacent next interval, or completion "
       "bookkeeping inconsistent with it",
       "rule R2; Properties 1-2 (§IV-B)"},
      {"MCS-P009", Severity::kError,
       "latency-sensitive job blocked in more than one interval",
       "Property 4 (§IV-B)"},
      {"MCS-P010", Severity::kError,
       "non-latency-sensitive job blocked in more than two intervals",
       "Property 3 (§IV-B)"},
      {"MCS-P011", Severity::kError,
       "job executed or copied out more than once",
       "three-phase model (§II)"},
      {"MCS-P012", Severity::kError,
       "job lifecycle bookkeeping inconsistent (ordering, completion or "
       "cancellation counter)",
       "§II job model; trace record contract"},
      // MCS-V0xx: exhaustive model-checker verdicts (mcs::verify).  Unlike
      // the per-trace MCS-P rules, each of these quantifies over *every*
      // reachable state of the bounded choice model; a finding carries a
      // replayable counterexample path.
      {"MCS-V001", Severity::kError,
       "reachable state executes a job without a completed copy-in in the "
       "adjacent previous interval",
       "Property 1 (§IV-B); rules R2/R5"},
      {"MCS-V002", Severity::kError,
       "reachable completion without an adjacent copy-out following the "
       "execution interval",
       "Properties 1-2 (§IV-B); rule R2"},
      {"MCS-V003", Severity::kError,
       "non-latency-sensitive job blocked in more than two intervals on "
       "some explored path",
       "Property 3 (§IV-B)"},
      {"MCS-V004", Severity::kError,
       "latency-sensitive job blocked in more than one interval on some "
       "explored path",
       "Property 4 (§IV-B); rules R3-R5"},
      {"MCS-V005", Severity::kError,
       "stuck reachable state: committed work pending but no transition "
       "enabled",
       "deadlock freedom; rules R1-R6 progress"},
      {"MCS-V006", Severity::kError,
       "livelock: a path exceeds the zero-length-interval budget without "
       "advancing time",
       "work-conserving progress; rule R6"},
      {"MCS-V007", Severity::kError,
       "copy-in cancellation without a justifying higher-priority "
       "latency-sensitive release in the interval",
       "rule R3 (§IV-A); DESIGN.md §5.8"},
      {"MCS-V008", Severity::kError,
       "exhaustive worst-case response time exceeds the MILP analysis bound",
       "analysis soundness (§V); DESIGN.md §5.1"},
      {"MCS-V009", Severity::kError,
       "interval busy-time accounting disagrees with the task parameters",
       "rules R2/R5/R6 (§IV-A); Definition 1"},
      {"MCS-V010", Severity::kError,
       "urgent promotion of an ineligible job",
       "rule R4 (§IV-A)"},
  };
  return catalog;
}

const RuleInfo* find_rule(std::string_view id) noexcept {
  for (const RuleInfo& rule : rule_catalog()) {
    if (id == rule.id) {
      return &rule;
    }
  }
  return nullptr;
}

}  // namespace mcs::check
