// Design lint: staged static validation of the netlist, parasitics,
// timing windows, and library *before* any cluster solves.
//
// A production signoff run must fail fast and loudly on malformed inputs —
// a SPEF coupling cap naming an unknown net, a timing window with lo > hi,
// or an undriven net with receivers would otherwise be silently absorbed
// and yield a quietly-optimistic margin. lintDesign runs rule families over
// the already-built core::DesignIndex (no second traversal of the netlist:
// every query below is an index hash lookup, plus exactly one pass over the
// instance list and one over the SPEF cap sections) and emits structured
// Diagnostics with stable rule IDs:
//
//   connectivity   SNA-L101 undriven SPEF net with receivers        error
//                  SNA-L102 driven SPEF net with no receivers       warning
//                  SNA-L103 coupling cap references unknown net     error
//                  SNA-L104 instance pin bound to missing net       error
//   graph health   SNA-L201 combinational cycle broken              warning
//                  SNA-L202 multiply-driven net                     warning
//   windows        SNA-L301 window with inverted/NaN bounds         error
//                  SNA-L302 window names unknown net                warning
//                  SNA-L303 explicit window narrower than its
//                           propagated fanin hull                   info
//   library        SNA-L401 uncharacterizable cell pin              error
//                  SNA-L402 non-monotone characterization           warning
//                  SNA-L403 NRC width grid does not cover the
//                           propagation width grid                  warning
//   delta          SNA-L501 delta names unknown net                 error
//                  SNA-L502 delta names unknown instance            error
//
// The front-end family (SNA-L601..L615: .lib binding, netlist-vs-library,
// SDC-vs-ports) lives in core/frontend.hpp's lintFrontEnd — it runs before
// a Design exists, so it cannot be a lintDesign stage — and feeds the same
// LintReport / waiver machinery.
//
// The stages run in the order above. The characterization stage (the only
// one that simulates — load-curve sweeps and NRC bisections, shared with
// the analysis through the CharCache) is off by default. Diagnostics come
// back in deterministic order at any thread count.
//
// Pipeline wiring: core::DesignNoiseOptions::lint (off / warn / strict)
// runs this checker inside analyzeDesign right after the index is built;
// parser::parseWaivers + applyWaivers suppress known-benign findings by
// rule + object with unused-waiver reporting.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/design_index.hpp"
#include "core/report.hpp"
#include "lint/diagnostic.hpp"
#include "parser/waivers_parser.hpp"

namespace sna::core {
struct DesignDelta;  // core/incremental.hpp
}

namespace sna::lint {

struct LintOptions {
    /// The run's explicit switching windows (SNA-L3xx), or nullptr when the
    /// run has none. Falls back to index.timingWindows() when null there.
    const core::TimingWindows* windows = nullptr;
    /// The NRC probe grid the analysis will run with (SNA-L403 checks its
    /// coverage of the canonical propagation widths).
    core::NrcOptions nrc;
    /// Characterization cache shared with the analysis, so the deep stage's
    /// load curves / NRCs are computed once for both. nullptr: a private
    /// throwaway cache per call.
    charlib::CharCache* cache = nullptr;
    /// Load-curve grid density the deep stage characterizes at — keep equal
    /// to ClusterMacromodel::Options::loadCurveGrid so the cache keys match
    /// the analysis and the curves are shared, not recomputed.
    int loadCurveGrid = 33;
    /// Deep library stage (SNA-L402): actually characterizes every victim
    /// driver's load curve and every receiver's NRC and checks the
    /// monotonicity each model guarantees. Simulation-priced; off by
    /// default.
    bool characterization = false;
};

/// Run every stage (the characterization stage only when enabled) over the
/// indexed design. Deterministic; never mutates the index beyond forcing
/// its (lazily-built) level graph.
LintReport lintDesign(const core::DesignIndex& index,
                      const parser::SpefFile& spef,
                      const LintOptions& opt = {});

/// Delta validity (SNA-L501/L502): every net and instance a DesignDelta
/// names must exist in the design or the SPEF — a typo'd ECO delta would
/// otherwise mark nothing dirty and quietly splice stale results.
/// analyzeDesignIncremental runs this before touching the snapshot.
LintReport lintDelta(const core::Design& design, const parser::SpefFile& spef,
                     const core::DesignDelta& delta);

/// Mark every diagnostic matched by a waiver (rule must match exactly;
/// object must match exactly or be '*') and return the waivers that
/// matched nothing — a stale waiver is itself a finding.
std::vector<parser::Waiver> applyWaivers(
    LintReport& report, const std::vector<parser::Waiver>& waivers);

// ---- individual model checks (exposed for tests and for linting models
// that did not come from this run's library) ------------------------------

/// SNA-L402 on a load-curve table I_DC = f(v_in, v_out): a static CMOS
/// stage's DC output current is non-decreasing in v_out at any fixed v_in
/// (its output conductance is positive), so a decreasing run beyond the
/// numeric tolerance marks a broken characterization. `label` becomes the
/// diagnostic's object (e.g. "INV_X1:a").
std::optional<Diagnostic> checkLoadCurveMonotone(const la::Grid2d& curve,
                                                 const std::string& label);

/// SNA-L402 on a noise rejection curve: the failing height is guaranteed
/// non-increasing in width; an increasing run beyond the bisection
/// tolerance marks a broken characterization.
std::optional<Diagnostic> checkNrcMonotone(const la::Grid1d& nrc,
                                           const std::string& label);

}  // namespace sna::lint
