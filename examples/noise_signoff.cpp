// Scenario: design-level noise sign-off from a netlist + SPEF parasitics,
// with stage-to-stage noise propagation.
//
// A miniature version of the flow the paper's conclusions call for: a
// gate-level design is connected to extracted coupled parasitics (SPEF);
// every net with coupling capacitance is clustered with its strongest
// aggressors, analyzed at the worst-case alignment with the non-linear
// macromodel, and checked against its receiver's noise rejection curve.
// With DesignNoiseOptions::propagate the analysis walks the levelized
// design graph: each net's surviving glitch is injected into its fanout
// stage, so the report shows the local-only margin (what a flat per-net
// sweep sees) next to the combined margin (local coupling + propagated
// upstream noise) — the stage-2 net below fails only in the combined view.
//
// A second pass supplies per-net switching windows (the FRAME-style
// temporal-correlation input an STA tool would export): stage 2's
// aggressors can only switch long after the victim's sensitivity interval,
// so the window-constrained verdict excludes them and recovers the
// pessimism — the report then shows the unconstrained margin next to the
// windowed one.
//
// Build & run:
//   ./build/noise_signoff [--cache signoff.snacache] [--lint[=strict]]
//                         [--waivers FILE]
//   ./build/noise_signoff --lib FILE --verilog FILE [--sdc FILE]
//                         [--spef FILE] [other flags]
// Without --lib/--verilog the built-in demo design runs. With them, the
// industry front end takes over: the Liberty library is bound to the
// bundled cells (NLDM delay/slew tables seed the characterization cache
// for window propagation), the structural Verilog netlist becomes the
// design, SDC input delays seed the switching windows, and --spef supplies
// the extracted parasitics (omitted: a demo-grade placeholder extractor
// couples consecutive wire declarations so the flow still runs end to
// end). The front-end lint rules (SNA-L6xx) always run in this mode.
// --cache warm-starts the characterization cache from the given file when
// it exists and saves it back after the run: the second invocation serves
// every load curve, Thevenin model, NRC, and propagation table from disk
// and characterizes nothing.
// --lint runs the design checker (lint/lint.hpp) before the analysis and
// prints every diagnostic; --lint=strict refuses to analyze a design with
// unwaived errors. --waivers FILE suppresses known-benign findings by
// "RULE [OBJECT]" lines; waivers that match nothing are reported.
//
// Resilience flags: --deadline SEC arms a wall-clock budget — an expired
// run still prints every completed report, then exits 3; --on-net-failure
// MODE (fail-fast | quarantine | passthrough) picks what a per-net solver
// failure does to the rest of the run (see core/sna.hpp's NetFailurePolicy);
// --cache-strict turns cache-file problems (unreadable on load, unwritable
// on save) from warnings into a nonzero exit.
//
// Exit codes: 0 clean (waived findings and warnings included), 1 usage,
// I/O, or cache error, 2 unwaived lint (or front-end binding) errors,
// 3 deadline expired / cancelled (partial results printed), 4 per-net
// solver failures (quarantined/degraded cones printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/design_index.hpp"
#include "core/frontend.hpp"
#include "core/sna.hpp"
#include "interconnect/parallel_bus.hpp"
#include "lint/lint.hpp"
#include "parser/windows_parser.hpp"
#include "util/table.hpp"

namespace {

// Two chained stages (vic1 -> u_s2 -> vic2), each coupled to dedicated
// aggressor routes. Stage 1 is hammered by three strong aggressors; stage 2
// has moderate local coupling that only fails once stage 1's glitch rides
// along. (In production this file comes from the extractor.)
std::string chainSpef() {
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"signoff_demo\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    const auto stage = [&](const std::string& net, const std::string& drv,
                           const std::string& load, int aggs, double cc) {
        os << "*D_NET " << net << " " << (6.5 + aggs * cc) << "\n";
        os << "*CONN\n*I " << drv << ":y O\n*I " << load << ":a I\n";
        os << "*CAP\n1 " << drv << ":y 2.0\n2 " << net << ":1 3.0\n";
        os << "3 " << load << ":a 1.5\n";
        for (int a = 0; a < aggs; ++a) {
            os << (4 + a) << " " << net << ":1 " << net << "_g" << a
               << ":1 " << cc << "\n";
        }
        os << "*RES\n1 " << drv << ":y " << net << ":1 60\n";
        os << "2 " << net << ":1 " << load << ":a 60\n*END\n\n";
        for (int a = 0; a < aggs; ++a) {
            const std::string g = net + "_g" + std::to_string(a);
            os << "*D_NET " << g << " 6.0\n";
            os << "*CONN\n*I " << g << "_d:y O\n*I " << g << "_r:a I\n";
            os << "*CAP\n1 " << g << "_d:y 2.0\n2 " << g << ":1 2.0\n";
            os << "*RES\n1 " << g << "_d:y " << g << ":1 40\n";
            os << "2 " << g << ":1 " << g << "_r:a 40\n*END\n\n";
        }
    };
    stage("vic1", "u_s1", "u_s2", 3, 35.0);
    stage("vic2", "u_s2", "u_s3", 3, 12.0);
    return os.str();
}

bool readFile(const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

// The design's drivers and loads per net from one pass over its instances:
// the same driver (smallest instance name on a multiply-driven net) and
// load order as Design::driverOf/loadsOf, which scan every instance per
// query. No parasitics are read.
sna::core::DesignIndex connectivityOf(const sna::core::Design& design) {
    return sna::core::DesignIndex(design, sna::parser::SpefFile{});
}

// Placeholder extractor for front-end runs without a SPEF: every wire net
// with a driver and loads becomes an RC pi (the demo's geometry), and
// consecutive wire declarations couple at their middle nodes — enough
// deterministic coupling to exercise the full flow, not a substitute for
// extracted parasitics.
std::string synthesizeSpef(const sna::parser::VerilogModule& module,
                           const sna::core::Design& design) {
    using sna::core::Instance;
    const sna::core::DesignIndex conn = connectivityOf(design);
    std::ostringstream os;
    os << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"" << module.name << "\"\n";
    os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";
    std::string prev;
    for (const auto& net : module.wires) {
        const Instance* driver = conn.driverOf(net);
        const auto& loads = conn.loadsOf(net);
        if (driver == nullptr || loads.empty()) continue;
        const std::string drvPin = driver->name + ":y";
        const double coupling = prev.empty() ? 0.0 : 20.0;
        os << "*D_NET " << net << " "
           << (5.0 + 1.5 * loads.size() + coupling) << "\n*CONN\n";
        os << "*I " << drvPin << " O\n";
        for (const auto& [inst, pin] : loads) {
            os << "*I " << inst->name << ":" << pin << " I\n";
        }
        os << "*CAP\n1 " << drvPin << " 2.0\n2 " << net << ":1 3.0\n";
        int idx = 2;
        for (const auto& [inst, pin] : loads) {
            os << ++idx << " " << inst->name << ":" << pin << " 1.5\n";
        }
        if (!prev.empty()) {
            os << ++idx << " " << net << ":1 " << prev << ":1 20.0\n";
        }
        os << "*RES\n1 " << drvPin << " " << net << ":1 60\n";
        idx = 1;
        for (const auto& [inst, pin] : loads) {
            os << ++idx << " " << net << ":1 " << inst->name << ":" << pin
               << " 60\n";
        }
        os << "*END\n\n";
        prev = net;
    }
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sna;
    std::string cachePath;
    std::string waiversPath;
    std::string libPath, verilogPath, sdcPath, spefPath;
    lint::Mode lintMode = lint::Mode::off;
    bool cacheStrict = false;
    double deadlineSec = 0.0;
    core::NetFailurePolicy onNetFailure = core::NetFailurePolicy::failFast;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
            cachePath = argv[++i];
        } else if (std::strcmp(argv[i], "--cache-strict") == 0) {
            cacheStrict = true;
        } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
            char* end = nullptr;
            deadlineSec = std::strtod(argv[++i], &end);
            if (end == nullptr || *end != '\0' || deadlineSec <= 0.0) {
                std::fprintf(stderr,
                             "--deadline needs a positive number of "
                             "seconds, got '%s'\n",
                             argv[i]);
                return 1;
            }
        } else if (std::strcmp(argv[i], "--on-net-failure") == 0 &&
                   i + 1 < argc) {
            const char* mode = argv[++i];
            if (std::strcmp(mode, "fail-fast") == 0) {
                onNetFailure = core::NetFailurePolicy::failFast;
            } else if (std::strcmp(mode, "quarantine") == 0) {
                onNetFailure = core::NetFailurePolicy::quarantineCone;
            } else if (std::strcmp(mode, "passthrough") == 0) {
                onNetFailure = core::NetFailurePolicy::degradeToPassthrough;
            } else {
                std::fprintf(stderr,
                             "--on-net-failure wants fail-fast, quarantine, "
                             "or passthrough, got '%s'\n",
                             mode);
                return 1;
            }
        } else if (std::strcmp(argv[i], "--lint") == 0) {
            lintMode = lint::Mode::warn;
        } else if (std::strcmp(argv[i], "--lint=strict") == 0) {
            lintMode = lint::Mode::strict;
        } else if (std::strcmp(argv[i], "--waivers") == 0 && i + 1 < argc) {
            waiversPath = argv[++i];
        } else if (std::strcmp(argv[i], "--lib") == 0 && i + 1 < argc) {
            libPath = argv[++i];
        } else if (std::strcmp(argv[i], "--verilog") == 0 && i + 1 < argc) {
            verilogPath = argv[++i];
        } else if (std::strcmp(argv[i], "--sdc") == 0 && i + 1 < argc) {
            sdcPath = argv[++i];
        } else if (std::strcmp(argv[i], "--spef") == 0 && i + 1 < argc) {
            spefPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--cache FILE] [--cache-strict] "
                         "[--deadline SEC] [--on-net-failure "
                         "fail-fast|quarantine|passthrough] "
                         "[--lint[=strict]] [--waivers FILE] "
                         "[--lib FILE --verilog FILE "
                         "[--sdc FILE] [--spef FILE]]\n",
                         argv[0]);
            return 1;
        }
    }
    const bool frontEnd = !libPath.empty() || !verilogPath.empty();
    if (frontEnd && (libPath.empty() || verilogPath.empty())) {
        std::fprintf(stderr,
                     "front-end mode needs both --lib and --verilog\n");
        return 1;
    }
    const cell::CellLibrary lib(tech::tech130());

    std::vector<parser::Waiver> waivers;
    if (!waiversPath.empty()) {
        std::ifstream in(waiversPath);
        if (!in) {
            std::fprintf(stderr, "cannot read waiver file '%s'\n",
                         waiversPath.c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        try {
            waivers = parser::parseWaivers(text.str());
        } catch (const Error& e) {
            std::fprintf(stderr, "%s: %s\n", waiversPath.c_str(), e.what());
            return 1;
        }
    }

    charlib::CharCache cache;
    if (!cachePath.empty()) {
        const bool exists = static_cast<bool>(std::ifstream(cachePath));
        const auto loaded = cache.load(cachePath);
        if (exists && !loaded.ok && loaded.entries == 0) {
            // The file is there but nothing in it could be trusted — a
            // header mismatch, unreadable bytes, or wholesale corruption.
            // Starting cold silently would look like a cache regression, so
            // fail loud: the user either points at the right file or
            // deletes the broken one.
            std::fprintf(stderr,
                         "cache '%s' exists but is unreadable (%s); "
                         "delete it or pass a different --cache path\n",
                         cachePath.c_str(), loaded.error.c_str());
            return 1;
        }
        if (loaded.entries > 0) {
            std::printf("warm-started cache from '%s': %zu entries",
                        cachePath.c_str(), loaded.entries);
            if (loaded.corrupt > 0) {
                std::printf(" (%zu corrupt records dropped)",
                            loaded.corrupt);
            }
            std::printf("\n");
            if ((loaded.corrupt > 0 || !loaded.ok) && cacheStrict) {
                std::fprintf(stderr,
                             "cache '%s' was damaged and --cache-strict is "
                             "set\n",
                             cachePath.c_str());
                return 1;
            }
        } else if (!loaded.ok) {
            std::printf("cache '%s' not loaded (%s); starting cold\n",
                        cachePath.c_str(), loaded.error.c_str());
        }
    }

    core::Design design(lib);
    parser::SpefFile spef;
    core::TimingWindows windows;
    bool haveWindows = false;

    if (frontEnd) {
        // ---- industry front end: .lib + .v (+ .sdc, .spef) ----------------
        std::string libText, verilogText;
        if (!readFile(libPath, libText)) {
            std::fprintf(stderr, "cannot read '%s'\n", libPath.c_str());
            return 1;
        }
        if (!readFile(verilogPath, verilogText)) {
            std::fprintf(stderr, "cannot read '%s'\n", verilogPath.c_str());
            return 1;
        }
        parser::LibertyLibrary liberty;
        parser::VerilogModule module;
        parser::SdcConstraints sdc;
        bool haveSdc = false;
        try {
            liberty = parser::parseLiberty(libText);
            module = parser::parseVerilog(verilogText);
            if (!sdcPath.empty()) {
                std::string sdcText;
                if (!readFile(sdcPath, sdcText)) {
                    std::fprintf(stderr, "cannot read '%s'\n",
                                 sdcPath.c_str());
                    return 1;
                }
                sdc = parser::parseSdc(sdcText);
                haveSdc = true;
            }
        } catch (const Error& e) {
            std::fprintf(stderr, "front end: %s\n", e.what());
            return 1;
        }
        std::printf("parsed library '%s' (%zu cells), module '%s' "
                    "(%zu instances)%s\n",
                    liberty.name.c_str(), liberty.cells.size(),
                    module.name.c_str(), module.instances.size(),
                    haveSdc ? ", SDC constraints" : "");

        const charlib::NldmSource nldm(liberty, lib);
        lint::LintReport feReport;
        core::lintFrontEnd(nldm, module, lib, haveSdc ? &sdc : nullptr,
                           feReport);
        lint::applyWaivers(feReport, waivers);
        for (const auto& d : feReport.diagnostics) {
            std::printf("lint: %s\n", d.str().c_str());
        }
        std::printf("%s\n", feReport.summary().c_str());
        if (feReport.hasErrors()) {
            std::fprintf(stderr,
                         "front-end binding errors — refusing to analyze\n");
            return 2;
        }
        try {
            design = core::buildDesign(module, lib);
        } catch (const Error& e) {
            std::fprintf(stderr, "front end: %s\n", e.what());
            return 2;
        }

        std::string spefText;
        if (!spefPath.empty()) {
            if (!readFile(spefPath, spefText)) {
                std::fprintf(stderr, "cannot read '%s'\n", spefPath.c_str());
                return 1;
            }
        } else {
            spefText = synthesizeSpef(module, design);
        }
        try {
            spef = parser::parseSpef(spefText);
        } catch (const Error& e) {
            std::fprintf(stderr, "%s: %s\n",
                         spefPath.empty() ? "synthesized SPEF"
                                          : spefPath.c_str(),
                         e.what());
            return 1;
        }
        if (haveSdc) {
            windows = sdc.toInputWindows();
            haveWindows = true;
        }
        const std::size_t seeded = core::seedNldmCharacterization(nldm, cache);
        std::printf("seeded %zu NLDM thevenin models into the "
                    "characterization cache\n",
                    seeded);
    } else {
        spef = parser::parseSpef(chainSpef());

        // ---- the built-in demo design -------------------------------------
        auto inst = [&](const std::string& name, const std::string& cellName,
                        std::map<std::string, std::string> pins) {
            core::Instance i;
            i.name = name;
            i.cellName = cellName;
            i.pinToNet = std::move(pins);
            design.addInstance(std::move(i));
        };
        inst("u_s1", "INV_X1", {{"a", "in"}, {"y", "vic1"}});
        inst("u_s2", "INV_X1", {{"a", "vic1"}, {"y", "vic2"}});
        inst("u_s3", "INV_X2", {{"a", "vic2"}, {"y", "out"}});
        for (const std::string& v :
             {std::string("vic1"), std::string("vic2")}) {
            for (int a = 0; a < 3; ++a) {
                const std::string g = v + "_g" + std::to_string(a);
                inst(g + "_d", "INV_X4", {{"a", g + "_in"}, {"y", g}});
                // The SPEF routes each aggressor into a receiver pin
                // (g_r:a); instantiate it so the netlist matches the
                // parasitics — a driven net with no design receiver is
                // exactly what lint rule SNA-L102 flags. The aggressor nets
                // thereby become victim clusters of their own (they couple
                // back into the stage nets).
                inst(g + "_r", "INV_X1", {{"a", g}, {"y", g + "_o"}});
            }
        }

        // What an STA tool would export: the chain launches early (windows
        // propagate down vic1 -> vic2 from the primary input), stage 1's
        // aggressors collide with vic1, but stage 2's aggressors can only
        // switch in a much later slot — outside vic2's sensitivity interval.
        windows = parser::parseTimingWindows(
            "*T_UNIT 1 PS\n"
            "in       0    80\n"
            "vic2_g0  1600 1800\n"
            "vic2_g1  1600 1800\n"
            "vic2_g2  1600 1800\n");
        haveWindows = true;
    }
    std::printf("parsed SPEF '%s': %zu nets\n", spef.design().c_str(),
                spef.nets().size());

    // ---- run (worst alignment, no temporal information) --------------------
    core::DesignNoiseOptions opt;
    opt.propagate = true;
    opt.cache = &cache;
    opt.lint = lintMode;
    opt.lintWaivers = waivers.empty() ? nullptr : &waivers;
    opt.deadline = deadlineSec;
    opt.onNetFailure = onNetFailure;
    lint::LintReport lintReport;
    opt.lintOut = &lintReport;

    // Save is shared between the happy path and the partial-result exits:
    // even an expired run's characterizations are complete, reusable models.
    const auto saveCache = [&](void) -> bool {
        if (cachePath.empty()) return true;
        const auto saved = cache.save(cachePath);
        if (saved.ok) {
            std::printf("cache saved to '%s': %zu entries\n",
                        cachePath.c_str(), saved.entries);
            return true;
        }
        std::fprintf(stderr, "cache save failed: %s%s\n",
                     saved.error.c_str(),
                     cacheStrict ? "" : " (continuing; --cache-strict would "
                                        "make this fatal)");
        return false;
    };
    const auto printOutcome = [](const core::AnalysisOutcome& o) {
        if (o.reason == core::TerminationReason::deadlineExpired) {
            std::printf("analysis DEADLINE EXPIRED: %zu nets completed, "
                        "%zu unsolved\n",
                        o.reports.size(), o.unsolvedNets.size());
        } else if (o.reason == core::TerminationReason::cancelled) {
            std::printf("analysis CANCELLED: %zu nets completed, "
                        "%zu unsolved\n",
                        o.reports.size(), o.unsolvedNets.size());
        }
        if (!o.failedNets.empty() || !o.quarantinedNets.empty() ||
            !o.degradedNets.empty()) {
            std::printf("per-net failures: %zu failed, %zu quarantined, "
                        "%zu degraded (pass-through)\n",
                        o.failedNets.size(), o.quarantinedNets.size(),
                        o.degradedNets.size());
            for (const auto& n : o.failedNets) {
                std::printf("  failed: %s\n", n.c_str());
            }
        }
    };

    core::AnalysisOutcome outcome;
    try {
        outcome = core::analyzeDesignOutcome(design, spef, opt);
    } catch (const lint::LintError& e) {
        for (const auto& d : e.report().diagnostics) {
            std::fprintf(stderr, "lint: %s\n", d.str().c_str());
        }
        std::fprintf(stderr, "%s — refusing to analyze (--lint=strict)\n",
                     e.report().summary().c_str());
        return 2;
    }
    const std::vector<core::NetNoiseReport>& reports = outcome.reports;
    bool lintFailed = false;
    if (lintMode != lint::Mode::off) {
        for (const auto& d : lintReport.diagnostics) {
            std::printf("lint: %s\n", d.str().c_str());
        }
        // Re-applying the waivers to a copy is idempotent; it returns the
        // waivers that matched nothing — each a stale entry worth pruning.
        lint::LintReport scratch = lintReport;
        for (const auto& w : lint::applyWaivers(scratch, waivers)) {
            std::printf("lint: unused waiver (line %d): %s %s\n", w.line,
                        w.rule.c_str(), w.object.c_str());
        }
        std::printf("%s\n\n", lintReport.summary().c_str());
        lintFailed = lintReport.hasErrors();
    }

    const core::DesignIndex conn = connectivityOf(design);
    util::Table table({"Victim net", "Driver", "Incoming from",
                       "In height (V)", "Worst peak (V)", "NRC limit (V)",
                       "Local margin (V)", "Combined margin (V)", "Verdict"});
    for (const auto& r : reports) {
        const auto& m = r.cluster.worst.metrics;
        const auto& p = r.propagated;
        // Failed and quarantined nets carry stub metrics — their verdict
        // cell names the condition instead of pretending a margin exists.
        std::string verdict;
        switch (r.status) {
            case core::NetNoiseReport::Status::failed:
                verdict = "ERROR";
                break;
            case core::NetNoiseReport::Status::quarantined:
                verdict = "QUARANTINED";
                break;
            case core::NetNoiseReport::Status::degraded:
                verdict = r.cluster.fails ? "FAIL (degraded)"
                                          : "pass (degraded)";
                break;
            case core::NetNoiseReport::Status::ok:
                verdict = r.cluster.fails
                              ? (p.localFails ? "FAIL" : "FAIL (propagated)")
                              : "pass";
                break;
        }
        table.addRow({r.net, conn.driverOf(r.net)->cellName,
                      p.present ? p.fromNet : "-",
                      p.present ? util::Table::num(p.height, 3) : "-",
                      util::Table::num(m.peak, 3),
                      util::Table::num(r.cluster.nrcLimit, 3),
                      util::Table::num(p.localMargin, 3),
                      util::Table::num(r.cluster.margin, 3), verdict});
    }
    std::printf("\nStatic noise analysis report (%zu coupled nets "
                "analyzed, propagation on)\n\n%s\n",
                reports.size(), table.str().c_str());
    printOutcome(outcome);
    if (!outcome.complete()) {
        // Deadline or cancellation: everything above is trustworthy, the
        // rest never ran. The cache still holds finished characterizations.
        saveCache();
        return 3;
    }

    // ---- run again with switching windows ----------------------------------
    // Demo mode hard-codes the windows an STA tool would export; front-end
    // mode seeds them from the SDC input delays (and skips this pass when no
    // --sdc was given — there is no temporal information to apply).
    if (haveWindows) {
        core::DesignNoiseOptions wopt = opt;
        wopt.windows = &windows;
        // The design was already linted (and gated) above; re-linting the
        // windowed pass would just repeat every finding.
        wopt.lint = lint::Mode::off;
        wopt.lintOut = nullptr;
        const core::AnalysisOutcome woutcome =
            core::analyzeDesignOutcome(design, spef, wopt);
        const auto& windowed = woutcome.reports;
        if (!woutcome.complete()) {
            printOutcome(woutcome);
            saveCache();
            return 3;
        }

        util::Table wtable({"Victim net", "Window (ps)",
                            "Unconstr margin (V)", "Windowed margin (V)",
                            "Excluded aggressors", "Dropped glitches",
                            "Verdict"});
        for (const auto& r : windowed) {
            const auto& w = r.windows;
            std::string excl;
            for (const auto& a : w.excludedAggressors) {
                excl += (excl.empty() ? "" : " ") + a;
            }
            std::string dropped;
            for (const auto& d : w.droppedIncoming) {
                dropped += (dropped.empty() ? "" : " ") + d;
            }
            wtable.addRow(
                {r.net,
                 "[" + util::Table::num(w.window.earliest * 1e12, 0) + ", " +
                     util::Table::num(w.window.latest * 1e12, 0) + "]",
                 util::Table::num(w.unconstrainedMargin, 3),
                 util::Table::num(w.windowedMargin, 3),
                 excl.empty() ? "-" : excl, dropped.empty() ? "-" : dropped,
                 r.cluster.fails ? "FAIL" : "pass"});
        }
        std::printf("With switching windows (FRAME-style temporal "
                    "correlation)\n\n%s\n",
                    wtable.str().c_str());
    }

    const auto s = cache.stats();
    std::printf("characterizations: %zu load curves, %zu thevenins, "
                "%zu NRC points, %zu propagation tables (%zu served from "
                "disk)\n",
                s.loadCurveRuns, s.theveninRuns, s.nrcRuns,
                s.propagationRuns, s.totalDiskHits());
    const bool saveOk = saveCache();
    // Non-zero exit after the full report printed: unwaived lint errors
    // (warn mode analyzes anyway but still fails the signoff gate) beat
    // per-net solver failures beat a strict-mode cache-save problem.
    if (lintFailed) return 2;
    if (!outcome.failedNets.empty() || !outcome.quarantinedNets.empty())
        return 4;
    if (!saveOk && cacheStrict) return 1;
    return 0;
}
