#include "spice/tran.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace sna::spice {

bool TranResult::has(const std::string& node) const {
    return std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end();
}

wave::Waveform TranResult::waveform(const std::string& node) const {
    const auto it = std::find(nodes_.begin(), nodes_.end(), node);
    SNA_REQUIRE(it != nodes_.end(), "no waveform recorded for node '" + node +
                                        "'");
    const std::size_t column = static_cast<std::size_t>(it - nodes_.begin());
    const std::size_t stride = nodes_.size();
    std::vector<wave::Sample> samples(times_.size());
    for (std::size_t k = 0; k < times_.size(); ++k) {
        samples[k] = {times_[k], volts_[k * stride + column]};
    }
    return wave::Waveform(std::move(samples));
}

namespace {

// Breakpoints: every PWL corner of every voltage source in (0, tstop).
std::vector<double> collectBreakpoints(const Circuit& circuit, double tstop) {
    std::vector<double> bps;
    for (const auto& dev : circuit.devices()) {
        const auto* vs = dynamic_cast<const VSource*>(dev.get());
        if (vs == nullptr) continue;
        for (double t : vs->spec().breakpoints()) {
            if (t > 1e-21 && t < tstop) bps.push_back(t);
        }
    }
    bps.push_back(tstop);
    std::sort(bps.begin(), bps.end());
    // Merge breakpoints closer than a femtosecond.
    std::vector<double> merged;
    for (double t : bps) {
        if (merged.empty() || t - merged.back() > 1e-15) merged.push_back(t);
    }
    return merged;
}

}  // namespace

TranResult simulateTransient(const Circuit& circuit,
                             const TranOptions& options) {
    SNA_REQUIRE(options.tstop > 0.0, "transient needs a positive tstop");
    const double tstop = options.tstop;
    const double dtInit =
        (options.dtInit > 0.0) ? options.dtInit : tstop / 5000.0;
    const double dtMax = (options.dtMax > 0.0) ? options.dtMax : tstop / 50.0;
    const double dtMin = options.dtMin;

    MnaMap map(circuit);
    // One workspace for the whole run: every Newton iteration of the DC
    // ladder and of every step reuses its Jacobian, LU and step vector.
    NewtonWorkspace ws(map);
    TranResult result;

    // --- initial condition -------------------------------------------------
    map.updateFixed(0.0, 1.0);
    const std::size_t n = map.unknowns();
    la::Vector x(n, 0.0);
    robustDcSolve(map, ws, x);
    map.setGmin(1e-12);
    map.updateFixed(0.0, 1.0);
    map.commitFixed();

    // updateState rewrites every slot, so a commit swaps the two buffers.
    std::vector<double> statePrev(map.stateSlots(), 0.0);
    std::vector<double> stateNext(map.stateSlots(), 0.0);
    {
        EvalContext ctx(map, x, nullptr, 0.0, 0.0, Integration::BackwardEuler,
                        /*transient=*/false, 1.0, &statePrev, &stateNext);
        map.updateState(ctx, ws.companions);
        std::swap(statePrev, stateNext);
    }

    // --- recording ---------------------------------------------------------
    // One row of non-ground node voltages per accepted time point. Returns
    // true when the stop hook ends the run at this sample.
    const std::size_t nodeCount = circuit.nodeCount();
    auto recordAll = [&](double t) {
        result.times_.push_back(t);
        for (NodeId id = 1; id < static_cast<NodeId>(nodeCount); ++id) {
            result.volts_.push_back(map.voltage(id, x));
        }
        return options.stopWhen &&
               options.stopWhen(TranSample{
                   t, result.volts_.data() + result.volts_.size() -
                          (nodeCount - 1)});
    };
    bool stopped = recordAll(0.0);

    // --- main loop ----------------------------------------------------------
    const std::vector<double> breakpoints = collectBreakpoints(circuit, tstop);
    std::size_t nextBp = 0;

    double t = 0.0;
    double dt = dtInit;
    double dtPrevAccepted = 0.0;
    la::Vector xOlder(n, 0.0);   // solution one accepted point earlier
    la::Vector xPred(n, 0.0);    // linear predictor (LTE reference)
    la::Vector xNew(n, 0.0);     // Newton iterate of the current step
    bool haveHistory = false;    // xOlder valid (for the predictor)
    bool forceBe = true;         // BE on the first step and after breakpoints

    TranStats stats;
    while (!stopped && t < tstop - 1e-18) {
        // Cooperative cancellation: one thread-local read per accepted or
        // rejected step when no deadline is armed. Unwinds with
        // CancelledError so a deadline can interrupt a solve mid-transient
        // instead of waiting out the full timestep budget.
        util::pollCancellation();
        if (stats.accepted + stats.rejected > options.maxSteps) {
            throw ConvergenceError("transient exceeded the step budget");
        }
        // Land exactly on the next breakpoint.
        while (nextBp < breakpoints.size() && breakpoints[nextBp] <= t + 1e-18) {
            ++nextBp;
        }
        bool hitsBp = false;
        if (nextBp < breakpoints.size() && t + dt >= breakpoints[nextBp] - 1e-15) {
            dt = breakpoints[nextBp] - t;
            hitsBp = true;
        }
        const Integration method =
            forceBe ? Integration::BackwardEuler : Integration::Trapezoidal;

        // Predictor as the Newton initial guess (and the LTE reference).
        const bool canPredict = haveHistory && dtPrevAccepted > 0.0;
        if (canPredict) {
            const double a = dt / dtPrevAccepted;
            for (std::size_t i = 0; i < n; ++i) {
                xPred[i] = x[i] + a * (x[i] - xOlder[i]);
            }
            xNew = xPred;
        } else {
            xNew = x;
        }

        bool converged = false;
        try {
            const NewtonStats ns =
                solveNewton(map, ws, xNew, t + dt, dt, method,
                            /*transient=*/true, 1.0, &x, &statePrev);
            stats.newtonIterations += ns.iterations;
            stats.factorizations += ns.factorizations;
            converged = ns.converged;
        } catch (const ConvergenceError&) {
            converged = false;
        }

        if (!converged) {
            ++stats.rejected;
            dt *= 0.25;
            if (dt < dtMin) {
                throw ConvergenceError("transient Newton failed at t = " +
                                       std::to_string(t));
            }
            continue;
        }

        // LTE control: compare the corrector against the linear predictor.
        if (canPredict && method == Integration::Trapezoidal) {
            double eps = 0.0;
            for (std::size_t i = 0; i < xNew.size(); ++i) {
                const double scale =
                    options.reltol *
                        std::max(std::abs(xNew[i]), std::abs(x[i])) +
                    options.abstol;
                eps = std::max(eps, std::abs(xNew[i] - xPred[i]) / scale);
            }
            if (eps > 1.0 && dt > dtMin * 4.0 && !hitsBp) {
                ++stats.rejected;
                dt *= std::max(0.2, 0.9 * std::pow(eps, -1.0 / 3.0));
                continue;
            }
            // Accepted: grow the step for next time.
            const double grow =
                (eps > 0.0) ? 0.9 * std::pow(eps, -1.0 / 3.0) : 2.0;
            dtPrevAccepted = dt;
            dt = std::clamp(dt * std::clamp(grow, 0.3, 2.0), dtMin, dtMax);
        } else {
            dtPrevAccepted = dt;
            dt = std::clamp(dt * 2.0, dtMin, dtMax);
        }

        // Commit the step: ws.companions are still those of the Newton call
        // that converged to xNew.
        {
            EvalContext ctx(map, xNew, &x, t + dtPrevAccepted, dtPrevAccepted,
                            method, /*transient=*/true, 1.0, &statePrev,
                            &stateNext);
            map.updateState(ctx, ws.companions);
            std::swap(statePrev, stateNext);
        }
        map.commitFixed();
        xOlder = x;
        x = xNew;
        haveHistory = true;
        t += dtPrevAccepted;
        ++stats.accepted;
        stopped = recordAll(t);

        if (hitsBp) {
            // Slope discontinuity: restart integration gently.
            forceBe = true;
            haveHistory = false;
            dt = std::min(dt, dtInit);
        } else {
            forceBe = false;
        }
    }

    // --- package ------------------------------------------------------------
    result.stats_ = stats;
    result.nodes_.reserve(nodeCount - 1);
    for (NodeId id = 1; id < static_cast<NodeId>(nodeCount); ++id) {
        result.nodes_.push_back(circuit.nodeName(id));
    }
    log::debug() << "transient: " << stats.accepted << " steps, "
                 << stats.rejected << " rejected, " << stats.newtonIterations
                 << " newton iterations, " << stats.factorizations
                 << " factorizations";
    return result;
}

}  // namespace sna::spice
