#include "mor/prima.hpp"

#include <cmath>

#include "spice/mna.hpp"
#include "util/error.hpp"

namespace sna::mor {

PrimaModel primaReduce(const LinearNetwork& net, const std::vector<int>& ports,
                       int blocks, double s0) {
    SNA_REQUIRE(!ports.empty(), "PRIMA needs at least one port");
    SNA_REQUIRE(blocks >= 1, "PRIMA needs at least one block iteration");
    SNA_REQUIRE(s0 > 0.0, "expansion point must be positive for RC nets");
    const int n = net.size();
    const int p = static_cast<int>(ports.size());

    // A = (G + s0 C), factorized once.
    la::DenseMatrix a(n, n);
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            a(r, c) = net.G()(r, c) + s0 * net.C()(r, c);
        }
    }
    la::DenseLu lu(std::move(a));

    // Starting block: A^{-1} B with B = port current injections.
    std::vector<la::Vector> v;  // orthonormal basis columns
    std::vector<la::Vector> block;
    for (int i = 0; i < p; ++i) {
        la::Vector b(n, 0.0);
        b[ports[i]] = 1.0;
        block.push_back(lu.solve(b));
    }

    auto orthonormalize = [&](la::Vector& w) -> bool {
        // Modified Gram-Schmidt with one re-orthogonalization pass.
        for (int pass = 0; pass < 2; ++pass) {
            for (const auto& q : v) {
                double dot = 0.0;
                for (int i = 0; i < n; ++i) dot += q[i] * w[i];
                for (int i = 0; i < n; ++i) w[i] -= dot * q[i];
            }
        }
        const double nrm = la::norm2(w);
        if (nrm < 1e-13) return false;  // deflated direction
        for (int i = 0; i < n; ++i) w[i] /= nrm;
        return true;
    };

    for (int k = 0; k < blocks; ++k) {
        std::vector<la::Vector> next;
        for (auto& w : block) {
            if (orthonormalize(w)) {
                v.push_back(w);
                // Next Krylov direction: A^{-1} C w.
                next.push_back(lu.solve(net.C().multiply(w)));
            }
        }
        if (v.empty()) {
            throw ModelError("PRIMA: starting block fully deflated");
        }
        block = std::move(next);
        if (block.empty()) break;
    }

    const int q = static_cast<int>(v.size());
    PrimaModel m;
    m.ghat = la::DenseMatrix(q, q);
    m.chat = la::DenseMatrix(q, q);
    m.bhat = la::DenseMatrix(q, p);
    // Ghat = V^T G V etc. (dense triple products; q and n are small).
    for (int i = 0; i < q; ++i) {
        const la::Vector gv = net.G().multiply(v[i]);
        const la::Vector cv = net.C().multiply(v[i]);
        for (int j = 0; j < q; ++j) {
            double gg = 0.0, cc = 0.0;
            for (int r = 0; r < n; ++r) {
                gg += v[j][r] * gv[r];
                cc += v[j][r] * cv[r];
            }
            m.ghat(j, i) = gg;
            m.chat(j, i) = cc;
        }
        for (int c = 0; c < p; ++c) {
            m.bhat(i, c) = v[i][ports[c]];
        }
    }
    // Tiny Tikhonov term keeps Ghat regular for capacitively floating nets
    // (their DC null space is pinned by the port constraints, but the DC
    // operating-point solve benefits from a regular diagonal).
    for (int i = 0; i < q; ++i) m.ghat(i, i) += 1e-12;
    return m;
}

// ------------------------------------------------------------ the device

ReducedMultiport::ReducedMultiport(std::string name,
                                   std::vector<spice::NodeId> portNodes,
                                   PrimaModel model)
    : Device(std::move(name), std::move(portNodes)), model_(std::move(model)) {
    SNA_REQUIRE(static_cast<int>(nodes().size()) == model_.ports(),
                "port node count must match the reduced model: " +
                    this->name());
}

std::size_t ReducedMultiport::branchCount() const {
    return static_cast<std::size_t>(model_.order() + model_.ports());
}

std::size_t ReducedMultiport::stateCount() const {
    return static_cast<std::size_t>(2 * model_.order());  // xh and xh'
}

void ReducedMultiport::stamp(spice::Stamper& s,
                             const spice::EvalContext& ctx) const {
    const int q = model_.order();
    const int p = model_.ports();
    const int base = ctx.branchRow(*this);

    // Companion coefficient for xh' and its history contribution.
    double a = 0.0;
    const bool tran = ctx.transient();
    const bool trap = tran && ctx.method() == spice::Integration::Trapezoidal;
    if (tran) a = (trap ? 2.0 : 1.0) / ctx.dt();

    for (int k = 0; k < q; ++k) {
        const int row = base + k;
        for (int j = 0; j < q; ++j) {
            const double coeff = model_.ghat(k, j) + a * model_.chat(k, j);
            if (coeff != 0.0) s.branchPair(row, base + j, coeff);
        }
        for (int i = 0; i < p; ++i) {
            const double b = model_.bhat(k, i);
            if (b != 0.0) s.branchPair(row, base + q + i, -b);
        }
        if (tran) {
            double hist = 0.0;
            for (int j = 0; j < q; ++j) {
                const double xp = ctx.state(*this, static_cast<std::size_t>(j));
                const double xdp =
                    ctx.state(*this, static_cast<std::size_t>(q + j));
                hist += model_.chat(k, j) * (a * xp + (trap ? xdp : 0.0));
            }
            s.branchRhs(row, hist);
        }
    }
    // Port-voltage constraints: Bhat^T xh - v(port) = 0.
    for (int i = 0; i < p; ++i) {
        const int row = base + q + i;
        for (int j = 0; j < q; ++j) {
            const double b = model_.bhat(j, i);
            if (b != 0.0) s.branchPair(row, base + j, b);
        }
        s.branchControl(row, nodes()[i], -1.0);
        // Port current u_i leaves the attachment node into the network.
        s.nodeBranch(nodes()[i], base + q + i, +1.0);
    }
}

void ReducedMultiport::updateState(const spice::EvalContext& ctx) const {
    const int q = model_.order();
    const int base = ctx.branchRow(*this);
    if (!ctx.transient()) {
        for (int j = 0; j < q; ++j) {
            ctx.setState(*this, static_cast<std::size_t>(j),
                         ctx.unknown(base + j));
            ctx.setState(*this, static_cast<std::size_t>(q + j), 0.0);
        }
        return;
    }
    const bool trap = ctx.method() == spice::Integration::Trapezoidal;
    const double inv = 1.0 / ctx.dt();
    for (int j = 0; j < q; ++j) {
        const double xn = ctx.unknown(base + j);
        const double xp = ctx.state(*this, static_cast<std::size_t>(j));
        const double xdp = ctx.state(*this, static_cast<std::size_t>(q + j));
        const double xd =
            trap ? (2.0 * inv * (xn - xp) - xdp) : (inv * (xn - xp));
        ctx.setState(*this, static_cast<std::size_t>(j), xn);
        ctx.setState(*this, static_cast<std::size_t>(q + j), xd);
    }
}

double ReducedMultiport::currentInto(spice::NodeId n,
                                     const spice::EvalContext& ctx) const {
    const int q = model_.order();
    const int base = ctx.branchRow(*this);
    for (int i = 0; i < model_.ports(); ++i) {
        if (nodes()[i] == n) {
            return -ctx.unknown(base + q + i);  // u_i flows into the network
        }
    }
    return 0.0;
}

}  // namespace sna::mor
