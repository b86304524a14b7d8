// Tests for the SPICE engine: MNA assembly, DC Newton, transient accuracy,
// device physics, and KCL invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/tran.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "waveform/metrics.hpp"
#include "waveform/sources.hpp"

namespace {

using namespace sna;
using spice::Circuit;
using spice::SourceSpec;

// ---------------------------------------------------------------- DC basics

TEST(Dc, ResistorDivider) {
    Circuit c;
    const auto vdd = c.node("vdd");
    const auto mid = c.node("mid");
    c.addVSource("v1", vdd, spice::kGround, SourceSpec::dc(3.0));
    c.addResistor("r1", vdd, mid, 1000.0);
    c.addResistor("r2", mid, spice::kGround, 2000.0);
    const auto dc = spice::solveDc(c);
    // gmin (1e-12 S per node) loads the divider by a few nV; that is the
    // accepted SPICE-engine behavior, not an error.
    EXPECT_NEAR(dc.voltage("mid"), 2.0, 1e-7);
    EXPECT_NEAR(dc.voltage("vdd"), 3.0, 1e-12);
    // Source delivers V/(R1+R2) = 1 mA.
    EXPECT_NEAR(dc.sourceCurrent("v1"), 1e-3, 1e-9);
}

TEST(Dc, FloatingVSourceUsesBranchEquation) {
    // 3 V across a floating source stacked on a 1 V grounded source.
    Circuit c;
    const auto a = c.node("a");
    const auto b = c.node("b");
    c.addVSource("vbase", a, spice::kGround, SourceSpec::dc(1.0));
    c.addVSource("vstack", b, a, SourceSpec::dc(3.0));
    c.addResistor("rl", b, spice::kGround, 1e4);
    const auto dc = spice::solveDc(c);
    EXPECT_NEAR(dc.voltage("b"), 4.0, 1e-9);
}

// ----------------------------------------------------------------- MNA map

TEST(Mna, SlotLookupsRejectForeignAndSlotlessDevices) {
    // Two structurally identical circuits: their devices share indices, so
    // only the ownership check tells them apart.
    Circuit a;
    Circuit b;
    for (Circuit* c : {&a, &b}) {
        const auto n1 = c->node("n1");
        const auto n2 = c->node("n2");
        c->addVSource("vbase", n1, spice::kGround, SourceSpec::dc(1.0));
        c->addVSource("vstack", n2, n1, SourceSpec::dc(2.0));
        c->addResistor("r", n2, spice::kGround, 1e3);
        c->addCapacitor("c", n2, spice::kGround, 1e-12);
    }
    const spice::MnaMap map(a);
    EXPECT_EQ(map.stateBaseOf(*a.findDevice("c")), 0u);
    EXPECT_EQ(map.branchBaseOf(*a.findDevice("vstack")),
              static_cast<int>(map.nodeUnknowns()));

    EXPECT_THROW(map.stateBaseOf(*b.findDevice("c")), LogicError);
    EXPECT_THROW(map.branchBaseOf(*b.findDevice("vstack")), LogicError);
    EXPECT_THROW(map.stateBaseOf(*a.findDevice("r")), LogicError);
    EXPECT_THROW(map.branchBaseOf(*a.findDevice("c")), LogicError);

    const spice::Capacitor loose("loose", 1, spice::kGround, 1e-12);
    EXPECT_EQ(loose.index(), spice::Device::kUnregistered);
    EXPECT_THROW(map.stateBaseOf(loose), LogicError);
    // Added after the map was built: not part of the mapped circuit.
    const auto& late = a.addCapacitor("late", 2, spice::kGround, 1e-12);
    EXPECT_THROW(map.stateBaseOf(late), LogicError);
}

TEST(Dc, TwoSourcesOnOneNodeIsModelError) {
    Circuit c;
    const auto n = c.node("n");
    c.addVSource("v1", n, spice::kGround, SourceSpec::dc(1.0));
    c.addVSource("v2", n, spice::kGround, SourceSpec::dc(2.0));
    EXPECT_THROW(spice::solveDc(c), ModelError);
}

TEST(Dc, TableVccsPullsNodeToTableRoot) {
    // Table i(vin, vout) = (vout - 0.5) * 1e-3 regardless of vin: a 1 kOhm
    // Norton equivalent pulling the node to 0.5 V.
    std::vector<double> vin{0.0, 1.0};
    std::vector<double> vout{0.0, 1.0};
    std::vector<double> z;
    for (double x : vin) {
        (void)x;
        for (double y : vout) z.push_back((y - 0.5) * 1e-3);
    }
    Circuit c;
    const auto out = c.node("out");
    const auto in = c.node("in");
    c.addVSource("vin", in, spice::kGround, SourceSpec::dc(0.3));
    c.addTableVccs("t1", out, in,
                   std::make_shared<const la::Grid2d>(vin, vout, z));
    const auto dc = spice::solveDc(c);
    EXPECT_NEAR(dc.voltage("out"), 0.5, 1e-6);
}

// ---------------------------------------------------------------- MOSFET

spice::MosModel nmosModel() {
    spice::MosModel m;
    m.type = spice::MosType::Nmos;
    m.vt0 = 0.4;
    m.kp = 200e-6;
    m.lambda = 0.05;
    m.gamma = 0.2;
    m.phi = 0.7;
    return m;
}

spice::MosModel pmosModel() {
    spice::MosModel m = nmosModel();
    m.type = spice::MosType::Pmos;
    m.vt0 = 0.42;
    m.kp = 80e-6;
    return m;
}

TEST(Mosfet, RegionsOfLevel1) {
    const auto m = nmosModel();
    const double beta = m.kp * 2.0;  // W/L = 2
    // Cutoff.
    EXPECT_DOUBLE_EQ(spice::evalLevel1(m, beta, 0.2, 0.5, 0.0).ids, 0.0);
    // Saturation: vds > vgst.
    const auto sat = spice::evalLevel1(m, beta, 1.0, 1.0, 0.0);
    const double vgst = 1.0 - m.vt0;
    EXPECT_NEAR(sat.ids, 0.5 * beta * vgst * vgst * (1 + m.lambda * 1.0), 1e-12);
    EXPECT_GT(sat.gm, 0.0);
    EXPECT_GT(sat.gds, 0.0);
    // Triode: vds < vgst.
    const auto tri = spice::evalLevel1(m, beta, 1.2, 0.1, 0.0);
    EXPECT_NEAR(tri.ids, beta * ((1.2 - m.vt0) - 0.05) * 0.1 * (1 + 0.005),
                1e-12);
}

TEST(Mosfet, ContinuousAcrossTriodeSatBoundary) {
    const auto m = nmosModel();
    const double beta = m.kp;
    const double vgst = 0.6;
    const auto below = spice::evalLevel1(m, beta, vgst + m.vt0, vgst - 1e-9, 0.0);
    const auto above = spice::evalLevel1(m, beta, vgst + m.vt0, vgst + 1e-9, 0.0);
    EXPECT_NEAR(below.ids, above.ids, 1e-9);
    EXPECT_NEAR(below.gm, above.gm, 1e-6);
}

TEST(Mosfet, BodyEffectRaisesThreshold) {
    const auto m = nmosModel();
    const auto noBias = spice::evalLevel1(m, m.kp, 0.8, 1.0, 0.0);
    const auto revBias = spice::evalLevel1(m, m.kp, 0.8, 1.0, -0.5);
    EXPECT_GT(noBias.ids, revBias.ids);
    EXPECT_GT(revBias.gmbs, 0.0);
}

class MosfetMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(MosfetMonotonic, IdsIncreasesWithVgsAndVds) {
    const auto m = nmosModel();
    const double vds = GetParam();
    double prev = -1.0;
    for (double vgs = 0.0; vgs <= 1.3; vgs += 0.05) {
        const double ids = spice::evalLevel1(m, m.kp, vgs, vds, 0.0).ids;
        EXPECT_GE(ids, prev - 1e-15);
        prev = ids;
    }
    double prevD = -1.0;
    for (double v = 0.0; v <= 1.3; v += 0.05) {
        const double ids = spice::evalLevel1(m, m.kp, 1.2, v, 0.0).ids;
        EXPECT_GE(ids, prevD - 1e-15);
        prevD = ids;
    }
}

INSTANTIATE_TEST_SUITE_P(VdsSweep, MosfetMonotonic,
                         ::testing::Values(0.05, 0.2, 0.6, 1.0, 1.2));

TEST(Mosfet, LinearizationMatchesFiniteDifference) {
    Circuit c;
    const auto d = c.node("d");
    const auto g = c.node("g");
    const auto s = c.node("s");
    const auto b = c.node("b");
    auto& fet = c.addMosfet("m1", d, g, s, b, nmosModel(), 1e-6, 0.13e-6,
                            /*withParasitics=*/false);
    util::Rng rng(3);
    for (int k = 0; k < 50; ++k) {
        const double vd = rng.uniform(-0.3, 1.5);
        const double vg = rng.uniform(-0.3, 1.5);
        const double vs = rng.uniform(-0.3, 1.5);
        const double vb = rng.uniform(-0.3, 0.0);
        const auto lin = fet.linearize(vd, vg, vs, vb);
        const double h = 1e-7;
        const double dId =
            (fet.linearize(vd + h, vg, vs, vb).id - fet.linearize(vd - h, vg, vs, vb).id) /
            (2 * h);
        const double dIg =
            (fet.linearize(vd, vg + h, vs, vb).id - fet.linearize(vd, vg - h, vs, vb).id) /
            (2 * h);
        const double dIs =
            (fet.linearize(vd, vg, vs + h, vb).id - fet.linearize(vd, vg, vs - h, vb).id) /
            (2 * h);
        // Finite differences straddling a region boundary are allowed to
        // disagree; tolerate a small absolute band.
        EXPECT_NEAR(lin.dVd, dId, 5e-4 + 0.02 * std::abs(dId));
        EXPECT_NEAR(lin.dVg, dIg, 5e-4 + 0.02 * std::abs(dIg));
        EXPECT_NEAR(lin.dVs, dIs, 5e-4 + 0.02 * std::abs(dIs));
    }
}

// Build a CMOS inverter: returns (circuit, in, out nodes).
struct InverterFixture {
    Circuit c;
    spice::NodeId in, out, vdd;
    double supply = 1.2;

    explicit InverterFixture(double wp = 2e-6, double wn = 1e-6) {
        vdd = c.node("vdd");
        in = c.node("in");
        out = c.node("out");
        c.addVSource("vsupply", vdd, spice::kGround, SourceSpec::dc(supply));
        c.addMosfet("mp", out, in, vdd, vdd, pmosModel(), wp, 0.13e-6);
        c.addMosfet("mn", out, in, spice::kGround, spice::kGround, nmosModel(),
                    wn, 0.13e-6);
    }
};

TEST(Dc, InverterRails) {
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.0));
    auto dc = spice::solveDc(f.c);
    EXPECT_NEAR(dc.voltage("out"), 1.2, 1e-3);

    InverterFixture g;
    g.c.addVSource("vin", g.in, spice::kGround, SourceSpec::dc(1.2));
    dc = spice::solveDc(g.c);
    EXPECT_NEAR(dc.voltage("out"), 0.0, 1e-3);
}

TEST(Dc, InverterVtcIsMonotonicDecreasing) {
    InverterFixture f;
    auto& vin = f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.0));
    double prev = 1e9;
    la::Vector warm;
    for (double v = 0.0; v <= 1.2 + 1e-9; v += 0.05) {
        vin.setSpec(SourceSpec::dc(v));
        const auto dc =
            spice::solveDc(f.c, warm.empty() ? nullptr : &warm);
        warm = dc.raw();
        const double out = dc.voltage("out");
        EXPECT_LE(out, prev + 1e-6) << "VTC not monotonic at vin=" << v;
        prev = out;
    }
}

TEST(Dc, KclHoldsAtEveryInternalNode) {
    // Property: at DC, the device currents into every free node sum to ~0.
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.6));
    const auto dc = spice::solveDc(f.c);
    // Rebuild an eval context equivalent via sourceCurrent: use KCL through
    // the public API: current delivered by supply equals current sunk by
    // the NMOS (out node is internal, so check via the two fets directly).
    const double iSupply = dc.sourceCurrent("vsupply");
    EXPECT_GT(std::abs(iSupply), 1e-9);  // inverter mid-swing draws current
    // Input draws no DC current.
    EXPECT_NEAR(dc.sourceCurrent("vin"), 0.0, 1e-9);
}

TEST(Mna, AssemblyOverwritesStaleContents) {
    // assemble() zeroes J and rhs before stamping: a system assembled into
    // stale buffers has the bits of one assembled into zeroed ones.
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround, SourceSpec::dc(0.6));
    const auto mid = f.c.node("mid");
    f.c.addVSource("vfloat", mid, f.out, SourceSpec::dc(0.1));
    f.c.addResistor("rl", mid, spice::kGround, 5e3);
    f.c.addCapacitor("cl", f.out, spice::kGround, 2e-15);
    spice::MnaMap map(f.c);
    const std::size_t n = map.unknowns();
    la::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.3 + 0.17 * double(i);
    const std::vector<double> state(map.stateSlots(), 1e-6);
    const spice::EvalContext ctx(map, x, &x, 1e-9, 1e-12,
                                 spice::Integration::Trapezoidal, true, 1.0,
                                 &state, nullptr);

    la::DenseMatrix stale(n, n, 7.0);
    la::Vector rhsStale(n, 3.0);
    la::DenseMatrix fresh(n, n, 0.0);
    la::Vector rhsFresh(n, 0.0);
    map.assemble(stale, rhsStale, ctx);
    map.assemble(fresh, rhsFresh, ctx);
    for (std::size_t r = 0; r < n; ++r) {
        EXPECT_EQ(rhsStale[r], rhsFresh[r]) << "row " << r;
        for (std::size_t c = 0; c < n; ++c) {
            EXPECT_EQ(stale(r, c), fresh(r, c)) << r << "," << c;
        }
    }
}

// FNV-1a over the bit pattern of each double: a pin that moves with any
// change of a single bit anywhere in what it covers.
std::uint64_t fnv1a(std::uint64_t h, double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t systemHash(const la::DenseMatrix& j, const la::Vector& rhs) {
    std::uint64_t h = kFnvBasis;
    for (std::size_t r = 0; r < j.rows(); ++r) {
        for (std::size_t c = 0; c < j.cols(); ++c) h = fnv1a(h, j(r, c));
    }
    for (const double v : rhs) h = fnv1a(h, v);
    return h;
}

// A 3x3 load-curve table over 0..1.2 V on both axes.
std::shared_ptr<const la::Grid2d> smallLoadCurve() {
    return std::make_shared<const la::Grid2d>(
        std::vector<double>{0.0, 0.6, 1.2}, std::vector<double>{0.0, 0.6, 1.2},
        std::vector<double>{-2e-4, 1e-4, 3e-4, -1e-4, 2e-4, 4e-4, 0.0, 3e-4,
                            6e-4});
}

// Every device kind and every terminal case (unknown, source-fixed of
// either polarity, ground, two fixed ends) on top of the inverter.
void addEveryDeviceKind(InverterFixture& f) {
    Circuit& c = f.c;
    const auto a = c.node("a");
    const auto b = c.node("b");
    const auto g = c.node("g");
    const auto d = c.node("d");
    const auto mid = c.node("mid");
    const auto nin = c.node("nin");
    c.addResistor("r1", f.in, a, 1e3);
    c.addCapacitor("c1", a, spice::kGround, 5e-15);
    c.addCapacitor("cc", a, f.out, 2e-15);
    c.addVSource("vin", f.in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 1e-10, 2e-10,
                                                     1e-9)));
    c.addResistor("r2", b, spice::kGround, 2e3);
    c.addResistor("r3", g, f.vdd, 3e3);
    c.addResistor("r4", d, f.out, 1e3);
    c.addVSource("vfloat", mid, f.out, SourceSpec::dc(0.1));
    c.addResistor("r5", mid, spice::kGround, 5e3);
    c.addTableVccs("t1", f.out, f.in, smallLoadCurve());
    c.addCapacitor("c2", f.vdd, b, 3e-15);
    c.addVSource("vneg", spice::kGround, nin, SourceSpec::dc(0.2));
    c.addCapacitor("c3", nin, g, 1e-15);
    c.addCapacitor("c4", f.in, f.vdd, 4e-15);  // both ends fixed
    c.addResistor("r6", nin, f.in, 7e3);       // both ends fixed
    c.addResistor("r7", a, f.in, 4e3);         // ramping fixed second end
    c.addCapacitor("c5", b, f.in, 1.5e-15);    // likewise
}

TEST(Mna, AssemblyBitPin) {
    // Every device kind stamped at DC and at a backward-Euler and a
    // trapezoidal step whose previous point, previous state and fixed-node
    // history all differ from the iterate. The hashes pin the exact bits of
    // J and rhs.
    InverterFixture f;  // vsupply, mp, mn (+ their parasitic capacitors)
    addEveryDeviceKind(f);
    const Circuit& c = f.c;
    spice::MnaMap map(c);
    const std::size_t n = map.unknowns();
    ASSERT_GT(n, map.nodeUnknowns());  // vfloat's branch row
    la::Vector x(n);
    la::Vector xPrev(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = 0.3 + 0.17 * double(i);
        xPrev[i] = 0.25 + 0.11 * double(i);
    }
    std::vector<double> state(map.stateSlots());
    for (std::size_t i = 0; i < state.size(); ++i) {
        state[i] = 1e-6 * (double(i) - 2.5);
    }
    map.updateFixed(1.5e-10, 1.0);  // vin mid-ramp at the previous point
    map.commitFixed();
    map.updateFixed(2e-10, 1.0);

    struct Case {
        const char* name;
        spice::EvalContext ctx;
        std::uint64_t want;
    };
    const Case cases[] = {
        {"dc",
         spice::EvalContext(map, x, nullptr, 0.0, 0.0,
                            spice::Integration::BackwardEuler, false, 1.0,
                            nullptr, nullptr),
         0xf83733ae2be40744ull},
        {"be",
         spice::EvalContext(map, x, &xPrev, 2e-10, 5e-11,
                            spice::Integration::BackwardEuler, true, 1.0,
                            &state, nullptr),
         0x170e7d6473d1667aull},
        {"tr",
         spice::EvalContext(map, x, &xPrev, 2e-10, 5e-11,
                            spice::Integration::Trapezoidal, true, 1.0,
                            &state, nullptr),
         0xa8aefc06b96fc1dbull},
    };
    for (const Case& k : cases) {
        la::DenseMatrix j(n, n, 7.0);
        la::Vector rhs(n, 3.0);
        map.assemble(j, rhs, k.ctx);
        const std::uint64_t h = systemHash(j, rhs);
        EXPECT_EQ(h, k.want) << k.name << std::hex << " 0x" << h;
    }
}

TEST(Mna, PlanMatchesTheDeviceStamps) {
    // The plan stamps resistors and capacitors from its own entries; each
    // device's own stamp() must assemble the same bits, at DC and at a
    // trapezoidal step.
    InverterFixture f;
    addEveryDeviceKind(f);
    spice::MnaMap map(f.c);
    const std::size_t n = map.unknowns();
    la::Vector x(n);
    la::Vector xPrev(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = 0.2 + 0.13 * double(i);
        xPrev[i] = 0.35 - 0.05 * double(i);
    }
    const std::vector<double> state(map.stateSlots(), -3e-6);
    map.commitFixed();
    map.updateFixed(1.7e-10, 1.0);
    for (const bool transient : {false, true}) {
        const spice::EvalContext ctx(map, x, &xPrev, 1.7e-10, 2e-11,
                                     spice::Integration::Trapezoidal,
                                     transient, 1.0, &state, nullptr);
        la::DenseMatrix planned(n, n);
        la::Vector rhsPlanned(n);
        map.assemble(planned, rhsPlanned, ctx);

        la::DenseMatrix stamped(n, n, 0.0);
        la::Vector rhsStamped(n, 0.0);
        spice::Stamper st(map, stamped, rhsStamped);
        for (const auto& dev : f.c.devices()) dev->stamp(st, ctx);
        for (std::size_t i = 0; i < map.nodeUnknowns(); ++i) {
            stamped(i, i) += map.gmin();
        }
        EXPECT_EQ(systemHash(stamped, rhsStamped),
                  systemHash(planned, rhsPlanned))
            << transient;
    }
}

// -------------------------------------------------------------- transient

TEST(Tran, RcStepMatchesAnalytic) {
    // R = 1k, C = 1pF driven by a fast ramp step to 1 V: v(t) ~ 1-exp(-t/RC).
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    const double r = 1000.0, cap = 1e-12;
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 1e-11, 1e-12, 1e-8)));
    c.addResistor("r1", in, out, r);
    c.addCapacitor("c1", out, spice::kGround, cap);
    spice::TranOptions opt;
    opt.tstop = 8e-9;
    const auto res = spice::simulateTransient(c, opt);
    const auto& w = res.waveform("out");
    const double t0 = 1.1e-11;  // after the input settles
    for (double t = 2e-10; t < 7e-9; t += 3e-10) {
        const double expected = 1.0 - std::exp(-(t - t0) / (r * cap));
        EXPECT_NEAR(w.value(t), expected, 6e-3) << "t=" << t;
    }
}

TEST(Tran, RcChargeConservation) {
    // Current integral through the resistor equals the final capacitor
    // charge: integrate (vin - vout)/R dt ~= C * vout(tstop).
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    const double r = 2000.0, cap = 2e-12;
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 0, 1e-11, 1e-7)));
    c.addResistor("r1", in, out, r);
    c.addCapacitor("c1", out, spice::kGround, cap);
    spice::TranOptions opt;
    opt.tstop = 5e-8;  // >> RC: fully charged
    const auto res = spice::simulateTransient(c, opt);
    const auto diff = res.waveform("in").minus(res.waveform("out"));
    const double charge = wave::integrate(diff) / r;
    EXPECT_NEAR(charge, cap * res.waveform("out").value(5e-8), cap * 0.02);
}

TEST(Tran, CoupledCapsInjectGlitch) {
    // Classic two-net crosstalk: victim held by a resistor, aggressor steps.
    Circuit c;
    const auto agg = c.node("agg");
    const auto vic = c.node("vic");
    c.addVSource("va", agg, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 1e-10, 5e-11, 1e-8)));
    c.addResistor("rhold", vic, spice::kGround, 1000.0);
    c.addCapacitor("cc", agg, vic, 20e-15);
    c.addCapacitor("cg", vic, spice::kGround, 30e-15);
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    const auto res = spice::simulateTransient(c, opt);
    const auto m = wave::measureGlitch(res.waveform("vic"), 0.0);
    EXPECT_GT(m.peak, 0.05);   // a visible upward glitch
    EXPECT_LT(m.peak, 1.2);    // but bounded by the aggressor swing
    // Glitch decays back to the baseline.
    EXPECT_NEAR(res.waveform("vic").value(2e-9), 0.0, 1e-3);
}

TEST(Tran, InverterSwitchesWithDelay) {
    InverterFixture f;
    f.c.addVSource("vin", f.in, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 2e-10, 5e-11,
                                                       4e-9)));
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
    spice::TranOptions opt;
    opt.tstop = 4e-9;
    const auto res = spice::simulateTransient(f.c, opt);
    const auto& out = res.waveform("out");
    EXPECT_NEAR(out.value(0.0), 1.2, 2e-2);
    EXPECT_NEAR(out.value(4e-9), 0.0, 2e-2);
    // Output crosses VDD/2 after the input does (causality / finite delay).
    const double tInCross = 2e-10 + 5e-11 * 0.5;
    double tOutCross = 0.0;
    for (const auto& s : out.samples()) {
        if (s.v < 0.6) {
            tOutCross = s.t;
            break;
        }
    }
    EXPECT_GT(tOutCross, tInCross);
}

TEST(Tran, TrapezoidalBeatsEulerOnEnergy) {
    // LC-free sanity: adaptive trap keeps the RC response within tolerance
    // even with a coarse dtMax (the LTE controller must refine).
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1, 0, 1e-11, 1e-7)));
    c.addResistor("r1", in, out, 1e4);
    c.addCapacitor("c1", out, spice::kGround, 1e-12);
    spice::TranOptions opt;
    opt.tstop = 5e-8;
    opt.dtMax = 5e-9;
    const auto res = spice::simulateTransient(c, opt);
    for (double t = 5e-9; t < 5e-8; t += 5e-9) {
        const double expected = 1.0 - std::exp(-t / 1e-8);
        EXPECT_NEAR(res.waveform("out").value(t), expected, 8e-3);
    }
}

TEST(Tran, StatsAreReported) {
    Circuit c;
    const auto n = c.node("n");
    c.addVSource("v", n, spice::kGround, SourceSpec::dc(1.0));
    c.addResistor("r", n, spice::kGround, 1.0);
    spice::TranOptions opt;
    opt.tstop = 1e-9;
    const auto res = spice::simulateTransient(c, opt);
    EXPECT_GT(res.stats().accepted, 10u);
    EXPECT_TRUE(res.has("n"));
    EXPECT_FALSE(res.has("nope"));
    EXPECT_THROW(res.waveform("nope"), LogicError);
}

// ---------------------------------------------------------------- stop hook

// A switching inverter: nonlinear, with breakpoint restarts and rejected
// steps, so a truncated run exercises every branch of the step loop.
void buildSwitchingInverter(InverterFixture& f) {
    f.c.addVSource("vin", f.in, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 2e-10, 5e-11,
                                                       2e-9)));
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
}

spice::TranOptions stopHookOptions() {
    spice::TranOptions opt;
    opt.tstop = 2e-9;
    return opt;
}

// Every node's samples, in node-id order.
std::vector<std::vector<wave::Sample>> allSamples(const Circuit& c,
                                                  const spice::TranResult& r) {
    std::vector<std::vector<wave::Sample>> out;
    for (spice::NodeId id = 1; id < static_cast<spice::NodeId>(c.nodeCount());
         ++id) {
        out.push_back(r.waveform(c.nodeName(id)).samples());
    }
    return out;
}

bool sameBits(const std::vector<wave::Sample>& a,
              const std::vector<wave::Sample>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

TEST(TranStopHook, NeverFiringHookChangesNothing) {
    InverterFixture f;
    buildSwitchingInverter(f);
    const auto full = spice::simulateTransient(f.c, stopHookOptions());

    auto opt = stopHookOptions();
    std::vector<wave::Sample> seen;
    opt.stopWhen = [&](const spice::TranSample& s) {
        seen.push_back({s.t, s.voltage(f.out)});
        EXPECT_EQ(s.voltage(spice::kGround), 0.0);
        return false;
    };
    const auto hooked = spice::simulateTransient(f.c, opt);

    const auto a = allSamples(f.c, full);
    const auto b = allSamples(f.c, hooked);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(sameBits(a[i], b[i])) << f.c.nodeName(
            static_cast<spice::NodeId>(i + 1));
    }
    EXPECT_EQ(full.stats().accepted, hooked.stats().accepted);
    EXPECT_EQ(full.stats().rejected, hooked.stats().rejected);
    EXPECT_EQ(full.stats().newtonIterations, hooked.stats().newtonIterations);
    EXPECT_GT(full.stats().rejected, 0u);
    // The hook saw every recorded sample, t = 0 included, in order.
    EXPECT_TRUE(sameBits(seen, full.waveform("out").samples()));
}

TEST(TranStopHook, StopAtSampleKKeepsTheFirstKPlusOneSamples) {
    InverterFixture f;
    buildSwitchingInverter(f);
    const auto full = spice::simulateTransient(f.c, stopHookOptions());
    const auto fullSamples = allSamples(f.c, full);
    const std::size_t total = fullSamples.front().size();
    ASSERT_GT(total, 40u);

    for (const std::size_t k : {std::size_t{1}, std::size_t{17}, total / 2,
                                total - 1}) {
        auto opt = stopHookOptions();
        std::size_t calls = 0;
        opt.stopWhen = [&](const spice::TranSample&) { return calls++ == k; };
        const auto cut = spice::simulateTransient(f.c, opt);
        EXPECT_EQ(cut.stats().accepted, k);
        EXPECT_EQ(calls, k + 1);  // never called again after returning true
        const auto cutSamples = allSamples(f.c, cut);
        for (std::size_t i = 0; i < fullSamples.size(); ++i) {
            const std::vector<wave::Sample> prefix(
                fullSamples[i].begin(),
                fullSamples[i].begin() + static_cast<std::ptrdiff_t>(k + 1));
            EXPECT_TRUE(sameBits(cutSamples[i], prefix)) << "k=" << k;
        }
    }
}

TEST(TranStopHook, StopAtTimeZeroKeepsTheOperatingPoint) {
    InverterFixture f;
    buildSwitchingInverter(f);
    auto opt = stopHookOptions();
    std::size_t calls = 0;
    opt.stopWhen = [&](const spice::TranSample& s) {
        ++calls;
        EXPECT_EQ(s.t, 0.0);
        return true;
    };
    const auto res = spice::simulateTransient(f.c, opt);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(res.stats().accepted, 0u);
    EXPECT_EQ(res.stats().rejected, 0u);
    const auto out = res.waveform("out").samples();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].t, 0.0);
    EXPECT_NEAR(out[0].v, 1.2, 2e-2);  // input low: output at the rail
}

TEST(TranStopHook, HookIsNotCalledAfterItStops) {
    // Stop on a voltage condition (the output's first fall below half
    // swing) rather than a count: the run ends at that sample and the last
    // recorded point is the one that satisfied it.
    InverterFixture f;
    buildSwitchingInverter(f);
    auto opt = stopHookOptions();
    std::size_t calls = 0;
    std::size_t callsAfterStop = 0;
    bool stopped = false;
    opt.stopWhen = [&](const spice::TranSample& s) {
        ++calls;
        if (stopped) ++callsAfterStop;
        stopped = s.voltage(f.out) < 0.6;
        return stopped;
    };
    const auto res = spice::simulateTransient(f.c, opt);
    EXPECT_TRUE(stopped);
    EXPECT_EQ(callsAfterStop, 0u);
    const auto out = res.waveform("out").samples();
    EXPECT_EQ(out.size(), calls);
    EXPECT_LT(out.back().v, 0.6);
    for (std::size_t i = 0; i + 1 < out.size(); ++i) EXPECT_GE(out[i].v, 0.6);
    EXPECT_LT(out.back().t, 2e-9);
}

TEST(Tran, LargeLadderBitPin) {
    // A branch-free RC ladder of 300 unknowns, with a few coupling caps to
    // a second ladder, under a PWL ramp: pins every sample of a run far
    // above the fixed-size LU kernels. The circuit is linear, so within one
    // step (and across steps of equal dt) the Jacobian repeats and its LU
    // is reused.
    Circuit c;
    const auto in = c.node("in");
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1.0, 2e-11, 5e-11,
                                                     1e-9)));
    const int sections = 150;
    spice::NodeId prevA = in;
    spice::NodeId prevB = spice::kGround;
    for (int k = 0; k < sections; ++k) {
        const auto na = c.node("a" + std::to_string(k));
        const auto nb = c.node("b" + std::to_string(k));
        c.addResistor("ra" + std::to_string(k), prevA, na, 20.0);
        c.addCapacitor("ca" + std::to_string(k), na, spice::kGround, 2e-16);
        c.addResistor("rb" + std::to_string(k), prevB, nb, 35.0);
        c.addCapacitor("cb" + std::to_string(k), nb, spice::kGround, 1.5e-16);
        if (k % 37 == 5) {
            c.addCapacitor("cc" + std::to_string(k), na, nb, 4e-16);
        }
        prevA = na;
        prevB = nb;
    }
    c.addResistor("rhold", prevB, spice::kGround, 1e3);
    ASSERT_EQ(spice::MnaMap(c).unknowns(), 300u);

    spice::TranOptions opt;
    opt.tstop = 3e-10;
    const auto res = spice::simulateTransient(c, opt);
    std::uint64_t h = kFnvBasis;
    std::size_t samples = 0;
    for (const auto& node : allSamples(c, res)) {
        for (const auto& s : node) h = fnv1a(fnv1a(h, s.t), s.v);
        samples += node.size();
    }
    EXPECT_EQ(samples, 80668u);
    EXPECT_EQ(res.stats().newtonIterations, 540);
    EXPECT_LT(res.stats().factorizations, res.stats().newtonIterations);
    EXPECT_EQ(h, 0x2181433c02c82fdbull) << std::hex << "0x" << h;
}

TEST(Tran, EveryDeviceKindBitPin) {
    // The step loop's state updates and fixed-node history on every device
    // kind: a capacitor's state feeds the next trapezoidal companion, so a
    // wrong update moves the waveform.
    InverterFixture f;
    addEveryDeviceKind(f);
    spice::TranOptions opt;
    opt.tstop = 1e-9;
    const auto res = spice::simulateTransient(f.c, opt);
    std::uint64_t h = kFnvBasis;
    std::size_t samples = 0;
    for (const auto& node : allSamples(f.c, res)) {
        for (const auto& s : node) h = fnv1a(fnv1a(h, s.t), s.v);
        samples += node.size();
    }
    EXPECT_EQ(samples, 2322u);
    EXPECT_EQ(res.stats().newtonIterations, 504);
    EXPECT_EQ(h, 0xe181138ce8bb64aaull) << std::hex << "0x" << h;
}

// A table load curve with one NaN entry: every bilinear patch touches it,
// so the Newton system turns NaN at the first stamp. The run must fail as
// a convergence error, never return NaN samples as converged.
Circuit nanTableCircuit() {
    std::vector<double> z(9);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] = 1e-4 * double(i) - 4e-4;
    z[4] = std::numeric_limits<double>::quiet_NaN();
    Circuit c;
    const auto in = c.node("in");
    const auto out = c.node("out");
    const auto load = c.node("load");
    c.addVSource("vin", in, spice::kGround,
                 SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 1e-10, 5e-11,
                                                     1e-9)));
    c.addTableVccs("t1", out, in,
                   std::make_shared<const la::Grid2d>(
                       std::vector<double>{0.0, 0.6, 1.2},
                       std::vector<double>{0.0, 0.6, 1.2}, std::move(z)));
    c.addResistor("rl", out, load, 1e3);
    c.addCapacitor("cl", load, spice::kGround, 10e-15);
    return c;
}

TEST(Newton, NanStampIsAConvergenceError) {
    const Circuit c = nanTableCircuit();
    EXPECT_THROW(spice::solveDc(c), ConvergenceError);
    spice::TranOptions opt;
    opt.tstop = 1e-9;
    EXPECT_THROW(spice::simulateTransient(c, opt), ConvergenceError);
}

TEST(Newton, ReusesFactorizationOnlyOnBitwiseEqualJacobian) {
    // A table VCCS is linear on each bilinear patch and the RC around it is
    // linear, so while the output stays in one patch the Jacobian repeats
    // bit for bit and its LU is reused.
    Circuit table;
    {
        const auto in = table.node("in");
        const auto out = table.node("out");
        const auto load = table.node("load");
        table.addVSource("vin", in, spice::kGround,
                         SourceSpec::pwl(wave::saturatedRamp(
                             0, 1.2, 1e-10, 5e-11, 1e-9)));
        table.addTableVccs("t1", out, in, smallLoadCurve());
        table.addCapacitor("cout", out, spice::kGround, 2e-15);
        table.addResistor("rl", out, load, 1e3);
        table.addCapacitor("cl", load, spice::kGround, 10e-15);
    }
    spice::TranOptions opt;
    opt.tstop = 1e-9;
    const spice::TranStats reused = spice::simulateTransient(table, opt).stats();
    EXPECT_GT(reused.factorizations, 0);
    EXPECT_LT(reused.factorizations, reused.newtonIterations);

    // A MOSFET's partials move with every iterate once its gate is an
    // unknown (driven through a resistor), and an input ramping for the
    // whole run never lets the iterate settle: every iteration factors.
    InverterFixture f;
    const auto src = f.c.node("src");
    f.c.addVSource("vin", src, spice::kGround,
                   SourceSpec::pwl(wave::saturatedRamp(0, 1.2, 0.0, 1e-9,
                                                       2e-9)));
    f.c.addResistor("rg", src, f.in, 2e3);
    f.c.addCapacitor("cload", f.out, spice::kGround, 10e-15);
    const spice::TranStats inverter = spice::simulateTransient(f.c, opt).stats();
    EXPECT_GT(inverter.newtonIterations, 0);
    EXPECT_EQ(inverter.factorizations, inverter.newtonIterations);
}

TEST(Tran, RejectsNonPositiveStop) {
    Circuit c;
    c.addResistor("r", c.node("a"), spice::kGround, 1.0);
    spice::TranOptions opt;
    opt.tstop = 0.0;
    EXPECT_THROW(spice::simulateTransient(c, opt), LogicError);
}

}  // namespace
