#include "gen.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

namespace signoffbench {

std::uint64_t SplitMix::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double SplitMix::uniform(double lo, double hi) {
    // 53 random mantissa bits -> [0, 1).
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

int SplitMix::below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

namespace {

// Values are written with 17 significant digits so the text round-trips
// every drawn double exactly.
std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

const char* kSpefHeader =
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"signoffbench\"\n"
    "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";

/// One net's SPEF section: driver pin -> mid node -> load pin, with an
/// optional coupling cap from the mid node to `coupledNet`'s mid node.
void writeNet(std::ostringstream& os, const std::string& net,
              const std::string& drvPin, const std::string& loadPin,
              double cDrv, double cMid, double cLoad, double r1, double r2,
              const std::string& coupledNet, double cc) {
    const bool couple = !coupledNet.empty();
    os << "*D_NET " << net << " "
       << num(cDrv + cMid + cLoad + (couple ? cc : 0.0)) << "\n";
    os << "*CONN\n*I " << drvPin << " O\n*I " << loadPin << " I\n*CAP\n";
    os << "1 " << drvPin << " " << num(cDrv) << "\n";
    os << "2 " << net << ":1 " << num(cMid) << "\n";
    os << "3 " << loadPin << " " << num(cLoad) << "\n";
    if (couple) {
        os << "4 " << net << ":1 " << coupledNet << ":1 " << num(cc) << "\n";
    }
    os << "*RES\n1 " << drvPin << " " << net << ":1 " << num(r1) << "\n";
    os << "2 " << net << ":1 " << loadPin << " " << num(r2) << "\n*END\n\n";
}

struct Gate {
    std::string cell;
    std::string name;
    std::string in;
    std::string out;
};

std::string verilog(const std::string& module,
                    const std::vector<std::string>& inputs,
                    const std::vector<std::string>& outputs,
                    const std::vector<std::string>& wires,
                    const std::vector<Gate>& gates) {
    std::ostringstream os;
    os << "module " << module << " (";
    bool first = true;
    for (const auto* group : {&inputs, &outputs}) {
        for (const auto& p : *group) {
            os << (first ? "" : ", ") << p;
            first = false;
        }
    }
    os << ");\n";
    for (const auto& p : inputs) os << "  input " << p << ";\n";
    for (const auto& p : outputs) os << "  output " << p << ";\n";
    for (const auto& w : wires) os << "  wire " << w << ";\n";
    for (const auto& g : gates) {
        os << "  " << g.cell << " " << g.name << " (.a(" << g.in << "), .y("
           << g.out << "));\n";
    }
    os << "endmodule\n";
    return os.str();
}

/// Whether chain net i is an uncoupled stage: the same positions in
/// every chain, so every chain has the same structure.
bool quiet(int i, int depth) {
    return (i % depth) % kQuietEvery == kQuietEvery - 1;
}

/// A fixed, evenly spread value in [lo, hi) for index i (golden-ratio
/// sequence). The design's structure comes from these; the seed only
/// perturbs them (see jitter), so every seed yields a different design
/// that asks for the same amount of work.
double spread(int i, double lo, double hi) {
    const double x = static_cast<double>(i) * 0.6180339887498949;
    return lo + (hi - lo) * (x - static_cast<double>(static_cast<long>(x)));
}

/// A seeded factor within +-3%.
double jitter(SplitMix& rng) { return rng.uniform(0.97, 1.03); }

}  // namespace

DesignText generateRing(std::uint64_t seed, int nets) {
    SplitMix rng(seed ^ 0x52494e47ULL);  // "RING"
    DesignText out;
    std::ostringstream spef;
    spef << kSpefHeader;
    std::vector<std::string> inputs, outputs, wires;
    std::vector<Gate> gates;
    std::ostringstream win;
    win << "*T_UNIT 1 PS\n";
    for (int i = 0; i < nets; ++i) {
        const std::string n = std::to_string(i);
        const std::string net = "n" + n;
        const bool strongDriver = i % 2 == 1;
        const bool strongLoad = i % 4 < 2;
        const double cDrv = 2.0 * jitter(rng);
        const double cMid = 3.2 * jitter(rng);
        const double cLoad = 1.5 * jitter(rng);
        const double r1 = 45.0 * jitter(rng);
        const double r2 = 45.0 * jitter(rng);
        const double cc = spread(i, 6.0, 18.0) * jitter(rng);
        const double lo = spread(i, 0.0, 900.0) * jitter(rng);
        const double width = 450.0 * jitter(rng);
        writeNet(spef, net, "d" + n + ":y", "r" + n + ":a", cDrv, cMid,
                 cLoad, r1, r2, "n" + std::to_string((i + 1) % nets), cc);
        inputs.push_back("pi" + n);
        outputs.push_back("po" + n);
        wires.push_back(net);
        gates.push_back({strongDriver ? "INV_X2" : "INV_X1", "d" + n,
                         "pi" + n, net});
        gates.push_back({strongLoad ? "INV_X2" : "INV_X1", "r" + n, net,
                         "po" + n});
        win << net << " " << num(lo) << " " << num(lo + width) << "\n";
    }
    out.spef = spef.str();
    out.verilog = verilog("ring", inputs, outputs, wires, gates);
    out.windows = win.str();
    out.victims = static_cast<std::size_t>(nets);
    return out;
}

DesignText generateChains(std::uint64_t seed, const ChainShape& shape,
                          const std::vector<double>& couplingScale) {
    SplitMix rng(seed ^ 0x434841494eULL);  // "CHAIN"
    const int nets = shape.nets();
    DesignText out;
    std::ostringstream spef;
    spef << kSpefHeader;
    std::vector<std::string> inputs, outputs, wires;
    std::vector<Gate> gates;
    std::ostringstream win;
    win << "*T_UNIT 1 PS\n";
    for (int i = 0; i < nets; ++i) {
        const int chain = i / shape.depth;
        const int pos = i % shape.depth;
        const bool last = pos == shape.depth - 1;
        const std::string n = std::to_string(i);
        const std::string net = "n" + n;
        const std::string load =
            last ? "snk" + std::to_string(chain) : "g" + std::to_string(i + 1);
        // Every draw happens for every net, whatever the scale vector says,
        // so a re-extraction changes exactly one value of the text.
        const double cDrv = 2.0 * jitter(rng);
        const double cMid = 3.2 * jitter(rng);
        const double cLoad = 1.5 * jitter(rng);
        const double r1 = 45.0 * jitter(rng);
        const double r2 = 45.0 * jitter(rng);
        const double cc = spread(i, 6.0, 14.0) * jitter(rng);
        const double lo = spread(chain, 0.0, 900.0) * jitter(rng);
        const double width = 450.0 * jitter(rng);
        const int j = (i + 1) % nets;
        const bool couple = !quiet(i, shape.depth) && !quiet(j, shape.depth);
        const double scale =
            couplingScale.empty() ? 1.0
                                  : couplingScale[static_cast<std::size_t>(i)];
        writeNet(spef, net, "g" + n + ":y", load + ":a", cDrv, cMid, cLoad,
                 r1, r2, couple ? "n" + std::to_string(j) : "", cc * scale);
        if (!quiet(i, shape.depth)) ++out.victims;
        wires.push_back(net);
        const std::string in =
            pos == 0 ? "pi" + std::to_string(chain) : "n" + std::to_string(i - 1);
        if (pos == 0) inputs.push_back(in);
        gates.push_back({"INV_X1", "g" + n, in, net});
        if (last) {
            const std::string po = "po" + std::to_string(chain);
            outputs.push_back(po);
            gates.push_back({"INV_X2", "snk" + std::to_string(chain), net, po});
        }
        if (pos == 0 && chain % 2 == 0) {
            win << net << " " << num(lo) << " " << num(lo + width) << "\n";
        }
    }
    out.spef = spef.str();
    out.verilog = verilog("chains", inputs, outputs, wires, gates);
    out.windows = win.str();
    return out;
}

EcoStream generateEcoStream(std::uint64_t seed, const ChainShape& shape,
                            int count, int reextractEvery) {
    SplitMix rng(seed ^ 0x45434fULL);  // "ECO"
    const int nets = shape.nets();
    EcoStream s;
    // Targets at least kSpacing apart: a resize changes the keys of its own
    // net and of the net it loads, a re-extraction those of its net and its
    // coupling partner, so spaced targets never combine into new keys. The
    // target's position in its chain and its chain's parity (even chains
    // carry windows) are fixed by its pool slot and only the chain is
    // seeded, so every seed sees the same mix of ECO cones.
    constexpr int kSpacing = 4;
    std::vector<int> taken;
    const auto pick = [&](int parity, int pos, bool needCoupled) {
        for (int attempt = 0; attempt < 10000; ++attempt) {
            const int chain = 2 * rng.below(shape.chains / 2) + parity;
            const int i = chain * shape.depth + pos;
            if (needCoupled && (quiet(i, shape.depth) ||
                                quiet((i + 1) % nets, shape.depth))) {
                continue;
            }
            const bool clear =
                std::none_of(taken.begin(), taken.end(), [&](int t) {
                    const int d = std::abs(t - i);
                    return std::min(d, nets - d) < kSpacing;
                });
            if (!clear) continue;
            taken.push_back(i);
            return i;
        }
        std::fprintf(stderr, "design too small for the ECO pools\n");
        std::exit(2);
    };
    const int resizePool = std::min(8, std::max(1, nets / 16));
    const int reextractPool = std::min(4, std::max(1, nets / 32));
    // Resize slots: position in an 8-stage chain and chain parity (0: even,
    // windowed). An ECO's cost is set by its slot. On the 100 x 8 design,
    // in CPU time at 4 threads, a resize costs about 42 ms at stage 5 of
    // an unwindowed chain, the same both ways and for every seed, and
    // 150 ms at stage 3 of a windowed one; the four re-extraction slots
    // cost about 49, 55, 94 and 112 ms. Other slots cost differently in
    // the two directions of the toggle (INV_X1 -> X2 up to 10% more than
    // back) and from seed to seed. A period (see below) visits each resize
    // target 18 times and each re-extraction target 4 times, so six
    // tail-end targets hold ranks 1-108 of 160, the median among them
    // (rank 80), and the two windowed stage-3 targets ranks 125-160, the
    // p90 among them (rank 144): neither percentile sits on the edge
    // between two costs, where it would jump from run to run. Most ECOs
    // thus touch a small cone, and the median shows the incremental
    // layer's fixed cost per call.
    struct Slot {
        int pos;
        int parity;
    };
    const Slot slots[8] = {{5, 1}, {5, 1}, {5, 1}, {5, 1},
                           {5, 1}, {5, 1}, {3, 0}, {3, 0}};
    for (int k = 0; k < resizePool; ++k) {
        const Slot& slot = slots[k % 8];
        s.resizePool.push_back(
            pick(slot.parity, slot.pos * (shape.depth - 1) / 7, false));
    }
    for (int k = 0; k < reextractPool; ++k) {
        // A coupled position: neither it nor the next stage is quiet.
        int pos = (2 * k + 1) % shape.depth;
        while (quiet(pos, shape.depth) ||
               quiet((pos + 1) % shape.depth, shape.depth)) {
            pos = (pos + shape.depth - 1) % shape.depth;
        }
        s.reextractPool.push_back(pick(k % 2, pos, true));
    }

    // Each pool is visited in rounds, every target once per round in a
    // seeded order, so any stretch of the stream holds the same mix.
    const auto nextOf = [&rng](const std::vector<int>& pool,
                               std::vector<int>& round) {
        if (round.empty()) {
            round = pool;
            for (std::size_t i = round.size(); i > 1; --i) {
                std::swap(round[i - 1],
                          round[static_cast<std::size_t>(
                              rng.below(static_cast<int>(i)))]);
            }
        }
        const int target = round.back();
        round.pop_back();
        return target;
    };
    // Rounds and toggles line up again after a whole number of rounds of
    // each pool that is even per target.
    const int every = std::max(1, reextractEvery);
    for (s.period = every;; s.period += every) {
        const int reextracts = reextractEvery > 0 ? s.period / every : 0;
        const int resizes = s.period - reextracts;
        const int reextractCycle = 2 * static_cast<int>(s.reextractPool.size());
        if (resizes % (2 * static_cast<int>(s.resizePool.size())) == 0 &&
            reextracts % reextractCycle == 0) {
            break;
        }
    }
    std::vector<int> resizeRound, reextractRound;
    std::map<int, bool> resized;
    std::map<int, bool> scaled;
    for (int k = 0; k < count; ++k) {
        EcoOp op;
        if (reextractEvery > 0 && k % reextractEvery == reextractEvery - 1) {
            op.kind = EcoOp::Kind::reextract;
            op.index = nextOf(s.reextractPool, reextractRound);
            const bool now = !scaled[op.index];
            scaled[op.index] = now;
            op.scale = now ? kEcoScale : 1.0;
        } else {
            op.kind = EcoOp::Kind::resize;
            op.index = nextOf(s.resizePool, resizeRound);
            const bool now = !resized[op.index];
            resized[op.index] = now;
            op.cell = now ? "INV_X2" : "INV_X1";
        }
        s.ops.push_back(op);
    }
    return s;
}

}  // namespace signoffbench
