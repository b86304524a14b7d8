// Seeded input generator for the signoff benchmark.
//
// Every workload input is produced here from the run's seed, as the text
// files a signoff flow would read (SPEF parasitics, a structural Verilog
// netlist, a switching-windows file), plus the ECO stream. The analysis
// sees only these generated inputs, parsed through the library's own
// readers. The same seed always yields byte-identical text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace signoffbench {

/// Deterministic 64-bit generator (splitmix64). Used instead of the
/// standard distributions, whose output may differ between library
/// implementations, so a seed means the same inputs everywhere.
class SplitMix {
public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);
    /// Uniform integer in [0, n).
    int below(int n);

private:
    std::uint64_t state_;
};

/// The generated text inputs of one design.
struct DesignText {
    std::string spef;
    std::string verilog;
    std::string windows;
    /// Nets the generator gave coupling, a driver and a load: the victim
    /// clusters the analysis must report on.
    std::size_t victims = 0;
};

// Each design's structure is fixed (spread over fixed ranges by index);
// the seed perturbs every capacitance, resistance and window bound by up
// to 3%. So every seed gives different characterization keys and digests
// for the same amount of analysis work.

/// A ring of `nets` two-inverter stages (driver d<i> -> net n<i> ->
/// receiver r<i>), net i coupled to net i+1 through a cap spread over
/// 6-18 fF, so no two nets share a characterization key. Every net gets a
/// window too; the flat sweep ignores windows, but set-up still parses and
/// propagates them so the front-end layers are measured on this design.
DesignText generateRing(std::uint64_t seed, int nets);

struct ChainShape {
    int chains = 6;
    int depth = 12;
    int nets() const { return chains * depth; }
};

/// `chains` inverter chains of `depth` stages each (g<i>: n<i-1> -> n<i>,
/// a sink inverter closing every chain), nets coupled to their index
/// neighbours, every `kQuietEvery`-th stage of each chain left uncoupled
/// (a pass-through stage), and the first net of every even chain given a switching window
/// (the nets after it inherit theirs through window propagation).
/// `couplingScale`, when non-empty, holds one factor per net applied to
/// the coupling cap listed in that net's SPEF section: the ECO stream's
/// re-extractions regenerate the SPEF with one factor changed.
DesignText generateChains(std::uint64_t seed, const ChainShape& shape,
                          const std::vector<double>& couplingScale = {});

constexpr int kQuietEvery = 7;

/// One ECO of the stream: either rebind chain gate g<index> to `cell`
/// (a driver resize), or re-extract net n<index> with its coupling cap
/// scaled by `scale`.
struct EcoOp {
    enum class Kind { resize, reextract };
    Kind kind = Kind::resize;
    int index = 0;
    std::string cell;    ///< resize: the new cell
    double scale = 1.0;  ///< reextract: the net's new coupling factor
};

/// The ECO stream over a chain design: `count` operations, one in
/// `reextractEvery` a coupling re-extraction, the rest single-driver
/// resizes. Targets come from small seeded pools of nets spaced apart (so
/// one target never changes another's characterization keys), visited in
/// seeded rounds, and every
/// operation toggles its target (INV_X1 <-> INV_X2, scale 1 <-> kEcoScale),
/// so the design oscillates around the generated one instead of drifting.
/// The pools are returned too: set-up toggles every pool target once and
/// back, so the timed stream runs on a warm characterization cache.
struct EcoStream {
    std::vector<EcoOp> ops;
    std::vector<int> resizePool;
    std::vector<int> reextractPool;
    /// Length of the stream's cycle: any `period` ECOs from a multiple of
    /// it visit every pool target equally often in each direction, so a
    /// run of whole periods does the same work whatever the seed.
    int period = 0;
};
EcoStream generateEcoStream(std::uint64_t seed, const ChainShape& shape,
                            int count, int reextractEvery);

constexpr double kEcoScale = 1.25;

}  // namespace signoffbench
