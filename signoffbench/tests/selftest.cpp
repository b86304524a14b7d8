// Unit checks of the benchmark's own helpers: the percentile rule, the
// seeded generator, and span self-time accounting. Exits non-zero on the
// first failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double> ramp(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void percentiles() {
    using namespace signoffbench;
    check(nearestRank(90, 100) == 90, "p90 of 100 is rank 90");
    check(nearestRank(90, 99) == 90, "p90 of 99 is rank 90");
    check(nearestRank(50, 1) == 1, "p50 of 1 is rank 1");
    check(median(ramp(5)) == 3.0, "median of 1..5");
    check(percentile(ramp(100), 90) == 90.0, "p90 of 1..100");
    // p90 is reported only with at least 10 samples beyond it.
    check(tailPercentile(ramp(100), 90).value_or(-1) == 90.0,
          "p90 with exactly 10 beyond");
    check(!tailPercentile(ramp(99), 90).has_value(), "no p90 with 9 beyond");
    check(!tailPercentile(ramp(10), 90).has_value(), "no p90 of 10");
    check(!tailPercentile({}, 50).has_value(), "no percentile of nothing");
    check(tailPercentile(ramp(20), 50).value_or(-1) == 10.0,
          "p50 of 20 has 10 beyond");
    // Fewer than 100 samples: the highest percentile that still has 10
    // beyond it, down to the median.
    check(highestResolvedPercentile(ramp(100), 90).first == 90,
          "p90 resolved at 100 samples");
    const auto p40 = highestResolvedPercentile(ramp(40), 90);
    check(p40.first == 75 && p40.second == 30.0, "p75 is the top of 40");
    check(highestResolvedPercentile(ramp(6), 90) ==
              std::make_pair(50, 3.0),
          "median when nothing has 10 beyond");
}

void generator() {
    using namespace signoffbench;
    const ChainShape shape{4, 8};
    const DesignText a = generateChains(7, shape);
    const DesignText b = generateChains(7, shape);
    const DesignText c = generateChains(8, shape);
    check(a.spef == b.spef && a.verilog == b.verilog && a.windows == b.windows,
          "same seed, same chain text");
    check(a.spef != c.spef, "another seed, other parasitics");
    check(a.verilog == c.verilog,
          "the netlist shape does not depend on the seed");
    check(a.victims == 28, "4 chains of 8, one quiet stage each");
    check(generateRing(3, 20).spef == generateRing(3, 20).spef,
          "same seed, same ring");

    // A re-extraction changes only the scaled net's coupling line and the
    // total on its *D_NET line.
    std::vector<double> scales(static_cast<std::size_t>(shape.nets()), 1.0);
    scales[3] = kEcoScale;
    const std::string s = generateChains(7, shape, scales).spef;
    std::size_t diffLines = 0;
    std::size_t i = 0, j = 0;
    while (i < a.spef.size() && j < s.size()) {
        const std::size_t ei = a.spef.find('\n', i);
        const std::size_t ej = s.find('\n', j);
        if (a.spef.compare(i, ei - i, s, j, ej - j) != 0) ++diffLines;
        i = ei + 1;
        j = ej + 1;
    }
    check(diffLines == 2, "re-extraction changes the total and the cap line");

    const EcoStream e1 = generateEcoStream(5, {16, 8}, 200, 10);
    const EcoStream e2 = generateEcoStream(5, {16, 8}, 200, 10);
    bool same = e1.ops.size() == e2.ops.size();
    int reextracts = 0;
    for (std::size_t k = 0; same && k < e1.ops.size(); ++k) {
        same = e1.ops[k].index == e2.ops[k].index &&
               e1.ops[k].cell == e2.ops[k].cell;
        reextracts += e1.ops[k].kind == EcoOp::Kind::reextract ? 1 : 0;
    }
    check(same, "same seed, same ECO stream");
    check(reextracts == 20, "one ECO in ten is a re-extraction");

    // 8 resize and 4 re-extraction targets, one in ten a re-extraction:
    // 144 resizes (18 rounds, 9 each way) and 16 re-extractions (4 rounds,
    // 2 each way) make a period, after which every target is back.
    check(e1.period == 160, "a 16x8 stream repeats its mix every 160 ECOs");
    std::map<std::pair<int, std::string>, int> visits;
    std::map<int, int> scaled;
    for (int k = 0; k < e1.period; ++k) {
        const EcoOp& op = e1.ops[static_cast<std::size_t>(k)];
        if (op.kind == EcoOp::Kind::resize) {
            ++visits[{op.index, op.cell}];
        } else {
            scaled[op.index] += op.scale == kEcoScale ? 1 : -1;
        }
    }
    bool even = visits.size() == 2 * e1.resizePool.size() &&
                scaled.size() == e1.reextractPool.size();
    for (const auto& [key, n] : visits) even = even && n == 9;
    for (const auto& [net, balance] : scaled) even = even && balance == 0;
    check(even, "a period visits every target equally in each direction");
}

void selfTime() {
    using namespace signoffbench;
    Tracer tr(true);
    int root = -1;
    {
        auto r = tr.span("bench.root");
        root = r.index();
        auto a = tr.span("alpha.call");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        auto b = tr.span("beta.call");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto self = tr.selfTimeByLayer(root);
    const auto& spans = tr.spans();
    const double wall = spans[0].end - spans[0].start;
    double sum = 0.0;
    for (const auto& [layer, sec] : self) sum += sec;
    check(spans[2].parent == 1 && spans[1].parent == 0, "parents nest");
    check(std::abs(sum - wall) < 1e-9, "self times add up to the root");
    check(self.at("alpha") >= 0.019 && self.at("beta") >= 0.019,
          "each layer keeps its own sleep");
    Tracer off(false);
    check(off.span("x.y").index() == -1 && off.spans().empty(),
          "a disabled tracer records nothing");
}

}  // namespace

int main() {
    percentiles();
    generator();
    selfTime();
    if (failures == 0) std::printf("selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
