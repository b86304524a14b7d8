#include "core/design_index.hpp"

#include <algorithm>
#include <set>

#include "util/log.hpp"

namespace sna::core {

namespace {

std::string ownerOf(const std::string& node) {
    return node.substr(0, node.find(':'));
}

}  // namespace

DesignIndex::DesignIndex(const Design& design, const parser::SpefFile& spef,
                         const TimingWindows* windows)
    : design_(&design), windows_(windows) {
    const cell::CellLibrary& lib = design.library();

    // One pass over the instances: pin roles come from the cell definition.
    for (const auto& inst : design.instances()) {
        instanceByName_.emplace(inst.name, &inst);
        const cell::Cell& c = lib.cell(inst.cellName);
        const auto out = inst.pinToNet.find(c.outputName());
        if (out != inst.pinToNet.end()) {
            // Deterministic winner on a multiply-driven net: the instance
            // with the lexicographically smallest name, regardless of
            // insertion order. Losers are recorded, not silently dropped.
            const auto [it, inserted] = driverByNet_.emplace(out->second,
                                                             &inst);
            if (!inserted) {
                const Instance* loser = &inst;
                if (inst.name < it->second->name) {
                    loser = it->second;
                    it->second = &inst;
                }
                extraDriversByNet_[out->second].push_back(loser->name);
            }
        }
        for (const auto& in : c.inputNames()) {
            const auto it = inst.pinToNet.find(in);
            if (it != inst.pinToNet.end()) {
                loadsByNet_[it->second].push_back({&inst, in});
            }
        }
    }
    for (auto& [net, losers] : extraDriversByNet_) {
        std::sort(losers.begin(), losers.end());
        log::warn() << "net '" << net << "' is driven by "
                    << losers.size() + 1 << " instances; analyzing driver '"
                    << driverByNet_.at(net)->name << "' (ignored: "
                    << losers.front()
                    << (losers.size() > 1 ? ", ..." : "") << ")";
    }

    // One pass over every cap of every SPEF section: coupling caps attribute
    // symmetrically to both owning nets, wherever they were listed. The
    // per-section contribution lists are retained (sectionPairs_) so that
    // patchParasitics can later re-accumulate any net's sums in this exact
    // (section, cap) order — floating-point addition is order-sensitive, and
    // the incremental path promises bit-identity with a fresh build.
    for (const auto& [netName, spefNet] : spef.nets()) {
        auto& pairs = sectionPairs_[netName];
        for (const auto& cap : spefNet.caps) {
            if (cap.node2.empty()) continue;
            std::string o1 = ownerOf(cap.node1);
            std::string o2 = ownerOf(cap.node2);
            if (o1 == o2) continue;
            pairs.emplace_back(std::move(o1), std::move(o2), cap.farads);
        }
    }
    sectionDigest_ = spef.sectionDigest();
    for (const auto& [section, pairs] : sectionPairs_) {
        for (const auto& [o1, o2, farads] : pairs) {
            couplingByNet_[o1][o2] += farads;
            couplingByNet_[o2][o1] += farads;
        }
    }
}

std::vector<std::string> DesignIndex::patchParasitics(
    const parser::SpefFile& spef, const std::vector<std::string>& changedNets) {
    // Owners touched by the old or new version of any changed section: the
    // set of nets whose coupling view may have moved.
    std::set<std::string> affected;
    const auto collect = [&affected](
        const std::vector<std::tuple<std::string, std::string, double>>&
            pairs) {
        for (const auto& [o1, o2, farads] : pairs) {
            affected.insert(o1);
            affected.insert(o2);
        }
    };
    for (const std::string& section : changedNets) {
        const std::uint64_t term = parser::SpefFile::sectionHash(section);
        if (const auto old = sectionPairs_.find(section);
            old != sectionPairs_.end()) {
            collect(old->second);
            sectionPairs_.erase(old);
            sectionDigest_ -= term;
        }
        const auto it = spef.nets().find(section);
        if (it == spef.nets().end()) continue;  // section removed by the ECO
        auto& pairs = sectionPairs_[section];
        sectionDigest_ += term;
        for (const auto& cap : it->second.caps) {
            if (cap.node2.empty()) continue;
            std::string o1 = ownerOf(cap.node1);
            std::string o2 = ownerOf(cap.node2);
            if (o1 == o2) continue;
            pairs.emplace_back(std::move(o1), std::move(o2), cap.farads);
        }
        collect(pairs);
    }
    // No owner touched: no sum can move (every resize ECO).
    if (affected.empty()) return {};

    // Re-accumulate the affected nets' sums from scratch over every section,
    // in the same order the constructor used — any cheaper subtract-then-add
    // patch would reorder the floating-point sums and break bit-identity.
    std::map<std::string, std::map<std::string, double>> fresh;
    for (const auto& n : affected) fresh[n];
    for (const auto& [section, pairs] : sectionPairs_) {
        for (const auto& [o1, o2, farads] : pairs) {
            if (affected.count(o1)) fresh[o1][o2] += farads;
            if (affected.count(o2)) fresh[o2][o1] += farads;
        }
    }

    std::vector<std::string> changed;
    for (auto& [net, freshMap] : fresh) {
        const auto it = couplingByNet_.find(net);
        const bool had = it != couplingByNet_.end();
        if (had ? (it->second == freshMap) : freshMap.empty()) continue;
        changed.push_back(net);
        if (freshMap.empty()) {
            couplingByNet_.erase(it);
        } else if (had) {
            it->second = std::move(freshMap);
        } else {
            couplingByNet_.emplace(net, std::move(freshMap));
        }
    }
    return changed;
}

bool DesignIndex::sectionsFollow(
    const parser::SpefFile& spef,
    const std::vector<std::string>& changedNets) const {
    const std::set<std::string> named(changedNets.begin(), changedNets.end());
    std::size_t count = sectionPairs_.size();
    std::uint64_t digest = sectionDigest_;
    for (const std::string& section : named) {
        const std::uint64_t term = parser::SpefFile::sectionHash(section);
        if (sectionPairs_.count(section) != 0) {
            --count;
            digest -= term;
        }
        if (spef.nets().count(section) != 0) {
            ++count;
            digest += term;
        }
    }
    return count == spef.nets().size() && digest == spef.sectionDigest();
}

void DesignIndex::buildGraph() const {
    // The through-instance edges of the design graph. Only the net's actual
    // driver carries noise onto it, so edges are restricted to driver
    // instances (the deterministic lexicographic winner on multiply-driven
    // nets — same choice as driverOf, so index and level graph agree).
    const cell::CellLibrary& lib = design_->library();
    for (const auto& inst : design_->instances()) {
        const cell::Cell& c = lib.cell(inst.cellName);
        const auto out = inst.pinToNet.find(c.outputName());
        if (out == inst.pinToNet.end() || driverOf(out->second) != &inst) {
            continue;
        }
        for (const auto& in : c.inputNames()) {
            const auto it = inst.pinToNet.find(in);
            if (it != inst.pinToNet.end()) {
                faninByNet_[out->second].push_back({it->second, &inst, in});
                fanoutByNet_[it->second].push_back(out->second);
            }
        }
    }
    for (auto& [net, edges] : faninByNet_) {
        std::sort(edges.begin(), edges.end(),
                  [](const FaninEdge& a, const FaninEdge& b) {
                      if (a.fromNet != b.fromNet) return a.fromNet < b.fromNet;
                      if (a.inst->name != b.inst->name) {
                          return a.inst->name < b.inst->name;
                      }
                      return a.pin < b.pin;
                  });
    }
    for (auto& [net, outs] : fanoutByNet_) {
        std::sort(outs.begin(), outs.end());
        outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
    }
    // Nodes: every net on an instance pin. Unique edges A -> B (self-loops
    // are cycles of length one: recorded as broken, never scheduled).
    std::set<std::string> remaining;
    std::map<std::string, std::set<std::string>> outAdj;
    std::map<std::string, std::set<std::string>> inAdj;
    std::map<std::string, int> indeg;
    for (const auto& [net, loads] : loadsByNet_) remaining.insert(net);
    for (const auto& [net, inst] : driverByNet_) remaining.insert(net);
    for (const auto& n : remaining) indeg[n] = 0;
    for (const auto& [net, edges] : faninByNet_) {
        for (const auto& e : edges) {
            if (e.fromNet == net) {
                levels_.brokenEdges.push_back({e.fromNet, net});
                continue;
            }
            if (outAdj[e.fromNet].insert(net).second) {
                inAdj[net].insert(e.fromNet);
                ++indeg[net];
            }
        }
    }

    // Ready-queue Kahn, O((V + E) log V): each wave is the set of nets
    // whose indegree hit zero while the previous wave relaxed, so deep
    // chains (levels ~ nets) don't degenerate into a per-level full rescan.
    std::vector<std::string> wave;
    for (const auto& n : remaining) {
        if (indeg[n] == 0) wave.push_back(n);  // set order: name-sorted
    }
    while (!remaining.empty()) {
        if (wave.empty()) {
            // Combinational cycle somewhere in the residual graph. A
            // stalled net may merely sit downstream of a cycle, so find an
            // actual cycle first: walk predecessor links (every stalled net
            // has a remaining unbroken in-edge, so the walk must revisit a
            // node), then break exactly one true cycle edge — the one into
            // the cycle's lexicographically smallest net. One edge per
            // stall keeps the breakage minimal and, with the smallest-net /
            // smallest-predecessor walk order, deterministic for any
            // instance insertion order with the same connectivity.
            std::vector<std::string> path;
            std::map<std::string, std::size_t> seen;
            std::string cur = *remaining.begin();
            while (seen.find(cur) == seen.end()) {
                seen.emplace(cur, path.size());
                path.push_back(cur);
                const std::string* next = nullptr;
                for (const auto& p : inAdj[cur]) {  // set order: smallest
                    if (remaining.count(p)) {
                        next = &p;
                        break;
                    }
                }
                cur = *next;  // stalled => a remaining predecessor exists
            }
            // Cycle nodes: path[s..back], edges path[k] -> path[k-1] for
            // k in (s, back] plus the closing edge path[s] -> path[back].
            const std::size_t s = seen[cur];
            std::size_t smallest = s;
            for (std::size_t j = s + 1; j < path.size(); ++j) {
                if (path[j] < path[smallest]) smallest = j;
            }
            const std::string& victim = path[smallest];
            const std::string& pred = smallest == path.size() - 1
                                          ? path[s]
                                          : path[smallest + 1];
            outAdj[pred].erase(victim);
            inAdj[victim].erase(pred);
            levels_.brokenEdges.push_back({pred, victim});
            if (--indeg[victim] == 0) wave.push_back(victim);
            if (wave.empty()) continue;  // more cycles: break another edge
        }
        std::sort(wave.begin(), wave.end());
        wave.erase(std::unique(wave.begin(), wave.end()), wave.end());
        const int level = static_cast<int>(levels_.levels.size());
        for (const auto& n : wave) {
            levels_.levelOf[n] = level;
            remaining.erase(n);
        }
        std::vector<std::string> next;
        for (const auto& n : wave) {
            const auto it = outAdj.find(n);
            if (it == outAdj.end()) continue;
            for (const auto& to : it->second) {
                if (remaining.count(to) && --indeg[to] == 0) {
                    next.push_back(to);
                }
            }
        }
        levels_.levels.push_back(std::move(wave));
        wave = std::move(next);
    }
    // ---- slot-addressed scheduled DAG -----------------------------------
    // Task ids enumerate the nets level by level (levels are name-sorted),
    // so ids are a topological order and each level is a contiguous id
    // range. inAdj/outAdj at this point hold exactly the scheduled edges:
    // cycle-broken edges were erased, duplicates never entered.
    for (const auto& levelNets : levels_.levels) {
        for (const auto& net : levelNets) {
            taskGraph_.idOf.emplace(net,
                                    static_cast<int>(taskGraph_.nets.size()));
            taskGraph_.nets.push_back(net);
        }
    }
    const int numTasks = static_cast<int>(taskGraph_.nets.size());
    taskGraph_.faninIds.resize(numTasks);
    taskGraph_.graph.fanout.resize(numTasks);
    taskGraph_.graph.faninCount.assign(numTasks, 0);
    for (int id = 0; id < numTasks; ++id) {
        const std::string& net = taskGraph_.nets[id];
        if (const auto in = inAdj.find(net); in != inAdj.end()) {
            auto& fanin = taskGraph_.faninIds[id];
            for (const auto& from : in->second) {
                fanin.push_back(taskGraph_.idOf.at(from));
            }
            std::sort(fanin.begin(), fanin.end());
            taskGraph_.graph.faninCount[id] = static_cast<int>(fanin.size());
        }
        if (const auto out = outAdj.find(net); out != outAdj.end()) {
            auto& fanout = taskGraph_.graph.fanout[id];
            for (const auto& to : out->second) {
                fanout.push_back(taskGraph_.idOf.at(to));
            }
            std::sort(fanout.begin(), fanout.end());
        }
    }

    std::sort(levels_.brokenEdges.begin(), levels_.brokenEdges.end());
    levels_.brokenEdges.erase(
        std::unique(levels_.brokenEdges.begin(), levels_.brokenEdges.end()),
        levels_.brokenEdges.end());
    if (!levels_.brokenEdges.empty()) {
        log::warn() << "design graph has combinational cycles: "
                    << levels_.brokenEdges.size()
                    << " edge(s) broken for levelization (first: "
                    << levels_.brokenEdges.front().first << " -> "
                    << levels_.brokenEdges.front().second << ")";
    }
}

const Instance* DesignIndex::instanceNamed(const std::string& name) const {
    const auto it = instanceByName_.find(name);
    return it == instanceByName_.end() ? nullptr : it->second;
}

const Instance* DesignIndex::driverOf(const std::string& net) const {
    const auto it = driverByNet_.find(net);
    return it == driverByNet_.end() ? nullptr : it->second;
}

const std::vector<std::string>& DesignIndex::extraDriversOf(
    const std::string& net) const {
    static const std::vector<std::string> kEmpty;
    const auto it = extraDriversByNet_.find(net);
    return it == extraDriversByNet_.end() ? kEmpty : it->second;
}

const std::vector<std::pair<const Instance*, std::string>>&
DesignIndex::loadsOf(const std::string& net) const {
    static const std::vector<std::pair<const Instance*, std::string>> kEmpty;
    const auto it = loadsByNet_.find(net);
    return it == loadsByNet_.end() ? kEmpty : it->second;
}

const std::map<std::string, double>& DesignIndex::couplingOf(
    const std::string& net) const {
    static const std::map<std::string, double> kEmpty;
    const auto it = couplingByNet_.find(net);
    return it == couplingByNet_.end() ? kEmpty : it->second;
}

const std::vector<FaninEdge>& DesignIndex::faninOf(
    const std::string& net) const {
    static const std::vector<FaninEdge> kEmpty;
    ensureGraph();
    const auto it = faninByNet_.find(net);
    return it == faninByNet_.end() ? kEmpty : it->second;
}

const std::vector<std::string>& DesignIndex::fanoutOf(
    const std::string& net) const {
    static const std::vector<std::string> kEmpty;
    ensureGraph();
    const auto it = fanoutByNet_.find(net);
    return it == fanoutByNet_.end() ? kEmpty : it->second;
}

const NetLevels& DesignIndex::levels() const {
    ensureGraph();
    return levels_;
}

const NetTaskGraph& DesignIndex::taskGraph() const {
    ensureGraph();
    return taskGraph_;
}

}  // namespace sna::core
