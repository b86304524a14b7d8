// Simplified SPEF (IEEE 1481) parasitics parser.
//
// Supports the subset a noise flow needs: header unit directives (*T_UNIT,
// *C_UNIT, *R_UNIT), *D_NET blocks with *CONN, *CAP (grounded and coupled)
// and *RES sections. Values are converted to SI at parse time. This is the
// input path for extracted coupled interconnect in the sign-off example —
// the "EDA parsers exist" piece of the reproduction.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace sna::parser {

enum class SpefConnKind { Port, InternalPin };

struct SpefConn {
    SpefConnKind kind = SpefConnKind::Port;
    std::string name;   ///< "in1" or "u1:a"
    char direction = 'B';  ///< I / O / B
};

struct SpefCap {
    std::string node1;
    std::string node2;  ///< empty: grounded cap; else coupling cap
    double farads = 0.0;
};

struct SpefRes {
    std::string node1;
    std::string node2;
    double ohms = 0.0;
};

struct SpefNet {
    std::string name;
    double totalCap = 0.0;  ///< as stated on the *D_NET line, F
    std::vector<SpefConn> conns;
    std::vector<SpefCap> caps;
    std::vector<SpefRes> ress;

    /// Sum of grounded + coupling caps in the *CAP section, F.
    double sectionCapTotal() const;
};

class SpefFile {
public:
    const std::string& design() const { return design_; }
    const std::map<std::string, SpefNet>& nets() const { return nets_; }
    const SpefNet& net(const std::string& name) const;

    /// Names of nets coupled to `name` through at least one coupling cap.
    /// Served from a map built once at parse time (O(log n) per query, not
    /// a rescan of every cap section). Only nodes whose owner is a net
    /// declared in this SPEF count: a coupling node with an unknown owner
    /// is dangling (what lint rule SNA-L103 reports), not an aggressor.
    /// Throws ModelError when `name` itself is not a SPEF net.
    const std::vector<std::string>& aggressorsOf(
        const std::string& name) const;

private:
    friend SpefFile parseSpef(const std::string& text);

    /// Populate coupled_ from every net's cap section (called once, at the
    /// end of parseSpef).
    void indexCoupling();

    std::string design_;
    std::map<std::string, SpefNet> nets_;
    /// net -> nets coupled to it through at least one coupling cap, in the
    /// order the old per-query scan discovered them (sections in net-name
    /// order, caps in file order). Nets with no coupling have no entry.
    std::map<std::string, std::vector<std::string>> coupled_;
};

/// Parse SPEF text. Throws sna::ParseError with line numbers.
SpefFile parseSpef(const std::string& text);

}  // namespace sna::parser
