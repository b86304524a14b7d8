// Simplified SPEF (IEEE 1481) parasitics parser.
//
// Supports the subset a noise flow needs: header unit directives (*T_UNIT,
// *C_UNIT, *R_UNIT), *D_NET blocks with *CONN, *CAP (grounded and coupled)
// and *RES sections. Values are converted to SI at parse time. This is the
// input path for extracted coupled interconnect in the sign-off example —
// the "EDA parsers exist" piece of the reproduction.
#pragma once

#include <cstdint>
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

    /// An order-independent digest of the section names: the sum, modulo
    /// 2^64, of sectionHash over nets(). A record of section names kept
    /// beside an earlier parse can follow added and removed sections by
    /// adding and subtracting their terms, then be checked against this.
    std::uint64_t sectionDigest() const { return sectionDigest_; }
    /// One section name's term of sectionDigest.
    static std::uint64_t sectionHash(const std::string& name);

private:
    friend SpefFile parseSpef(const std::string& text);

    std::string design_;
    std::map<std::string, SpefNet> nets_;
    std::uint64_t sectionDigest_ = 0;
};

/// Parse SPEF text. Throws sna::ParseError with line numbers.
SpefFile parseSpef(const std::string& text);

}  // namespace sna::parser
