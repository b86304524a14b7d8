#include "parser/spef_parser.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace sna::parser {

double SpefNet::sectionCapTotal() const {
    double total = 0.0;
    for (const auto& c : caps) total += c.farads;
    return total;
}

const SpefNet& SpefFile::net(const std::string& name) const {
    const auto it = nets_.find(str::toLower(name));
    if (it == nets_.end()) {
        throw ModelError("SPEF has no net '" + name + "'");
    }
    return it->second;
}

std::uint64_t SpefFile::sectionHash(const std::string& name) {
    // FNV-1a, then the splitmix64 finalizer, so that sums of terms stay
    // well mixed.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

namespace {

double unitScale(const std::vector<std::string_view>& tokens, int line) {
    // "*X_UNIT <mult> <unit>", e.g. "*C_UNIT 1 FF".
    if (tokens.size() != 3) {
        throw ParseError("unit directive needs '<mult> <unit>'", line);
    }
    const auto mult = str::parseSpiceNumber(tokens[1]);
    if (!mult) throw ParseError("bad unit multiplier", line);
    const std::string u = str::toLower(tokens[2]);
    double scale = 1.0;
    if (u == "ff") {
        scale = 1e-15;
    } else if (u == "pf") {
        scale = 1e-12;
    } else if (u == "ps") {
        scale = 1e-12;
    } else if (u == "ns") {
        scale = 1e-9;
    } else if (u == "ohm") {
        scale = 1.0;
    } else if (u == "kohm") {
        scale = 1e3;
    } else {
        throw ParseError("unknown unit '" + u + "'", line);
    }
    return *mult * scale;
}

}  // namespace

SpefFile parseSpef(const std::string& text) {
    SpefFile out;
    double capScale = 1e-15;  // SPEF default conventions
    double resScale = 1.0;

    enum class Section { None, Conn, Cap, Res };
    SpefNet* current = nullptr;
    Section section = Section::None;

    std::istringstream is(text);
    std::string raw;
    int lineNo = 0;
    while (std::getline(is, raw)) {
        ++lineNo;
        const std::size_t comment = raw.find("//");
        if (comment != std::string::npos) raw.resize(comment);
        const std::string line = std::string(str::trim(raw));
        if (line.empty()) continue;
        const auto tokens = str::split(line);
        const std::string head = str::toLower(tokens[0]);

        if (head == "*spef" || head == "*date" || head == "*vendor" ||
            head == "*program" || head == "*version" ||
            head == "*design_flow" || head == "*divider" ||
            head == "*delimiter" || head == "*bus_delimiter" ||
            head == "*l_unit" || head == "*i_unit" || head == "*v_unit") {
            continue;  // tolerated, unused
        }
        if (head == "*design") {
            std::string name = (tokens.size() > 1) ? std::string(tokens[1])
                                                   : "";
            name.erase(std::remove(name.begin(), name.end(), '"'),
                       name.end());
            out.design_ = name;
            continue;
        }
        if (head == "*t_unit") continue;  // times unused in parasitics
        if (head == "*c_unit") {
            capScale = unitScale(tokens, lineNo);
            continue;
        }
        if (head == "*r_unit") {
            resScale = unitScale(tokens, lineNo);
            continue;
        }
        if (head == "*d_net") {
            if (tokens.size() != 3) {
                throw ParseError("*D_NET needs a name and a total cap",
                                 lineNo);
            }
            SpefNet net;
            net.name = str::toLower(tokens[1]);
            const auto total = str::parseSpiceNumber(tokens[2]);
            if (!total) throw ParseError("bad *D_NET total cap", lineNo);
            net.totalCap = *total * capScale;
            auto [it, fresh] = out.nets_.emplace(net.name, std::move(net));
            if (!fresh) {
                throw ParseError("duplicate *D_NET '" + it->first + "'",
                                 lineNo);
            }
            out.sectionDigest_ += SpefFile::sectionHash(it->first);
            current = &it->second;
            section = Section::None;
            continue;
        }
        if (head == "*conn") {
            section = Section::Conn;
            continue;
        }
        if (head == "*cap") {
            section = Section::Cap;
            continue;
        }
        if (head == "*res") {
            section = Section::Res;
            continue;
        }
        if (head == "*end") {
            current = nullptr;
            section = Section::None;
            continue;
        }
        if (head == "*p" || head == "*i") {
            if (current == nullptr || section != Section::Conn) {
                throw ParseError("connection outside *CONN", lineNo);
            }
            if (tokens.size() < 3) {
                throw ParseError("connection needs a name and direction",
                                 lineNo);
            }
            SpefConn conn;
            conn.kind = (head == "*p") ? SpefConnKind::Port
                                       : SpefConnKind::InternalPin;
            conn.name = str::toLower(tokens[1]);
            conn.direction = static_cast<char>(
                std::toupper(static_cast<unsigned char>(tokens[2][0])));
            current->conns.push_back(std::move(conn));
            continue;
        }

        // Numbered cap/res entries.
        if (current == nullptr) {
            throw ParseError("unexpected line outside a *D_NET block",
                             lineNo);
        }
        if (section == Section::Cap) {
            if (tokens.size() == 3) {
                const auto v = str::parseSpiceNumber(tokens[2]);
                if (!v) throw ParseError("bad cap value", lineNo);
                current->caps.push_back(
                    {str::toLower(tokens[1]), "", *v * capScale});
            } else if (tokens.size() == 4) {
                const auto v = str::parseSpiceNumber(tokens[3]);
                if (!v) throw ParseError("bad coupling cap value", lineNo);
                current->caps.push_back({str::toLower(tokens[1]),
                                         str::toLower(tokens[2]),
                                         *v * capScale});
            } else {
                throw ParseError("*CAP entry: <idx> n1 [n2] value", lineNo);
            }
            continue;
        }
        if (section == Section::Res) {
            if (tokens.size() != 4) {
                throw ParseError("*RES entry: <idx> n1 n2 value", lineNo);
            }
            const auto v = str::parseSpiceNumber(tokens[3]);
            if (!v) throw ParseError("bad res value", lineNo);
            current->ress.push_back({str::toLower(tokens[1]),
                                     str::toLower(tokens[2]), *v * resScale});
            continue;
        }
        throw ParseError("unparsed line '" + line + "'", lineNo);
    }
    return out;
}

}  // namespace sna::parser
