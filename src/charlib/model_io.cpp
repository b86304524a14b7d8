#include "charlib/model_io.hpp"

#include <sstream>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace sna::charlib {

namespace {

// Hex floats round-trip exactly through text. str::formatDoubleHex /
// str::parseDoubleToken are locale-independent, unlike the printf("%a") /
// strtod pair used previously: those honor LC_NUMERIC, so a cache written
// under a comma-decimal locale was unreadable (or silently recomputed)
// under "C". parseDoubleToken still accepts the old "%a" spellings.
std::string hexDouble(double v) { return str::formatDoubleHex(v); }

double parseDouble(std::string_view token, int line) {
    const auto v = str::parseDoubleToken(token);
    if (!v) {
        throw ParseError("malformed number '" + std::string(token) + "'",
                         line);
    }
    return *v;
}

void emitVector(std::ostringstream& os, const char* key,
                const std::vector<double>& values) {
    os << key;
    for (const double v : values) os << ' ' << hexDouble(v);
    os << '\n';
}

// Line-oriented reader for "key value..." records with '#' comments.
class RecordReader {
public:
    explicit RecordReader(const std::string& text) : is_(text) {}

    /// Next non-comment line split into tokens; empty at EOF.
    std::vector<std::string> next() {
        std::string raw;
        while (std::getline(is_, raw)) {
            ++line_;
            const auto t = str::trim(raw);
            if (t.empty() || t.front() == '#') continue;
            std::vector<std::string> out;
            for (const auto& tok : str::split(t)) out.emplace_back(tok);
            return out;
        }
        return {};
    }

    int line() const { return line_; }

    std::vector<double> numbers(const std::vector<std::string>& tokens,
                                std::size_t from) {
        std::vector<double> out;
        for (std::size_t i = from; i < tokens.size(); ++i) {
            out.push_back(parseDouble(tokens[i], line_));
        }
        return out;
    }

private:
    std::istringstream is_;
    int line_ = 0;
};

void expectHeader(RecordReader& r, const std::string& kind) {
    const auto head = r.next();
    if (head.size() < 3 || head[0] != "snamodel" || head[1] != "v1" ||
        head[2] != kind) {
        throw ParseError("expected 'snamodel v1 " + kind + "' header",
                         r.line());
    }
}

std::string header(const std::string& kind, const std::string& comment) {
    std::string out = "snamodel v1 " + kind + "\n";
    if (!comment.empty()) out += "# " + comment + "\n";
    return out;
}

la::Grid2d readGrid2d(RecordReader& r) {
    std::vector<double> xs, ys, zs;
    for (const char* key : {"xaxis", "yaxis", "values"}) {
        const auto tokens = r.next();
        if (tokens.empty() || tokens[0] != key) {
            throw ParseError(std::string("expected '") + key + "' record",
                             r.line());
        }
        auto nums = r.numbers(tokens, 1);
        if (key[0] == 'x') {
            xs = std::move(nums);
        } else if (key[0] == 'y') {
            ys = std::move(nums);
        } else {
            zs = std::move(nums);
        }
    }
    try {
        return la::Grid2d(std::move(xs), std::move(ys), std::move(zs));
    } catch (const Error& e) {
        throw ParseError(std::string("inconsistent grid: ") + e.what(),
                         r.line());
    }
}

void writeGrid2d(std::ostringstream& os, const la::Grid2d& g) {
    emitVector(os, "xaxis", g.xs());
    emitVector(os, "yaxis", g.ys());
    std::vector<double> z;
    z.reserve(g.xs().size() * g.ys().size());
    for (std::size_t i = 0; i < g.xs().size(); ++i) {
        for (std::size_t j = 0; j < g.ys().size(); ++j) {
            z.push_back(g.at(i, j));
        }
    }
    emitVector(os, "values", z);
}

}  // namespace

// ------------------------------------------------------------- load curve

std::string saveLoadCurve(const la::Grid2d& table, const std::string& comment) {
    SNA_REQUIRE(!table.empty(), "cannot save an empty load curve");
    std::ostringstream os;
    os << header("loadcurve", comment);
    writeGrid2d(os, table);
    return os.str();
}

la::Grid2d loadLoadCurve(const std::string& text) {
    RecordReader r(text);
    expectHeader(r, "loadcurve");
    return readGrid2d(r);
}

// --------------------------------------------------------------- thevenin

std::string saveThevenin(const TheveninModel& model,
                         const std::string& comment) {
    std::ostringstream os;
    os << header("thevenin", comment);
    os << "vstart " << hexDouble(model.vStart) << '\n';
    os << "vend " << hexDouble(model.vEnd) << '\n';
    os << "slew " << hexDouble(model.slew) << '\n';
    os << "rth " << hexDouble(model.rth) << '\n';
    os << "delay " << hexDouble(model.delay) << '\n';
    return os.str();
}

TheveninModel loadThevenin(const std::string& text) {
    RecordReader r(text);
    expectHeader(r, "thevenin");
    TheveninModel m;
    bool sawRth = false;
    for (auto tokens = r.next(); !tokens.empty(); tokens = r.next()) {
        if (tokens.size() != 2) {
            throw ParseError("expected 'key value'", r.line());
        }
        const double v = parseDouble(tokens[1], r.line());
        if (tokens[0] == "vstart") {
            m.vStart = v;
        } else if (tokens[0] == "vend") {
            m.vEnd = v;
        } else if (tokens[0] == "slew") {
            m.slew = v;
        } else if (tokens[0] == "rth") {
            m.rth = v;
            sawRth = true;
        } else if (tokens[0] == "delay") {
            m.delay = v;
        } else {
            throw ParseError("unknown key '" + tokens[0] + "'", r.line());
        }
    }
    if (!sawRth) throw ParseError("thevenin record missing rth", r.line());
    return m;
}

// ------------------------------------------------------------ propagation

std::string savePropagation(const PropagationTable& table,
                            const std::string& comment) {
    std::ostringstream os;
    os << header("propagation", comment);
    os << "baseline " << hexDouble(table.outputBaseline) << '\n';
    os << "peak\n";
    writeGrid2d(os, table.peak);
    os << "area\n";
    writeGrid2d(os, table.area);
    return os.str();
}

PropagationTable loadPropagation(const std::string& text) {
    RecordReader r(text);
    expectHeader(r, "propagation");
    auto tokens = r.next();
    if (tokens.size() != 2 || tokens[0] != "baseline") {
        throw ParseError("expected 'baseline' record", r.line());
    }
    PropagationTable out;
    out.outputBaseline = parseDouble(tokens[1], r.line());
    tokens = r.next();
    if (tokens.size() != 1 || tokens[0] != "peak") {
        throw ParseError("expected 'peak' section", r.line());
    }
    out.peak = readGrid2d(r);
    tokens = r.next();
    if (tokens.size() != 1 || tokens[0] != "area") {
        throw ParseError("expected 'area' section", r.line());
    }
    out.area = readGrid2d(r);
    return out;
}

// -------------------------------------------------------------------- nrc

std::string saveNrcPoint(double height, const std::string& comment) {
    std::ostringstream os;
    os << header("nrcpoint", comment);
    os << "height " << hexDouble(height) << '\n';
    return os.str();
}

double loadNrcPoint(const std::string& text) {
    RecordReader r(text);
    expectHeader(r, "nrcpoint");
    const auto tokens = r.next();
    if (tokens.size() != 2 || tokens[0] != "height") {
        throw ParseError("expected 'height' record", r.line());
    }
    return parseDouble(tokens[1], r.line());
}

}  // namespace sna::charlib
