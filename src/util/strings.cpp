#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace sna::str {

namespace {
bool isSpace(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

char lower(char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}
}  // namespace

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    while (b < s.size() && isSpace(s[b])) ++b;
    std::size_t e = s.size();
    while (e > b && isSpace(s[e - 1])) --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims) {
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
        std::size_t b = i;
        while (i < s.size() && delims.find(s[i]) == std::string_view::npos) ++i;
        if (i > b) out.push_back(s.substr(b, i - b));
    }
    return out;
}

std::string toLower(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) out.push_back(lower(c));
    return out;
}

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (lower(a[i]) != lower(b[i])) return false;
    }
    return true;
}

std::optional<double> parseSpiceNumber(std::string_view s) {
    s = trim(s);
    if (s.empty()) return std::nullopt;
    // std::from_chars, not strtod: strtod honors LC_NUMERIC, so "1.5" would
    // parse as 1 (and then fail on the '.') under a comma-decimal locale.
    double base = 0.0;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), base);
    if (ec != std::errc() || ptr == s.data()) return std::nullopt;

    std::string_view rest = trim(s.substr(
        static_cast<std::size_t>(ptr - s.data())));
    if (rest.empty()) return base;

    // Engineering suffix; anything after a recognized suffix is a unit name
    // and is ignored (SPICE convention: "2.2kohm" == 2200).
    const std::string low = toLower(rest);
    double scale = 1.0;
    std::size_t used = 1;
    if (low.rfind("meg", 0) == 0) {
        scale = 1e6;
        used = 3;
    } else {
        switch (low[0]) {
            case 't': scale = 1e12; break;
            case 'g': scale = 1e9; break;
            case 'k': scale = 1e3; break;
            case 'm': scale = 1e-3; break;
            case 'u': scale = 1e-6; break;
            case 'n': scale = 1e-9; break;
            case 'p': scale = 1e-12; break;
            case 'f': scale = 1e-15; break;
            default:
                // Unknown first letter: treat the tail as a unit name only if
                // it is purely alphabetic, otherwise the number is malformed.
                for (char c : low) {
                    if (std::isalpha(static_cast<unsigned char>(c)) == 0)
                        return std::nullopt;
                }
                return base;
        }
    }
    // Remaining characters must be alphabetic (a unit name).
    for (std::size_t i = used; i < low.size(); ++i) {
        if (std::isalpha(static_cast<unsigned char>(low[i])) == 0)
            return std::nullopt;
    }
    return base * scale;
}

std::optional<double> parseDoubleToken(std::string_view s) {
    if (s.empty()) return std::nullopt;
    bool negative = false;
    std::string_view body = s;
    if (body.front() == '+' || body.front() == '-') {
        negative = body.front() == '-';
        body.remove_prefix(1);
        if (body.empty()) return std::nullopt;
    }
    double v = 0.0;
    const char* begin = body.data();
    const char* end = body.data() + body.size();
    std::from_chars_result r{};
    if (body.size() > 2 && body[0] == '0' &&
        (body[1] == 'x' || body[1] == 'X')) {
        // Hex-float ("0x1.8p+1"): strtod's and printf %a's spelling.
        // std::from_chars' hex format takes the digits without the prefix.
        r = std::from_chars(begin + 2, end, v, std::chars_format::hex);
    } else {
        r = std::from_chars(begin, end, v, std::chars_format::general);
    }
    if (r.ec != std::errc() || r.ptr != end) return std::nullopt;
    return negative ? -v : v;
}

std::string formatDoubleHex(double v) {
    if (!std::isfinite(v)) {
        // to_chars spells these "inf"/"-inf"/"nan"; emit as-is (no 0x).
        return std::signbit(v) ? (std::isnan(v) ? "-nan" : "-inf")
                               : (std::isnan(v) ? "nan" : "inf");
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::hex);
    std::string out(buf, r.ptr);
    // to_chars omits the 0x prefix; add it (after the sign) so the output
    // matches what %a used to write and stays self-describing.
    out.insert(out.front() == '-' ? 1 : 0, "0x");
    return out;
}

}  // namespace sna::str
