// Small string utilities shared by the text front-ends.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sna::str {

/// Remove leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on any run of characters from `delims`; empty tokens are dropped.
std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims = " \t");

/// ASCII lowercase copy.
std::string toLower(std::string_view s);

/// Case-insensitive equality (ASCII).
bool iequals(std::string_view a, std::string_view b);

/// Parse a SPICE-style number with an optional engineering suffix:
/// t, g, meg, k, m, u, n, p, f (case-insensitive; trailing unit letters such
/// as "k" in "2.2kOhm" are tolerated after the suffix). Returns nullopt on
/// malformed input. Locale-independent: the decimal separator is always
/// '.', whatever LC_NUMERIC says.
std::optional<double> parseSpiceNumber(std::string_view s);

/// Parse `s` entirely as one double (no leading/trailing characters).
/// Accepts decimal/scientific notation, "inf"/"nan" spellings, and
/// hex-floats with an optional 0x/0X prefix — both the formats
/// formatDoubleHex emits and the "%a" output of older cache files.
/// Locale-independent (std::from_chars): a file written under a
/// comma-decimal LC_NUMERIC parses identically everywhere.
std::optional<double> parseDoubleToken(std::string_view s);

/// Shortest exact hex-float representation of `v` ("0x1.8p+1"-style,
/// round-trips bit-exactly through parseDoubleToken). Locale-independent
/// (std::to_chars), unlike printf("%a") which honors LC_NUMERIC's radix
/// character.
std::string formatDoubleHex(double v);

}  // namespace sna::str
