// Tests for locale-independent model/cache serialization and concurrent
// cache persistence: formatDoubleHex / parseDoubleToken round-trips
// (including the legacy printf-%a spellings older cache files carry),
// model_io and snacache round-trips under a forced comma-decimal locale
// (skipped when the container ships no such locale), a comma-decimal C++
// stream locale (always runs — built from a custom numpunct facet), a
// two-writer save() stress on one path, NRC points saved while they are
// being characterized, and the skip of legacy whole-curve NRC records.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <iterator>
#include <limits>
#include <locale>
#include <string>
#include <thread>
#include <vector>

#include "celllib/library.hpp"
#include "charlib/char_cache.hpp"
#include "charlib/model_io.hpp"
#include "tech/tech.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace {

using namespace sna;

std::string tmpPath(const std::string& name) {
    return testing::TempDir() + name;
}

// --------------------------------------------------- hex-float round trip

TEST(HexDouble, RoundTripsBitExactly) {
    const double cases[] = {0.0,
                            1.0,
                            -1.0,
                            1.5,
                            3.141592653589793,
                            1e300,
                            -1e-300,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    for (const double v : cases) {
        const auto back = str::parseDoubleToken(str::formatDoubleHex(v));
        ASSERT_TRUE(back.has_value()) << str::formatDoubleHex(v);
        EXPECT_EQ(*back, v) << str::formatDoubleHex(v);
    }
    // -0.0 keeps its sign bit.
    const auto negZero = str::parseDoubleToken(str::formatDoubleHex(-0.0));
    ASSERT_TRUE(negZero.has_value());
    EXPECT_TRUE(std::signbit(*negZero));
    // NaN round-trips as NaN.
    const auto nan = str::parseDoubleToken(
        str::formatDoubleHex(std::numeric_limits<double>::quiet_NaN()));
    ASSERT_TRUE(nan.has_value());
    EXPECT_TRUE(std::isnan(*nan));
}

TEST(HexDouble, AcceptsLegacyPrintfSpellings) {
    // Older cache files were written with printf("%a"): "0x1.8p+1"-style,
    // with an explicit 0x prefix and sign. from_chars-based parsing must
    // keep reading them.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", 0.1);
    EXPECT_EQ(str::parseDoubleToken(buf).value_or(-1.0), 0.1);
    EXPECT_EQ(str::parseDoubleToken("0x1.8p+1").value_or(0.0), 3.0);
    EXPECT_EQ(str::parseDoubleToken("-0x1.0p-3").value_or(0.0), -0.125);
    EXPECT_EQ(str::parseDoubleToken("0X1P+4").value_or(0.0), 16.0);
    // Plain decimal and scientific notation still parse.
    EXPECT_EQ(str::parseDoubleToken("1.25e-3").value_or(0.0), 1.25e-3);
    EXPECT_EQ(str::parseDoubleToken("-42").value_or(0.0), -42.0);
}

TEST(HexDouble, RejectsMalformedTokens) {
    EXPECT_FALSE(str::parseDoubleToken(""));
    EXPECT_FALSE(str::parseDoubleToken("abc"));
    EXPECT_FALSE(str::parseDoubleToken("1.5junk"));
    EXPECT_FALSE(str::parseDoubleToken("0x"));
    EXPECT_FALSE(str::parseDoubleToken("-"));
    // A comma is never a decimal separator, whatever the locale.
    EXPECT_FALSE(str::parseDoubleToken("1,5"));
}

// ------------------------------------------------------------ locale forcing

/// Switches LC_NUMERIC to a comma-decimal locale for the test's scope.
/// available() is false when the container ships none of the candidates.
class CommaLocale {
public:
    CommaLocale() {
        saved_ = std::setlocale(LC_NUMERIC, nullptr);
        for (const char* name :
             {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8",
              "fr_FR.utf8", "fr_FR", "it_IT.UTF-8", "es_ES.UTF-8"}) {
            if (std::setlocale(LC_NUMERIC, name) != nullptr) {
                // Trust but verify: the locale must actually print commas.
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.1f", 1.5);
                if (std::string(buf) == "1,5") {
                    available_ = true;
                    return;
                }
            }
        }
        std::setlocale(LC_NUMERIC, saved_.c_str());
    }
    ~CommaLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
    bool available() const { return available_; }

private:
    std::string saved_;
    bool available_ = false;
};

using charlib::TheveninModel;

TheveninModel referenceModel() {
    TheveninModel m;
    m.vStart = 0.0;
    m.vEnd = 1.2;
    m.slew = 6.5e-11;
    m.rth = 1563.4210526315789;
    m.delay = 4.35e-11;
    return m;
}

void expectModelRoundTrip() {
    const TheveninModel m = referenceModel();
    const TheveninModel back = charlib::loadThevenin(charlib::saveThevenin(m));
    EXPECT_EQ(back.vStart, m.vStart);
    EXPECT_EQ(back.vEnd, m.vEnd);
    EXPECT_EQ(back.slew, m.slew);
    EXPECT_EQ(back.rth, m.rth);
    EXPECT_EQ(back.delay, m.delay);
}

charlib::CharCache& seededCache(charlib::CharCache& cache,
                                const cell::CellLibrary& lib,
                                std::size_t entries) {
    for (std::size_t i = 0; i < entries; ++i) {
        charlib::TheveninSpec spec;
        spec.cell = &lib.cell("INV_X1");
        spec.input = "a";
        spec.outputRising = (i % 2) == 0;
        spec.loadCap = 10e-15 + 1e-15 * static_cast<double>(i);
        TheveninModel m = referenceModel();
        m.rth += static_cast<double>(i);
        EXPECT_TRUE(cache.seedThevenin(spec, m));
    }
    return cache;
}

TEST(LocalePortability, ModelAndCacheRoundTripUnderCommaDecimalCLocale) {
    CommaLocale locale;
    if (!locale.available()) {
        GTEST_SKIP() << "no comma-decimal locale installed in this image";
    }
    expectModelRoundTrip();

    const cell::CellLibrary lib(tech::tech130());
    const std::string path = tmpPath("sna_locale.snacache");
    charlib::CharCache cache;
    seededCache(cache, lib, 4);
    const auto saved = cache.save(path);
    EXPECT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 4u);
    charlib::CharCache fresh;
    const auto loaded = fresh.load(path);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 4u);
    std::remove(path.c_str());
}

TEST(LocalePortability, StreamsUnderCommaDecimalGlobalCppLocale) {
    // A comma-decimal numpunct needs no OS locale pack, so this test always
    // runs: it catches any serialization path formatting through an
    // un-imbued iostream.
    struct CommaPunct : std::numpunct<char> {
        char do_decimal_point() const override { return ','; }
    };
    const std::locale saved = std::locale::global(
        std::locale(std::locale::classic(), new CommaPunct));
    struct Restore {
        const std::locale& loc;
        ~Restore() { std::locale::global(loc); }
    } restore{saved};

    expectModelRoundTrip();
}

// ----------------------------------------------------- concurrent persistence

TEST(ConcurrentSave, TwoWritersOnePathNeverCorrupt) {
    const cell::CellLibrary lib(tech::tech130());
    const std::string name = "sna_concurrent.snacache";
    const std::string path = tmpPath(name);
    charlib::CharCache cache;
    seededCache(cache, lib, 8);

    constexpr int kIters = 25;
    std::vector<std::thread> writers;
    std::vector<int> failures(2, 0);
    for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const auto r = cache.save(path);
                if (!r.ok || r.entries != 8u) ++failures[t];
            }
        });
    }
    for (auto& th : writers) th.join();
    EXPECT_EQ(failures[0], 0);
    EXPECT_EQ(failures[1], 0);

    // Whoever won, the published file is one complete snapshot.
    charlib::CharCache fresh;
    const auto loaded = fresh.load(path);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 8u);

    // No temporary sibling survives: every writer's tmp was renamed away.
    std::size_t leftover = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(testing::TempDir())) {
        const std::string base = entry.path().filename().string();
        if (base.rfind(name + ".tmp.", 0) == 0) ++leftover;
    }
    EXPECT_EQ(leftover, 0u);
    std::remove(path.c_str());
}

TEST(ConcurrentSave, NrcPointsSavedWhileCharacterizing) {
    // One thread bisects NRC points while another saves: each save is a
    // complete snapshot of the points ready so far, and the last one
    // reloads every point bit for bit, with no characterization.
    const cell::CellLibrary lib(tech::tech130());
    const std::string path = tmpPath("sna_nrcpoints.snacache");
    charlib::NrcSpec spec;
    spec.cell = &lib.cell("INV_X1");
    spec.input = "a";
    const std::vector<double> widths = {100e-12, 141e-12, 200e-12};
    charlib::CharCache cache;
    std::vector<double> heights;
    int failures = 0;
    std::thread worker([&] { heights = cache.nrcHeights(spec, widths); });
    std::thread writer([&] {
        for (int i = 0; i < 10; ++i) {
            if (!cache.save(path).ok) ++failures;
        }
    });
    worker.join();
    writer.join();
    EXPECT_EQ(failures, 0);
    ASSERT_TRUE(cache.save(path).ok);

    charlib::CharCache fresh;
    const auto loaded = fresh.load(path);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, widths.size());
    const auto back = fresh.nrcHeights(spec, widths);
    ASSERT_EQ(back.size(), heights.size());
    EXPECT_EQ(std::memcmp(back.data(), heights.data(),
                          heights.size() * sizeof(double)),
              0);
    EXPECT_EQ(fresh.stats().nrcRuns, 0u);
    EXPECT_EQ(fresh.stats().nrcDiskHits, widths.size());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(NrcPointRecords, LegacyWholeCurveRecordIsSkipped) {
    // Older writers saved whole NRC curves as "nrc" records. This reader
    // skips them like any unknown kind: a miss, not an error.
    const std::string path = tmpPath("sna_legacy_nrc.snacache");
    const std::string key = "legacy-curve-key";
    const std::string payload =
        "snamodel v1 nrc\nwidths 0x1.b7cdfd9d7bdbbp-34 0x1.b7cdfd9d7bdbbp-33\n"
        "heights 0x1.ccccccccccccdp-1 0x1.6666666666666p-1\n";
    std::string crcInput = key + payload;
    char crcHex[9];
    std::snprintf(crcHex, sizeof(crcHex), "%08x", util::crc32(crcInput));
    {
        std::ofstream os(path, std::ios::binary);
        os << "snacache v2\n"
           << "entry nrc " << payload.size() << ' ' << crcHex << ' ' << key
           << '\n'
           << payload << '\n'
           << "end 1\n";
    }
    charlib::CharCache cache;
    const auto loaded = cache.load(path);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 0u);
    EXPECT_EQ(loaded.skipped, 1u);
    EXPECT_EQ(loaded.corrupt, 0u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

// One CRC'd "snacache v2" record line plus its payload.
std::string cacheRecord(const std::string& kind, const std::string& key,
                        const std::string& payload) {
    char crcHex[9];
    std::snprintf(crcHex, sizeof(crcHex), "%08x", util::crc32(key + payload));
    return "entry " + kind + ' ' + std::to_string(payload.size()) + ' ' +
           crcHex + ' ' + key + '\n' + payload + '\n';
}

TEST(NrcPointRecords, LegacyWholeCurveRecordIsDroppedOnSave) {
    // The whole-curve "nrc" kind is retired: load -> save -> load leaves no
    // "nrc" record behind, while the file stays a valid, complete cache.
    const std::string legacy = cacheRecord(
        "nrc", "legacy-curve-key",
        "snamodel v1 nrc\nwidths 0x1.b7cdfd9d7bdbbp-34 0x1.b7cdfd9d7bdbbp-33\n"
        "heights 0x1.ccccccccccccdp-1 0x1.6666666666666p-1\n");
    const std::string real =
        cacheRecord("nrcpoint", "real-key", charlib::saveNrcPoint(0.5));
    const std::string in = tmpPath("sna_retired_nrc_in.snacache");
    const std::string out = tmpPath("sna_retired_nrc_out.snacache");
    {
        std::ofstream os(in, std::ios::binary);
        os << "snacache v2\n" << legacy << real << "end 2\n";
    }
    charlib::CharCache cache;
    const auto loaded = cache.load(in);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 1u);
    EXPECT_EQ(loaded.skipped, 1u);

    const auto saved = cache.save(out);
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 1u);
    std::string text;
    {
        std::ifstream is(out, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(text.find("entry nrc "), std::string::npos) << text;
    EXPECT_NE(text.find(real), std::string::npos) << text;

    charlib::CharCache reloaded;
    const auto again = reloaded.load(out);
    EXPECT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.entries, 1u);
    EXPECT_EQ(again.skipped, 0u);
    for (const std::string& p : {in, out}) {
        std::remove(p.c_str());
        std::remove((p + ".lock").c_str());
    }
}

TEST(ForeignRecords, SaveWritesBackKindsThisReaderDoesNotKnow) {
    // A binary sharing a cache file with a newer one must not delete the
    // newer one's records: unknown kinds survive load -> save verbatim.
    // The retired whole-curve "nrc" kind is the exception: it is dropped.
    const std::string future =
        cacheRecord("futuretable", "future-key", "opaque\npayload 0x1p-3\n");
    const std::string legacy = cacheRecord(
        "nrc", "legacy-curve-key",
        "snamodel v1 nrc\nwidths 0x1.b7cdfd9d7bdbbp-34 0x1.b7cdfd9d7bdbbp-33\n"
        "heights 0x1.ccccccccccccdp-1 0x1.6666666666666p-1\n");
    const std::string real =
        cacheRecord("nrcpoint", "real-key", charlib::saveNrcPoint(0.5));
    const std::string in = tmpPath("sna_foreign_in.snacache");
    const std::string out = tmpPath("sna_foreign_out.snacache");
    {
        std::ofstream os(in, std::ios::binary);
        os << "snacache v2\n" << future << real << legacy << "end 3\n";
    }
    charlib::CharCache cache;
    const auto loaded = cache.load(in);
    EXPECT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 1u);
    EXPECT_EQ(loaded.skipped, 2u);

    const auto saved = cache.save(out);
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 2u);
    std::string text;
    {
        std::ifstream is(out, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    EXPECT_NE(text.find(future), std::string::npos) << text;
    EXPECT_EQ(text.find(legacy), std::string::npos) << text;
    EXPECT_EQ(text.substr(text.size() - 6), "end 2\n");

    charlib::CharCache reloaded;
    const auto again = reloaded.load(out);
    EXPECT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.entries, 1u);
    EXPECT_EQ(again.skipped, 1u);

    // clear() forgets them with the rest of the cache.
    cache.clear();
    ASSERT_TRUE(cache.save(out).ok);
    charlib::CharCache empty;
    const auto none = empty.load(out);
    EXPECT_TRUE(none.ok) << none.error;
    EXPECT_EQ(none.entries + none.skipped, 0u);
    for (const std::string& p : {in, out}) {
        std::remove(p.c_str());
        std::remove((p + ".lock").c_str());
    }
}

}  // namespace
