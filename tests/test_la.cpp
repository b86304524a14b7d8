// Unit and property tests for dense linear algebra and interpolation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "la/dense.hpp"
#include "la/interp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace sna;
using la::DenseMatrix;
using la::Vector;

// ----------------------------------------------------------------- dense

TEST(Dense, IdentitySolve) {
    DenseMatrix id(4, 4);
    for (std::size_t i = 0; i < 4; ++i) id(i, i) = 1.0;
    const Vector b{1, 2, 3, 4};
    const Vector x = la::solveDense(id, b);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(Dense, SolveKnownSystem) {
    DenseMatrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    const Vector x = la::solveDense(a, {5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Dense, PivotingHandlesZeroDiagonal) {
    DenseMatrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    const Vector x = la::solveDense(a, {3, 7});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Dense, SingularThrows) {
    DenseMatrix a(2, 2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW(la::solveDense(a, {1, 2}), ConvergenceError);
}

TEST(Dense, DeterminantWithPivotSign) {
    DenseMatrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    la::DenseLu lu(a);
    EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

// One DenseLu re-factored over a sequence must equal a fresh factorization
// bit for bit after each step: one row swap (odd permutation), then a
// singular matrix that throws mid-elimination after two swaps, then a
// regular one needing none. Stale perm_/permSign_ from either would show
// in the solve or the determinant.
TEST(Dense, RefactorMatchesFreshFactorizationBitwise) {
    auto square3 = [](std::initializer_list<double> rowMajor) {
        DenseMatrix m(3, 3);
        std::size_t i = 0;
        for (double v : rowMajor) {
            m(i / 3, i % 3) = v;
            ++i;
        }
        return m;
    };
    const DenseMatrix swap = square3({1e-3, 2.0, -1.0,  //
                                      4.0, 1.0, 0.5,    //
                                      -2.0, 0.5, 7.0});
    const DenseMatrix singular = square3({1.0, 2.0, 3.0,  //
                                          2.0, 4.0, 6.0,  //
                                          1.0, 1.0, 1.0});
    const DenseMatrix regular = square3({5.0, 1.0, -0.3,  //
                                         0.7, 6.0, 1.1,   //
                                         -0.2, 0.9, 4.0});
    const Vector b{1.0, -2.0, 0.25};

    auto expectSame = [&](const la::DenseLu& reused, const DenseMatrix& a) {
        const la::DenseLu fresh(a);
        EXPECT_EQ(reused.determinant(), fresh.determinant());
        Vector x{9.0};  // wrong size: solveInto must resize
        reused.solveInto(b, x);
        const Vector want = fresh.solve(b);
        ASSERT_EQ(x.size(), want.size());
        for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], want[i]);
    };

    la::DenseLu lu;
    lu.refactor(swap);
    expectSame(lu, swap);
    EXPECT_NEAR(lu.determinant(), -61.99325, 1e-9);  // one swap: sign -1
    EXPECT_THROW(lu.refactor(singular), ConvergenceError);
    lu.refactor(regular);
    expectSame(lu, regular);
    lu.refactor(swap);
    expectSame(lu, swap);
}

// The fixed-size kernel for n (2..8), or the generic one: what DenseLu
// dispatches to.
struct LuKernels {
    void (*decompose)(double*, std::size_t, std::size_t*, int&, double);
    void (*solve)(const double*, const std::size_t*, std::size_t,
                  const double*, double*);
};

template <std::size_t N>
LuKernels kernelsOf() {
    return {la::detail::LuKernel<N>::decompose, la::detail::LuKernel<N>::solve};
}

LuKernels fixedKernels(std::size_t n) {
    switch (n) {
        case 2: return kernelsOf<2>();
        case 3: return kernelsOf<3>();
        case 4: return kernelsOf<4>();
        case 5: return kernelsOf<5>();
        case 6: return kernelsOf<6>();
        case 7: return kernelsOf<7>();
        case 8: return kernelsOf<8>();
        default: return kernelsOf<0>();
    }
}

// One factorization's outputs: factors, permutation, sign, solution and
// determinant, or the exception text.
struct LuOutcome {
    std::vector<double> lu;
    std::vector<std::size_t> perm;
    int sign = 0;
    Vector x;
    double det = 0.0;
    std::string error;
};

LuOutcome runKernels(const LuKernels& k, const DenseMatrix& a,
                     const Vector& b) {
    const std::size_t n = a.rows();
    LuOutcome out;
    out.lu = a.data();
    out.perm.assign(n, 99);
    try {
        k.decompose(out.lu.data(), n, out.perm.data(), out.sign, 1e-14);
    } catch (const ConvergenceError& e) {
        out.error = e.what();
        return out;
    }
    out.x.assign(n, 0.0);
    k.solve(out.lu.data(), out.perm.data(), n, b.data(), out.x.data());
    out.det = out.sign;  // DenseLu::determinant's product order
    for (std::size_t i = 0; i < n; ++i) out.det *= out.lu[i * n + i];
    return out;
}

bool sameBits(const void* a, const void* b, std::size_t bytes) {
    return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

TEST(Dense, FixedSizeKernelsMatchGenericBitwise) {
    // Seeded random systems of every size 1..12 in four shapes: dense
    // (row swaps), a column that is already zero below its diagonal (the
    // factor == 0 skip), a rank-deficient matrix (the singular-pivot
    // error), and a NaN entry. The fixed-size kernel DenseLu dispatches to
    // must reproduce the generic loop bit for bit, and so must DenseLu.
    util::Rng rng(20260);
    for (std::size_t n = 1; n <= 12; ++n) {
        for (int shape = 0; shape < 4; ++shape) {
            for (int trial = 0; trial < 6; ++trial) {
                DenseMatrix a(n, n);
                for (std::size_t r = 0; r < n; ++r) {
                    for (std::size_t c = 0; c < n; ++c) {
                        a(r, c) = rng.uniform(-1.0, 1.0);
                    }
                }
                const std::size_t col = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(n) - 1));
                if (shape == 1) {
                    for (std::size_t r = col + 1; r < n; ++r) a(r, col) = 0.0;
                } else if (shape == 2) {
                    // Row n-1 repeats row `col` (or the lone entry is 0).
                    for (std::size_t c = 0; c < n; ++c) {
                        a(n - 1, c) =
                            n == 1 ? 0.0 : a(col == n - 1 ? 0 : col, c);
                    }
                } else if (shape == 3) {
                    a(col, n - 1 - col) =
                        std::numeric_limits<double>::quiet_NaN();
                }
                Vector b(n);
                for (double& v : b) v = rng.uniform(-2.0, 2.0);

                const LuOutcome generic = runKernels(kernelsOf<0>(), a, b);
                const LuOutcome fixed = runKernels(fixedKernels(n), a, b);
                SCOPED_TRACE("n=" + std::to_string(n) + " shape=" +
                             std::to_string(shape));
                EXPECT_EQ(fixed.error, generic.error);
                if (shape == 2) {
                    EXPECT_NE(generic.error, "");
                }
                if (!generic.error.empty()) {
                    try {
                        la::DenseLu dispatched(a);
                        ADD_FAILURE() << "DenseLu accepted a matrix the "
                                         "generic kernel rejects";
                    } catch (const ConvergenceError& e) {
                        EXPECT_EQ(std::string(e.what()), generic.error);
                    }
                    continue;
                }
                EXPECT_TRUE(sameBits(fixed.lu.data(), generic.lu.data(),
                                     n * n * sizeof(double)));
                EXPECT_EQ(fixed.perm, generic.perm);
                EXPECT_EQ(fixed.sign, generic.sign);
                EXPECT_TRUE(sameBits(fixed.x.data(), generic.x.data(),
                                     n * sizeof(double)));
                EXPECT_TRUE(sameBits(&fixed.det, &generic.det, sizeof(double)));

                const la::DenseLu dispatched(a);
                const double det = dispatched.determinant();
                const Vector x = dispatched.solve(b);
                EXPECT_TRUE(sameBits(&det, &generic.det, sizeof(double)));
                EXPECT_TRUE(
                    sameBits(x.data(), generic.x.data(), n * sizeof(double)));
            }
        }
    }
}

TEST(Dense, SolveIntoRejectsAliasedOutput) {
    DenseMatrix id(2, 2);
    id(0, 0) = 1.0;
    id(1, 1) = 1.0;
    const la::DenseLu lu(id);
    Vector b{1.0, 2.0};
    EXPECT_THROW(lu.solveInto(b, b), LogicError);
}

class DenseRandomSolve : public ::testing::TestWithParam<int> {};

TEST_P(DenseRandomSolve, ResidualIsTiny) {
    const int n = GetParam();
    util::Rng rng(1000 + n);
    DenseMatrix a(n, n);
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) a(r, c) = rng.uniform(-1, 1);
        a(r, r) += n;  // diagonally dominant: well-conditioned
    }
    Vector b(n);
    for (int i = 0; i < n; ++i) b[i] = rng.uniform(-5, 5);
    const Vector x = la::solveDense(a, b);
    const Vector ax = a.multiply(x);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseRandomSolve,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(Dense, MultiplyAndTranspose) {
    DenseMatrix a(2, 3);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(0, 2) = 3;
    a(1, 0) = 4;
    a(1, 1) = 5;
    a(1, 2) = 6;
    DenseMatrix at(3, 2);
    at(0, 0) = 1;
    at(1, 0) = 2;
    at(2, 0) = 3;
    at(0, 1) = 4;
    at(1, 1) = 5;
    at(2, 1) = 6;
    const DenseMatrix aat = a.multiply(at);
    EXPECT_DOUBLE_EQ(aat(0, 0), 14.0);
    EXPECT_DOUBLE_EQ(aat(0, 1), 32.0);
    EXPECT_DOUBLE_EQ(aat(1, 1), 77.0);
}

// ---------------------------------------------------------------- interp

TEST(Grid1d, InterpolatesAndClamps) {
    la::Grid1d g({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
    EXPECT_DOUBLE_EQ(g(0.5), 5.0);
    EXPECT_DOUBLE_EQ(g(1.5), 5.0);
    EXPECT_DOUBLE_EQ(g(-1.0), 0.0);  // clamped
    EXPECT_DOUBLE_EQ(g(3.0), 0.0);   // clamped
    EXPECT_DOUBLE_EQ(g.derivative(0.25), 10.0);
    EXPECT_DOUBLE_EQ(g.derivative(1.75), -10.0);
}

TEST(Grid2d, ExactOnGridPoints) {
    const std::vector<double> xs{0, 1, 2};
    const std::vector<double> ys{0, 2};
    std::vector<double> z(6);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            z[i * 2 + j] = 3.0 * xs[i] - 1.5 * ys[j] + 0.25;
        }
    }
    la::Grid2d g(xs, ys, z);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_NEAR(g(xs[i], ys[j]), z[i * 2 + j], 1e-12);
        }
    }
}

TEST(Grid2d, ReproducesBilinearFunctionExactly) {
    // f(x,y) = 2 + x - 3y + 0.5xy is bilinear, so interpolation is exact
    // everywhere inside the grid, and the partials match analytically.
    auto f = [](double x, double y) { return 2 + x - 3 * y + 0.5 * x * y; };
    std::vector<double> xs{-1, 0, 2, 3};
    std::vector<double> ys{-2, 1, 4};
    std::vector<double> z;
    for (double x : xs) {
        for (double y : ys) z.push_back(f(x, y));
    }
    la::Grid2d g(xs, ys, z);
    util::Rng rng(5);
    for (int k = 0; k < 200; ++k) {
        const double x = rng.uniform(-1, 3);
        const double y = rng.uniform(-2, 4);
        const auto v = g.eval(x, y);
        EXPECT_NEAR(v.z, f(x, y), 1e-12);
        EXPECT_NEAR(v.dzdx, 1 + 0.5 * y, 1e-12);
        EXPECT_NEAR(v.dzdy, -3 + 0.5 * x, 1e-12);
    }
}

TEST(Grid2d, ClampsOutsideDomain) {
    la::Grid2d g({0, 1}, {0, 1}, {0, 0, 1, 1});  // z = x
    EXPECT_DOUBLE_EQ(g(5.0, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(g(-5.0, 0.5), 0.0);
}

TEST(Grid2d, RejectsBadConstruction) {
    EXPECT_THROW(la::Grid2d({0, 1}, {0, 1}, {1, 2, 3}), LogicError);
    EXPECT_THROW(la::Grid2d({1, 0}, {0, 1}, {1, 2, 3, 4}), LogicError);
}

// ----------------------------------------------------------------- norms

TEST(Norms, Basics) {
    EXPECT_DOUBLE_EQ(la::norm2({3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(la::norm2({}), 0.0);
}

}  // namespace
