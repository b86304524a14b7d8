#include "la/dense.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace sna::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void DenseMatrix::setZero() {
    std::fill(data_.begin(), data_.end(), 0.0);
}

Vector DenseMatrix::multiply(const Vector& x) const {
    SNA_REQUIRE(x.size() == cols_, "dimension mismatch in matrix-vector product");
    Vector y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row = &data_[r * cols_];
        for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
        y[r] = acc;
    }
    return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
    SNA_REQUIRE(cols_ == other.rows_, "dimension mismatch in matrix product");
    DenseMatrix out(rows_, other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0) continue;
            for (std::size_t c = 0; c < other.cols_; ++c) {
                out(r, c) += a * other(k, c);
            }
        }
    }
    return out;
}

DenseLu::DenseLu(DenseMatrix a, double pivotTol) : lu_(std::move(a)) {
    decompose(pivotTol);
}

void DenseLu::refactor(const DenseMatrix& a, double pivotTol) {
    lu_ = a;
    decompose(pivotTol);
}

namespace detail {

namespace {

[[noreturn]] void throwSingular(double best, std::size_t column) {
    throw ConvergenceError("singular matrix in dense LU (pivot " +
                           std::to_string(best) + " at column " +
                           std::to_string(column) + ")");
}

}  // namespace

template <std::size_t N>
void LuKernel<N>::decompose(double* a, std::size_t nDyn, std::size_t* perm,
                            int& permSign, double pivotTol) {
    const std::size_t n = N != 0 ? N : nDyn;
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    permSign = 1;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot: largest magnitude in column k at/below the diagonal.
        std::size_t pivot = k;
        double best = std::abs(a[k * n + k]);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double v = std::abs(a[r * n + k]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (!(best >= pivotTol)) throwSingular(best, k);  // NaN fails too
        if (pivot != k) {
            for (std::size_t c = 0; c < n; ++c) {
                std::swap(a[k * n + c], a[pivot * n + c]);
            }
            std::swap(perm[k], perm[pivot]);
            permSign = -permSign;
        }
        const double inv = 1.0 / a[k * n + k];
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = a[r * n + k] * inv;
            if (factor == 0.0) continue;
            a[r * n + k] = factor;
            for (std::size_t c = k + 1; c < n; ++c) {
                a[r * n + c] -= factor * a[k * n + c];
            }
        }
    }
}

template <std::size_t N>
void LuKernel<N>::solve(const double* lu, const std::size_t* perm,
                        std::size_t nDyn, const double* b, double* x) {
    const std::size_t n = N != 0 ? N : nDyn;
    // Apply permutation.
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
    // Forward substitution (unit lower).
    for (std::size_t i = 0; i < n; ++i) {
        double acc = x[i];
        for (std::size_t j = 0; j < i; ++j) acc -= lu[i * n + j] * x[j];
        x[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = x[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= lu[ii * n + j] * x[j];
        x[ii] = acc / lu[ii * n + ii];
    }
}

template struct LuKernel<0>;
template struct LuKernel<2>;
template struct LuKernel<3>;
template struct LuKernel<4>;
template struct LuKernel<5>;
template struct LuKernel<6>;
template struct LuKernel<7>;
template struct LuKernel<8>;

}  // namespace detail

namespace {

using DecomposeKernel = void (*)(double*, std::size_t, std::size_t*, int&,
                                 double);
using SolveKernel = void (*)(const double*, const std::size_t*, std::size_t,
                             const double*, double*);

// Indexed by size: the fixed-size kernel for 2..8, the generic one below.
using detail::LuKernel;
constexpr DecomposeKernel kDecompose[detail::kMaxFixedLu + 1] = {
    LuKernel<0>::decompose, LuKernel<0>::decompose, LuKernel<2>::decompose,
    LuKernel<3>::decompose, LuKernel<4>::decompose, LuKernel<5>::decompose,
    LuKernel<6>::decompose, LuKernel<7>::decompose, LuKernel<8>::decompose};
constexpr SolveKernel kSolve[detail::kMaxFixedLu + 1] = {
    LuKernel<0>::solve, LuKernel<0>::solve, LuKernel<2>::solve,
    LuKernel<3>::solve, LuKernel<4>::solve, LuKernel<5>::solve,
    LuKernel<6>::solve, LuKernel<7>::solve, LuKernel<8>::solve};

}  // namespace

void DenseLu::decompose(double pivotTol) {
    SNA_REQUIRE(lu_.rows() == lu_.cols(), "LU needs a square matrix");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    const DecomposeKernel kernel =
        n <= detail::kMaxFixedLu ? kDecompose[n] : LuKernel<0>::decompose;
    kernel(lu_.raw(), n, perm_.data(), permSign_, pivotTol);
}

Vector DenseLu::solve(const Vector& b) const {
    Vector x;
    solveInto(b, x);
    return x;
}

void DenseLu::solveInPlace(Vector& b) const {
    Vector x;
    solveInto(b, x);
    b = std::move(x);
}

void DenseLu::solveInto(const Vector& b, Vector& x) const {
    const std::size_t n = lu_.rows();
    SNA_REQUIRE(b.size() == n, "rhs size mismatch in LU solve");
    SNA_REQUIRE(&x != &b, "LU solve output aliases its right-hand side");
    x.resize(n);
    const SolveKernel kernel =
        n <= detail::kMaxFixedLu ? kSolve[n] : LuKernel<0>::solve;
    kernel(lu_.raw(), perm_.data(), n, b.data(), x.data());
}

double DenseLu::determinant() const {
    double det = permSign_;
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
}

Vector solveDense(DenseMatrix a, const Vector& b) {
    return DenseLu(std::move(a)).solve(b);
}

double norm2(const Vector& v) {
    double acc = 0.0;
    for (double x : v) acc += x * x;
    return std::sqrt(acc);
}

}  // namespace sna::la
