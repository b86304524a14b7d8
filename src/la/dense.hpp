// Dense linear algebra: row-major matrix and LU factorization.
//
// Sized for the workloads of this library: MNA systems of a few hundred
// unknowns (full SPICE on extracted clusters) down to ~10 unknowns (the
// cluster macromodel engine). LU uses partial pivoting. The Newton engine
// keeps one DenseLu per solve and re-factors each Jacobian into its storage
// (refactor + solveInto), so an iteration allocates nothing once the
// shapes are set.
//
// Fixed-size kernels. The factorization and the solve are one kernel
// template each (detail::LuKernel<N>::decompose / solve) over a row-major
// array. N == 0 is the generic loop, whose size comes at run time; N = 2..8
// fixes the size at compile time, so the loops unroll and index without a
// run-time stride. Every instantiation runs the same source: the same
// operations in the same order, the same pivot rule (first largest
// magnitude), the same `factor == 0.0` skip and the same singular-pivot
// error text. A fixed-size kernel therefore returns bitwise the factors,
// permutation, sign and solution of the generic loop (pinned by
// Dense.FixedSizeKernelsMatchGenericBitwise; the build disables
// floating-point contraction so no instantiation fuses a multiply-add the
// other does not). DenseLu dispatches sizes 2..8 to the fixed kernels and
// every other size to the generic one. The macromodel's 6-unknown system is
// the case this is for.
#pragma once

#include <cstddef>
#include <vector>

namespace sna::la {

using Vector = std::vector<double>;

/// Row-major dense matrix.
class DenseMatrix {
public:
    DenseMatrix() = default;
    DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c) {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        return data_[r * cols_ + c];
    }

    /// Reset every entry to zero, keeping the shape (hot path in Newton).
    void setZero();

    /// y = A x.
    Vector multiply(const Vector& x) const;

    /// C = A B.
    DenseMatrix multiply(const DenseMatrix& other) const;

    const std::vector<double>& data() const { return data_; }
    /// The rows() * cols() row-major entries, for the LU kernels.
    double* raw() { return data_.data(); }
    const double* raw() const { return data_.data(); }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle).
class DenseLu {
public:
    /// Factorizes a copy of `a`. Throws sna::ConvergenceError if the matrix
    /// is numerically singular (pivot below `pivotTol`).
    explicit DenseLu(DenseMatrix a, double pivotTol = 1e-14);

    /// Empty factorization; call refactor() before solving.
    DenseLu() = default;

    /// Factorizes a copy of `a` into this object's existing storage (no
    /// allocation once sized), with the same arithmetic as the constructor.
    /// The previous factorization is discarded, also when this throws.
    void refactor(const DenseMatrix& a, double pivotTol = 1e-14);

    std::size_t size() const { return lu_.rows(); }

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

    /// Solve A x = b into caller-supplied storage (resized to size(); no
    /// allocation when it already has that size). `x` must not alias `b`.
    void solveInto(const Vector& b, Vector& x) const;

    /// In-place solve, b is replaced by x.
    void solveInPlace(Vector& b) const;

    /// Determinant of A (with pivot signs).
    double determinant() const;

private:
    /// Factorizes lu_ in place; perm_/permSign_ restart from the identity.
    void decompose(double pivotTol);

    DenseMatrix lu_;
    std::vector<std::size_t> perm_;
    int permSign_ = 1;
};

namespace detail {

/// Largest size with a fixed-size kernel.
inline constexpr std::size_t kMaxFixedLu = 8;

/// The LU kernels for n x n row-major arrays: N == 0 takes n at run time,
/// N > 0 requires n == N. Instantiated for N = 0 and 2..kMaxFixedLu.
template <std::size_t N>
struct LuKernel {
    /// Factorizes `a` in place with partial pivoting; perm[0..n) and
    /// permSign restart from the identity. Throws sna::ConvergenceError on
    /// a pivot below pivotTol (or NaN).
    static void decompose(double* a, std::size_t n, std::size_t* perm,
                          int& permSign, double pivotTol);
    /// Solves A x = b from decompose's output; x must not alias b.
    static void solve(const double* lu, const std::size_t* perm,
                      std::size_t n, const double* b, double* x);
};

}  // namespace detail

/// Convenience one-shot solve.
Vector solveDense(DenseMatrix a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

}  // namespace sna::la
