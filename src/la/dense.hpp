// Dense linear algebra: row-major matrix and LU factorization.
//
// Sized for the workloads of this library: MNA systems of a few hundred
// unknowns (full SPICE on extracted clusters) down to ~10 unknowns (the
// cluster macromodel engine). LU uses partial pivoting. The Newton engine
// keeps one DenseLu per solve and re-factors each Jacobian into its storage
// (refactor + solveInto), so an iteration allocates nothing once the
// shapes are set.
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

    static DenseMatrix identity(std::size_t n);

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

    DenseMatrix transposed() const;

    const std::vector<double>& data() const { return data_; }

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

/// Convenience one-shot solve.
Vector solveDense(DenseMatrix a, const Vector& b);

/// Euclidean norm and helpers used by the Newton loops.
double norm2(const Vector& v);
double normInf(const Vector& v);

}  // namespace sna::la
