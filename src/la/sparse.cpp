#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.hpp"

namespace sna::la {

SparseMatrix::SparseMatrix(std::size_t n) : n_(n) {}

void SparseMatrix::add(std::size_t r, std::size_t c, double v) {
    SNA_REQUIRE(r < n_ && c < n_, "sparse stamp outside matrix");
    if (v == 0.0) return;
    trips_.push_back({r, c, v});
}

void SparseMatrix::clear() { trips_.clear(); }

Vector SparseMatrix::multiply(const Vector& x) const {
    SNA_REQUIRE(x.size() == n_, "dimension mismatch in sparse product");
    Vector y(n_, 0.0);
    for (const auto& t : trips_) y[t.r] += t.v * x[t.c];
    return y;
}

std::vector<std::vector<SparseMatrix::Entry>> SparseMatrix::consolidatedRows()
    const {
    std::vector<std::map<std::size_t, double>> acc(n_);
    for (const auto& t : trips_) acc[t.r][t.c] += t.v;
    std::vector<std::vector<Entry>> rows(n_);
    for (std::size_t r = 0; r < n_; ++r) {
        rows[r].reserve(acc[r].size());
        for (const auto& [c, v] : acc[r]) rows[r].push_back({c, v});
    }
    return rows;
}

DenseMatrix SparseMatrix::toDense() const {
    DenseMatrix m(n_, n_);
    for (const auto& t : trips_) m(t.r, t.c) += t.v;
    return m;
}

namespace {

// Greedy minimum-degree ordering on the symmetrized pattern. Exact external
// degree on the evolving quotient graph would be overkill here; we use the
// static degree refreshed lazily, which is effective for near-banded MNA
// patterns and cheap to compute.
std::vector<std::size_t> minimumDegreeOrder(
    const std::vector<std::vector<SparseMatrix::Entry>>& rows) {
    const std::size_t n = rows.size();
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t r = 0; r < n; ++r) {
        for (const auto& e : rows[r]) {
            if (e.col == r) continue;
            adj[r].push_back(e.col);
            adj[e.col].push_back(r);
        }
    }
    for (auto& a : adj) {
        std::sort(a.begin(), a.end());
        a.erase(std::unique(a.begin(), a.end()), a.end());
    }
    std::vector<bool> eliminated(n, false);
    std::vector<std::size_t> order;
    order.reserve(n);
    // Bucket by current degree; degrees only shrink as neighbors are
    // eliminated, so a lazy re-check keeps this O(E log E)-ish.
    std::multimap<std::size_t, std::size_t> byDegree;
    for (std::size_t i = 0; i < n; ++i) byDegree.insert({adj[i].size(), i});
    auto currentDegree = [&](std::size_t v) {
        std::size_t d = 0;
        for (std::size_t u : adj[v]) {
            if (!eliminated[u]) ++d;
        }
        return d;
    };
    while (order.size() < n) {
        auto it = byDegree.begin();
        const std::size_t v = it->second;
        const std::size_t claimed = it->first;
        byDegree.erase(it);
        if (eliminated[v]) continue;
        const std::size_t d = currentDegree(v);
        if (d > claimed) {
            // Stale entry cannot happen (degrees shrink), but guard anyway.
            byDegree.insert({d, v});
            continue;
        }
        eliminated[v] = true;
        order.push_back(v);
        for (std::size_t u : adj[v]) {
            if (!eliminated[u]) byDegree.insert({currentDegree(u), u});
        }
    }
    return order;
}

}  // namespace

SparseLu::SparseLu(const SparseMatrix& a, double pivotTol) : n_(a.size()) {
    const auto rows = a.consolidatedRows();
    order_ = minimumDegreeOrder(rows);
    inverseOrder_.assign(n_, 0);
    for (std::size_t k = 0; k < n_; ++k) inverseOrder_[order_[k]] = k;

    // Working rows as (step-index, value) maps keyed by elimination step of
    // the column, so elimination proceeds monotonically.
    std::vector<std::map<std::size_t, double>> work(n_);
    for (std::size_t r = 0; r < n_; ++r) {
        auto& row = work[inverseOrder_[r]];
        for (const auto& e : rows[r]) row[inverseOrder_[e.col]] += e.value;
    }

    pivots_.assign(n_, 0.0);
    upper_.assign(n_, {});
    lower_.assign(n_, {});

    // Column structure: for step k, which later rows have an entry in column
    // k. Maintained incrementally.
    std::vector<std::vector<std::size_t>> colRows(n_);
    for (std::size_t r = 0; r < n_; ++r) {
        for (const auto& [c, v] : work[r]) {
            if (r > c) colRows[c].push_back(r);
        }
    }

    for (std::size_t k = 0; k < n_; ++k) {
        auto& pivotRow = work[k];
        const auto pit = pivotRow.find(k);
        const double pivot = (pit == pivotRow.end()) ? 0.0 : pit->second;
        if (!(std::abs(pivot) >= pivotTol)) {  // NaN pivots fail too
            throw ConvergenceError("sparse LU: zero diagonal pivot at step " +
                                   std::to_string(k));
        }
        pivots_[k] = pivot;
        auto& up = upper_[k];
        for (const auto& [c, v] : pivotRow) {
            if (c > k && v != 0.0) up.push_back({c, v});
        }
        factorNnz_ += up.size() + 1;

        // Eliminate column k from all later rows holding it.
        auto& targets = colRows[k];
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
        for (std::size_t r : targets) {
            auto& row = work[r];
            const auto rit = row.find(k);
            if (rit == row.end() || rit->second == 0.0) continue;
            const double mult = rit->second / pivot;
            row.erase(rit);
            lower_[k].push_back({r, mult});
            ++factorNnz_;
            for (const auto& e : up) {
                auto [ins, fresh] = row.try_emplace(e.index, 0.0);
                ins->second -= mult * e.value;
                if (fresh && r > e.index) colRows[e.index].push_back(r);
            }
        }
        pivotRow.clear();
        targets.clear();
    }
}

Vector SparseLu::solve(const Vector& b) const {
    SNA_REQUIRE(b.size() == n_, "rhs size mismatch in sparse solve");
    // Permute into elimination order.
    Vector y(n_);
    for (std::size_t r = 0; r < n_; ++r) y[inverseOrder_[r]] = b[r];
    // Forward: apply stored multipliers.
    for (std::size_t k = 0; k < n_; ++k) {
        const double yk = y[k];
        if (yk == 0.0) continue;
        for (const auto& e : lower_[k]) y[e.index] -= e.value * yk;
    }
    // Backward.
    for (std::size_t kk = n_; kk-- > 0;) {
        double acc = y[kk];
        for (const auto& e : upper_[kk]) acc -= e.value * y[e.index];
        y[kk] = acc / pivots_[kk];
    }
    // Undo permutation.
    Vector x(n_);
    for (std::size_t r = 0; r < n_; ++r) x[r] = y[inverseOrder_[r]];
    return x;
}

Vector solveSparse(const SparseMatrix& a, const Vector& b) {
    try {
        return SparseLu(a).solve(b);
    } catch (const ConvergenceError&) {
        return solveDense(a.toDense(), b);
    }
}

}  // namespace la = sna::la
