#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/logging.h"

/// \file sparse_matrix.h
/// \brief Compressed-sparse-row matrix used for adjacency structure:
/// the normalized adjacency Ã and the propagated features ÃᵏX of GFN
/// feature augmentation (Eq. 12-13), and the sparse products of the
/// GCN layers (SpMM).

namespace ba::graph {

/// \brief One (row, col, value) entry used to build a SparseMatrix.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  float value = 0.0f;
};

/// \brief Immutable CSR float matrix.
class SparseMatrix {
 public:
  /// Empty matrix of the given shape.
  SparseMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), row_ptr_(static_cast<size_t>(rows) + 1, 0) {
    BA_CHECK_GE(rows, 0);
    BA_CHECK_GE(cols, 0);
  }

  /// \brief Adopts CSR arrays: `row_ptr` has rows + 1 non-decreasing
  /// offsets from 0, and each row's columns are strictly ascending.
  SparseMatrix(int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
               std::vector<int64_t> col_idx, std::vector<float> values);

  /// \brief Builds from triplets; duplicate (row, col) entries are
  /// summed. Triplets may be in any order.
  static SparseMatrix FromTriplets(int64_t rows, int64_t cols,
                                   std::vector<Triplet> triplets);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Column indices of row `r`, sorted ascending.
  std::span<const int64_t> RowIndices(int64_t r) const {
    BA_CHECK_LT(r, rows_);
    return {col_idx_.data() + row_ptr_[r],
            static_cast<size_t>(row_ptr_[r + 1] - row_ptr_[r])};
  }

  /// Values of row `r`, aligned with RowIndices(r).
  std::span<const float> RowValues(int64_t r) const {
    BA_CHECK_LT(r, rows_);
    return {values_.data() + row_ptr_[r],
            static_cast<size_t>(row_ptr_[r + 1] - row_ptr_[r])};
  }

  /// Value at (r, c); zero when the entry is absent. O(log nnz(row)).
  float At(int64_t r, int64_t c) const;

  /// \brief Dense product `Y = this * X`, where X is row-major
  /// (cols() x x_cols) and Y is row-major (rows() x x_cols).
  void MultiplyDense(const float* x, int64_t x_cols, float* y) const;

  /// Transposed copy.
  SparseMatrix Transpose() const;

  /// Sum of values in row `r`.
  float RowSum(int64_t r) const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int64_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace ba::graph
