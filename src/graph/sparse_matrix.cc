#include "graph/sparse_matrix.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ba::graph {

SparseMatrix::SparseMatrix(int64_t rows, int64_t cols,
                           std::vector<int64_t> row_ptr,
                           std::vector<int64_t> col_idx,
                           std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  BA_CHECK_GE(rows, 0);
  BA_CHECK_GE(cols, 0);
  BA_CHECK_EQ(row_ptr_.size(), static_cast<size_t>(rows) + 1);
  BA_CHECK_EQ(row_ptr_.front(), 0);
  BA_CHECK_EQ(row_ptr_.back(), static_cast<int64_t>(col_idx_.size()));
  BA_CHECK_EQ(col_idx_.size(), values_.size());
  for (int64_t r = 0; r < rows; ++r) {
    BA_CHECK_LE(row_ptr_[static_cast<size_t>(r)],
                row_ptr_[static_cast<size_t>(r) + 1]);
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t c = col_idx_[static_cast<size_t>(k)];
      BA_CHECK(c >= 0 && c < cols);
      BA_CHECK(k == row_ptr_[static_cast<size_t>(r)] ||
               col_idx_[static_cast<size_t>(k) - 1] < c);
    }
  }
}

SparseMatrix SparseMatrix::FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets) {
  SparseMatrix m(rows, cols);
  for (const auto& t : triplets) {
    BA_CHECK_GE(t.row, 0);
    BA_CHECK_LT(t.row, rows);
    BA_CHECK_GE(t.col, 0);
    BA_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  // Merge duplicates and fill CSR arrays.
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (int64_t r = 0; r < rows; ++r) {
    m.row_ptr_[static_cast<size_t>(r)] =
        static_cast<int64_t>(m.col_idx_.size());
    while (i < triplets.size() && triplets[i].row == r) {
      const int64_t c = triplets[i].col;
      float v = 0.0f;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
  }
  m.row_ptr_[static_cast<size_t>(rows)] =
      static_cast<int64_t>(m.col_idx_.size());
  return m;
}

float SparseMatrix::At(int64_t r, int64_t c) const {
  const auto idx = RowIndices(r);
  const auto it = std::lower_bound(idx.begin(), idx.end(), c);
  if (it == idx.end() || *it != c) return 0.0f;
  return values_[static_cast<size_t>(row_ptr_[r] + (it - idx.begin()))];
}

void SparseMatrix::MultiplyDense(const float* x, int64_t x_cols,
                                 float* y) const {
  std::memset(y, 0, sizeof(float) * static_cast<size_t>(rows_ * x_cols));
  for (int64_t r = 0; r < rows_; ++r) {
    float* y_row = y + r * x_cols;
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const float v = values_[static_cast<size_t>(k)];
      const float* x_row = x + col_idx_[static_cast<size_t>(k)] * x_cols;
      for (int64_t c = 0; c < x_cols; ++c) y_row[c] += v * x_row[c];
    }
  }
}

SparseMatrix SparseMatrix::Transpose() const {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(nnz()));
  for (int64_t r = 0; r < rows_; ++r) {
    const auto idx = RowIndices(r);
    const auto vals = RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) {
      triplets.push_back({idx[k], r, vals[k]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(triplets));
}

float SparseMatrix::RowSum(int64_t r) const {
  float s = 0.0f;
  for (float v : RowValues(r)) s += v;
  return s;
}

}  // namespace ba::graph
