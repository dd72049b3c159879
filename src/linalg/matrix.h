// Dense row-major double matrix with the BLAS-2/3 kernels FASEA needs:
// mat-vec, mat-mat, transpose, symmetric rank-1 update, quadratic forms.
// Storage is 64-byte aligned (aligned.h) for the SIMD kernels in
// kernels.h; batched/blocked variants of the hot-path kernels live there.
#ifndef FASEA_LINALG_MATRIX_H_
#define FASEA_LINALG_MATRIX_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "linalg/aligned.h"
#include "linalg/vector.h"

namespace fasea {

class Matrix {
 public:
  Matrix() = default;
  /// Zero matrix of shape rows x cols.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// n x n identity scaled by `diag`.
  static Matrix ScaledIdentity(std::size_t n, double diag);
  static Matrix Identity(std::size_t n) { return ScaledIdentity(n, 1.0); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    FASEA_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    FASEA_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Mutable / const view of row i (contiguous storage).
  std::span<double> Row(std::size_t i) {
    FASEA_DCHECK(i < rows_);
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> Row(std::size_t i) const {
    FASEA_DCHECK(i < rows_);
    return {data_.data() + i * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double value);

  /// this += alpha * x xᵀ (x must have size == rows == cols and must not
  /// alias this matrix). Runs the active SIMD tier's kernel
  /// (kernel_table.h); every element rounds as (alpha·x_i)·x_j added once.
  void AddOuter(double alpha, std::span<const double> x);

  /// this += alpha * other (same shape).
  void AddScaled(double alpha, const Matrix& other);

  /// y = this * x, four rows at a time through GemvRows (kernels.h); each
  /// row sums in sequential j-order, as Dot() does.
  Vector MatVec(const Vector& x) const;
  void MatVec(std::span<const double> x, std::span<double> y) const;

  /// y = thisᵀ * x.
  Vector TransposeMatVec(const Vector& x) const;

  /// Quadratic form xᵀ * this * x (this must be square).
  double QuadraticForm(std::span<const double> x) const;

  Matrix Transposed() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max |a_ij - b_ij| against another matrix of the same shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// Heap bytes owned by this matrix.
  std::size_t MemoryBytes() const { return data_.capacity() * sizeof(double); }

  std::string ToString(int digits = 6) const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, AlignedAllocator<double>> data_;
};

/// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);

}  // namespace fasea

#endif  // FASEA_LINALG_MATRIX_H_
