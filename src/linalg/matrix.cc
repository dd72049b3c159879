#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "linalg/kernel_table.h"
#include "linalg/kernels.h"

namespace fasea {

Matrix Matrix::ScaledIdentity(std::size_t n, double diag) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = diag;
  return m;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::AddOuter(double alpha, std::span<const double> x) {
  FASEA_CHECK(rows_ == cols_ && x.size() == rows_);
  ActiveKernels().add_outer(alpha, x.data(), rows_, data_.data());
}

void Matrix::AddScaled(double alpha, const Matrix& other) {
  FASEA_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Matrix::MatVec(std::span<const double> x, std::span<double> y) const {
  GemvRows(*this, x, y);
}

Vector Matrix::MatVec(const Vector& x) const {
  Vector y(rows_);
  MatVec(x.span(), y.span());
  return y;
}

Vector Matrix::TransposeMatVec(const Vector& x) const {
  FASEA_CHECK(x.size() == rows_);
  Vector y(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = data_.data() + i * cols_;
    const double xi = x[i];
    for (std::size_t j = 0; j < cols_; ++j) y[j] += xi * row[j];
  }
  return y;
}

double Matrix::QuadraticForm(std::span<const double> x) const {
  FASEA_CHECK(rows_ == cols_ && x.size() == rows_);
  double total = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = data_.data() + i * cols_;
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += row[j] * x[j];
    total += x[i] * sum;
  }
  return total;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  FASEA_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double max = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    max = std::max(max, std::fabs(data_[i] - other.data_[i]));
  }
  return max;
}

std::string Matrix::ToString(int digits) const {
  std::string out = "[";
  for (std::size_t i = 0; i < rows_; ++i) {
    if (i != 0) out += ",\n ";
    out += "[";
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j != 0) out += ", ";
      out += FormatDouble((*this)(i, j), digits);
    }
    out += "]";
  }
  out += "]";
  return out;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  FASEA_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop contiguous in both B and C.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      double* crow = c.data() + i * c.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

}  // namespace fasea
