// Unit tests for the sparse matrix substrate: COO assembly, CSR kernels,
// generators, and MatrixMarket I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/vector_ops.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ebe_store.hpp"
#include "sparse/generators.hpp"
#include "sparse/io.hpp"

namespace pfem::sparse {
namespace {

CsrMatrix small_matrix() {
  // [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
  return tridiag(3, 2.0, -1.0);
}

TEST(Coo, DuplicatesAreSummed) {
  CooBuilder coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 0, -1.0);
  coo.add(0, 1, 4.0);
  const CsrMatrix a = coo.build();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

/// Values whose sum depends on the order they are added in.
constexpr real_t kOrderSensitive[] = {1e16, 1.0, -1e16, 3.0, 0.5, -2.0};

/// Count of values that differ in their bits (so -0.0 != 0.0 and a NaN
/// equals itself).
std::size_t bit_mismatches(std::span<const real_t> a,
                           std::span<const real_t> b) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k]))
      ++n;
  return n;
}

TEST(Coo, DuplicatesSumInInsertionOrder) {
  // 200 shuffled triplets into an 8x8 matrix, many duplicates per entry,
  // values chosen so the sum depends on its order.  The CSR value of
  // each entry must be the sum from 0.0 in insertion order, bit for bit.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<index_t, index_t>> ij;
    for (int k = 0; k < 200; ++k)
      ij.emplace_back(rng.uniform_index(0, 7), rng.uniform_index(0, 7));
    std::shuffle(ij.begin(), ij.end(), rng.engine());
    CooBuilder coo(8, 8);
    std::map<std::pair<index_t, index_t>, real_t> want;
    for (std::size_t k = 0; k < ij.size(); ++k) {
      const real_t v = kOrderSensitive[rng.uniform_index(0, 5)];
      coo.add(ij[k].first, ij[k].second, v);
      want.try_emplace(ij[k], 0.0).first->second += v;
    }
    const CsrMatrix a = coo.build();
    ASSERT_EQ(a.nnz(), as_index(want.size())) << "seed " << seed;
    Vector expected;
    for (const auto& [rc, v] : want) {
      ASSERT_TRUE(std::ranges::binary_search(a.row_cols(rc.first),
                                             rc.second));
      expected.push_back(v);
    }
    // map order is row-major (row, col) — the CSR storage order.
    EXPECT_EQ(bit_mismatches(a.values(), expected), 0u) << "seed " << seed;
  }
}

TEST(EbeStore, ToCsrMatchesCooBuilderInElementOrderBitwise) {
  // One duplicate rule for both assembly paths: a store's to_csr() is the
  // CSR CooBuilder builds from the same blocks fed element by element
  // (row slot, then column slot) — pattern and every bit of every value.
  // Random stores repeat ids inside an element, mark slots constrained
  // (-1), and leave some rows untouched.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const index_t n = rng.uniform_index(0, 12);
    const index_t edofs = rng.uniform_index(1, 8);
    const index_t ne = rng.uniform_index(0, 20);
    IndexVector ids;
    std::vector<real_t> vals;
    for (index_t k = 0; k < ne * edofs; ++k)
      ids.push_back(n == 0 || rng.uniform_index(0, 4) == 0
                        ? index_t{-1}
                        : rng.uniform_index(0, n - 1));
    for (index_t k = 0; k < ne * edofs * edofs; ++k)
      vals.push_back(kOrderSensitive[rng.uniform_index(0, 5)] *
                     rng.uniform(0.5, 2.0));
    CooBuilder coo(n, n);
    const auto ed = static_cast<std::size_t>(edofs);
    for (std::size_t e = 0; e < static_cast<std::size_t>(ne); ++e)
      for (std::size_t r = 0; r < ed; ++r)
        for (std::size_t c = 0; c < ed; ++c)
          if (ids[e * ed + r] >= 0 && ids[e * ed + c] >= 0)
            coo.add(ids[e * ed + r], ids[e * ed + c],
                    vals[(e * ed + r) * ed + c]);
    const CsrMatrix want = coo.build();
    const CsrMatrix got = EbeStore(n, edofs, ids, vals).to_csr();
    ASSERT_EQ(got.rows(), n);
    ASSERT_EQ(got.cols(), n);
    ASSERT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()))
        << "seed " << seed;
    ASSERT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()))
        << "seed " << seed;
    EXPECT_EQ(bit_mismatches(got.values(), want.values()), 0u)
        << "seed " << seed;
  }
}

TEST(Coo, EmptyBuildsEmptyCsr) {
  CooBuilder coo(3, 3);
  const CsrMatrix a = coo.build();
  EXPECT_EQ(a.nnz(), 0);
  Vector x(3, 1.0), y(3, -1.0);
  a.spmv(x, y);
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Csr, SpmvMatchesManual) {
  const CsrMatrix a = small_matrix();
  Vector x{1.0, 2.0, 3.0}, y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Csr, SpmvAddAccumulates) {
  const CsrMatrix a = small_matrix();
  Vector x{1.0, 1.0, 1.0}, y{10.0, 10.0, 10.0};
  a.spmv_add(x, y, 2.0);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
}

TEST(Csr, DiagonalAndRowNorms) {
  const CsrMatrix a = small_matrix();
  const Vector d = a.diagonal();
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  const Vector n1 = a.row_norms1();
  EXPECT_DOUBLE_EQ(n1[0], 3.0);
  EXPECT_DOUBLE_EQ(n1[1], 4.0);
}

TEST(Csr, SymmetricScaling) {
  CsrMatrix a = small_matrix();
  Vector d{1.0, 2.0, 3.0};
  a.scale_symmetric(d);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -2.0);   // 1*2*(-1)
  EXPECT_DOUBLE_EQ(a.at(1, 1), 8.0);    // 2*2*2
  EXPECT_DOUBLE_EQ(a.at(2, 1), -6.0);   // 3*2*(-1)
}

TEST(Csr, TransposeRoundTrip) {
  const CsrMatrix a = random_spd(30, 4, 0.1, 3);
  const CsrMatrix att = a.transposed().transposed();
  EXPECT_EQ(att.nnz(), a.nnz());
  Vector x(30), y1(30), y2(30);
  for (std::size_t i = 0; i < 30; ++i) x[i] = std::sin(1.0 + double(i));
  a.spmv(x, y1);
  att.spmv(x, y2);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Csr, SymmetryDefect) {
  EXPECT_DOUBLE_EQ(small_matrix().symmetry_defect(), 0.0);
  CooBuilder coo(2, 2);
  coo.add(0, 1, 1.0);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  EXPECT_DOUBLE_EQ(coo.build().symmetry_defect(), 1.0);
}

TEST(Csr, AddSamePattern) {
  CsrMatrix a = small_matrix();
  const CsrMatrix b = small_matrix();
  a.add_same_pattern(b, 0.5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.5);
}

TEST(Csr, AddSamePatternRejectsMismatch) {
  CsrMatrix a = small_matrix();
  const CsrMatrix b = csr_identity(3);  // different pattern, same size
  EXPECT_THROW(a.add_same_pattern(b, 1.0), Error);
}

TEST(Csr, ExtractSquareKeepsSubBlock) {
  const CsrMatrix a = laplace2d(3, 3);
  const IndexVector keep{0, 1, 3, 4};
  const CsrMatrix sub = a.extract_square(keep);
  EXPECT_EQ(sub.rows(), 4);
  // a(0,1) = -1 -> sub(0,1); a(1,2) dropped (col 2 not kept).
  EXPECT_DOUBLE_EQ(sub.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 2), 0.0);   // was a(1,3)=0
  EXPECT_DOUBLE_EQ(sub.at(2, 3), -1.0);  // a(3,4) = -1
}

TEST(Csr, AtOutsidePatternIsZero) {
  const CsrMatrix a = small_matrix();
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
}

TEST(Csr, Identity) {
  const CsrMatrix i5 = csr_identity(5);
  EXPECT_EQ(i5.nnz(), 5);
  Vector x{1, 2, 3, 4, 5}, y(5);
  i5.spmv(x, y);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_DOUBLE_EQ(y[k], x[k]);
}

TEST(Generators, TridiagEigenvalues) {
  // Eigenvalues of tridiag(n, d, o) are d + 2o*cos(k*pi/(n+1)).
  const index_t n = 20;
  const CsrMatrix a = tridiag(n, 2.0, -1.0);
  // Largest eigenvalue ~ 2 + 2*cos(pi/(n+1)).
  const double lmax_expected =
      2.0 + 2.0 * std::cos(M_PI / static_cast<double>(n + 1));
  // Rayleigh-quotient check via the known eigenvector sin(k*pi*j/(n+1)).
  Vector v(static_cast<std::size_t>(n)), av(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    v[j] = std::sin(M_PI * static_cast<double>(j + 1) /
                    static_cast<double>(n + 1));
  a.spmv(v, av);
  const double rq = la::dot(v, av) / la::dot(v, v);
  EXPECT_NEAR(rq, 4.0 - lmax_expected, 1e-12);  // smallest eig for k=1
}

TEST(Generators, Laplace2dStructure) {
  const CsrMatrix a = laplace2d(4, 3);
  EXPECT_EQ(a.rows(), 12);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 4), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(a.symmetry_defect(), 0.0);
}

TEST(Generators, RandomSpdIsSymmetricDiagDominant) {
  const CsrMatrix a = random_spd(50, 5, 0.2, 11);
  EXPECT_DOUBLE_EQ(a.symmetry_defect(), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    double offsum = 0.0, diag = 0.0;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i)
        diag = vals[k];
      else
        offsum += std::abs(vals[k]);
    }
    EXPECT_GE(diag, offsum + 0.19);
  }
}

TEST(Generators, DiagonalMatrix) {
  const CsrMatrix a = diagonal_matrix({0.5, -2.0, 7.0});
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -2.0);
}

TEST(Io, RoundTripGeneral) {
  const CsrMatrix a = random_spd(15, 3, 0.1, 5);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const CsrMatrix b = read_matrix_market(ss);
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.nnz(), b.nnz());
  Vector x(15), y1(15), y2(15);
  for (std::size_t i = 0; i < 15; ++i) x[i] = std::cos(double(i));
  a.spmv(x, y1);
  b.spmv(x, y2);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-15);
}

TEST(Io, ReadsSymmetricStorage) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "2 2 2\n"
     << "1 1 3.0\n"
     << "2 1 -1.5\n";
  const CsrMatrix a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.5);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.5);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a matrix\n1 1 1\n";
  EXPECT_THROW((void)read_matrix_market(ss), Error);
}

TEST(Io, RejectsOutOfRangeIndices) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "2 2 1\n"
     << "3 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(ss), Error);
}

}  // namespace
}  // namespace pfem::sparse
