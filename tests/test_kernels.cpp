// SELL-C-σ kernel-layer property tests.
//
// The contract under test is *bit*-identity: the SELL layout in both
// chunk classes (generic and node-block), every compiled kernel body,
// the build-time D K D scaling fold, the interior/interface row split
// and the overlapped distributed apply must all reproduce the
// scalar-CSR reference to the last ulp, across the synthetic generator
// family, FE stiffness matrices, and the empty-row / tiny-matrix edge
// cases.  Every comparison below is
// exact double equality on purpose.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"

#include "core/cg.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_kernels.hpp"
#include "core/edd_solver.hpp"
#include "core/kernels.hpp"
#include "exp/experiments.hpp"
#include "fem/families.hpp"
#include "fem/problems.hpp"
#include "sparse/ebe_store.hpp"
#include "sparse/generators.hpp"
#include "sparse/sell.hpp"

namespace pfem {
namespace {

using core::KernelOptions;
using core::RankKernel;
using sparse::CsrMatrix;
using sparse::SellMatrix;

// Deterministic pseudo-random vector with sign changes and a spread of
// magnitudes (splitmix64-driven).
Vector test_vector(std::size_t n, std::uint64_t seed) {
  Vector x(n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
    x[i] = (u - 0.5) * std::pow(10.0, static_cast<double>(i % 7) - 3.0);
  }
  return x;
}

/// Matrix with empty rows (including the first and last), single-entry
/// rows and one dense-ish row — the padding edge cases.
CsrMatrix ragged_matrix() {
  const index_t n = 13;
  std::vector<std::vector<std::pair<index_t, real_t>>> rows(
      static_cast<std::size_t>(n));
  rows[1] = {{0, 2.0}, {1, -1.0}, {5, 0.25}};
  rows[3] = {{3, 4.0}};
  rows[5] = {{0, 1.0}, {2, -2.0}, {4, 3.0}, {6, -4.0}, {8, 5.0},
             {10, -6.0}, {12, 7.0}};
  rows[6] = {{6, 1.5}};
  rows[10] = {{9, -0.5}, {10, 8.0}, {11, -0.5}};
  IndexVector rp(static_cast<std::size_t>(n) + 1, 0);
  IndexVector ci;
  Vector vals;
  for (index_t i = 0; i < n; ++i) {
    for (const auto& [c, v] : rows[static_cast<std::size_t>(i)]) {
      ci.push_back(c);
      vals.push_back(v);
    }
    rp[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(ci.size());
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
}

/// Two rows, one node: a single node-block (0, 1) plus three padding
/// pairs.  Padded blocks must read an in-range x pair — with x sized
/// exactly 2, an over-read shows under ASan.
CsrMatrix node_pair_matrix() {
  return CsrMatrix(2, 2, IndexVector{0, 2, 4}, IndexVector{0, 1, 0, 1},
                   Vector{4.0, -1.5, -0.75, 3.0});
}

/// Table-2 Mesh3 stiffness: interleaved 2-dof rows, so every C = 8 chunk
/// is node-blocked.
CsrMatrix mesh3_stiffness() {
  return fem::make_table2_cantilever(3).stiffness;
}

/// A 2-dof stiffness with the last entry of one row dropped.  That row
/// has odd length, so the chunks around it fall back to the generic
/// class while the rest stay node-blocked.
CsrMatrix odd_row_stiffness() {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const CsrMatrix a = fem::make_cantilever(spec).stiffness;
  const index_t cut = a.rows() / 2;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto av = a.values();
  IndexVector row_ptr(1, 0);
  IndexVector col;
  Vector val;
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t end = rp[i + 1] - (i == cut ? 1 : 0);
    for (index_t k = rp[i]; k < end; ++k) {
      col.push_back(ci[k]);
      val.push_back(av[k]);
    }
    row_ptr.push_back(as_index(col.size()));
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(row_ptr), std::move(col),
                   std::move(val));
}

/// brick3d stiffness: 3 dofs per node, so no chunk is node-blocked.
CsrMatrix brick3d_stiffness() {
  return fem::make_problem(fem::default_spec("brick3d")).prob.stiffness;
}

std::vector<CsrMatrix> matrix_family() {
  std::vector<CsrMatrix> fam;
  fam.push_back(sparse::laplace2d(7, 5));
  fam.push_back(sparse::laplace2d(16, 16));
  fam.push_back(sparse::random_spd(97, 5));
  fam.push_back(sparse::tridiag(33, 4.0, -1.0));
  Vector eig(24);
  for (std::size_t i = 0; i < eig.size(); ++i)
    eig[i] = 0.5 + static_cast<real_t>(i);
  fam.push_back(sparse::diagonal_matrix(eig));
  fam.push_back(sparse::convection_diffusion_2d(9, 11, 8.0, -3.0));
  fam.push_back(ragged_matrix());
  fam.push_back(sparse::tridiag(1, 3.0, 0.0));  // single row
  fam.push_back(sparse::tridiag(3, 3.0, -1.0));  // n < the chunk width
  fam.push_back(sparse::tridiag(8, 3.0, -1.0));  // n == the chunk width
  fam.push_back(node_pair_matrix());
  fam.push_back(mesh3_stiffness());
  fam.push_back(odd_row_stiffness());
  fam.push_back(brick3d_stiffness());
  return fam;
}

TEST(SellSpmv, BitIdenticalToCsrAcrossFamilyAndChunks) {
  for (const CsrMatrix& a : matrix_family()) {
    const std::size_t n = static_cast<std::size_t>(a.rows());
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 17);
    Vector y_ref(n, 0.0), y(n, 0.0);
    a.spmv(x, y_ref);
    const SellMatrix s = SellMatrix::from_csr(a);
    EXPECT_EQ(s.nnz(), a.nnz());
    s.spmv(x, y);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(y[i], y_ref[i]) << "row " << i;
  }
}

TEST(SellSpmv, SpmvAddBitIdenticalToCsr) {
  for (const CsrMatrix& a : matrix_family()) {
    const std::size_t n = static_cast<std::size_t>(a.rows());
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 23);
    Vector y_ref = test_vector(n, 29);
    Vector y = y_ref;
    a.spmv_add(x, y_ref);
    const SellMatrix s = SellMatrix::from_csr(a);
    s.spmv_add(x, y);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y[i], y_ref[i]);
  }
}

TEST(SellSpmv, RoundTripsToCsrExactly) {
  for (const CsrMatrix& a : matrix_family()) {
    const CsrMatrix back = SellMatrix::from_csr(a).to_csr();
    ASSERT_EQ(back.rows(), a.rows());
    ASSERT_EQ(back.cols(), a.cols());
    ASSERT_EQ(back.nnz(), a.nnz());
    const auto rp = a.row_ptr(), rp2 = back.row_ptr();
    const auto ci = a.col_idx(), ci2 = back.col_idx();
    const auto v = a.values(), v2 = back.values();
    for (std::size_t k = 0; k < rp.size(); ++k) ASSERT_EQ(rp2[k], rp[k]);
    for (std::size_t k = 0; k < ci.size(); ++k) ASSERT_EQ(ci2[k], ci[k]);
    for (std::size_t k = 0; k < v.size(); ++k) ASSERT_EQ(v2[k], v[k]);
  }
}

TEST(SellSpmv, RowSubsetBlocksComposeToFullApply) {
  for (const CsrMatrix& a : matrix_family()) {
    const index_t n = a.rows();
    IndexVector even, odd, none;
    for (index_t i = 0; i < n; ++i) ((i % 2 == 0) ? even : odd).push_back(i);
    const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 37);
    Vector y_ref(static_cast<std::size_t>(n), 0.0);
    a.spmv(x, y_ref);

    const SellMatrix se = SellMatrix::from_csr_rows(a, even);
    const SellMatrix so = SellMatrix::from_csr_rows(a, odd);
    const SellMatrix s0 = SellMatrix::from_csr_rows(a, none);
    EXPECT_EQ(se.nnz() + so.nnz(), a.nnz());
    EXPECT_EQ(s0.nnz(), 0);
    Vector y(static_cast<std::size_t>(n), 0.0);
    se.spmv(x, y);
    so.spmv(x, y);
    s0.spmv(x, y);  // no-op on empty subset
    for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], y_ref[i]);

    // Alternating row pairs keep 2-dof nodes whole, so node-block chunks
    // appear in the subsets too.
    IndexVector pairs_a, pairs_b;
    for (index_t i = 0; i < n; ++i)
      ((i / 2 % 2 == 0) ? pairs_a : pairs_b).push_back(i);
    const SellMatrix pa = SellMatrix::from_csr_rows(a, pairs_a);
    const SellMatrix pb = SellMatrix::from_csr_rows(a, pairs_b);
    Vector y2(static_cast<std::size_t>(n), 0.0);
    pa.spmv(x, y2);
    pb.spmv(x, y2);
    for (std::size_t i = 0; i < y2.size(); ++i) ASSERT_EQ(y2[i], y_ref[i]);
  }
}

// ---- Node-block chunks: the class follows the matrix structure, and
// every compiled kernel body agrees with CSR on both classes.

TEST(SellSpmv, NodeBlockClassFollowsMatrixStructure) {
  const SellMatrix pair = SellMatrix::from_csr(node_pair_matrix());
  EXPECT_EQ(pair.num_chunks(), 1);
  EXPECT_EQ(pair.blocked_chunks(), 1);

  const CsrMatrix mesh3 = mesh3_stiffness();
  const SellMatrix full = SellMatrix::from_csr(mesh3);
  EXPECT_GT(full.num_chunks(), 0);
  EXPECT_EQ(full.blocked_chunks(), full.num_chunks());
  // One index per 2×2 block: the stored index array shrinks 4x.
  EXPECT_LT(full.apply_bytes(),
            static_cast<std::size_t>(full.padded_nnz()) * (8 + 4));

  const SellMatrix odd = SellMatrix::from_csr(odd_row_stiffness());
  EXPECT_GT(odd.blocked_chunks(), 0);
  EXPECT_LT(odd.blocked_chunks(), odd.num_chunks());

  EXPECT_EQ(SellMatrix::from_csr(brick3d_stiffness()).blocked_chunks(), 0);
  EXPECT_EQ(SellMatrix::from_csr(sparse::laplace2d(16, 16)).blocked_chunks(),
            0);
}

/// Node-blocked and total chunks over the per-rank SELL halves
/// RankKernel builds: interior = not an interface dof and coupled to no
/// interface column, coupled = the rest.
std::pair<index_t, index_t> rank_half_blocking(
    const partition::EddPartition& part) {
  index_t blocked = 0, chunks = 0;
  for (const auto& sub : part.subs) {
    const CsrMatrix& k = sub.k_loc;
    std::vector<char> iface(static_cast<std::size_t>(k.rows()), 0);
    for (const index_t i : sub.interface_local_dofs) iface[i] = 1;
    IndexVector interior, coupled;
    const auto rp = k.row_ptr();
    const auto ci = k.col_idx();
    for (index_t i = 0; i < k.rows(); ++i) {
      bool inner = iface[i] == 0;
      for (index_t p = rp[i]; inner && p < rp[i + 1]; ++p)
        inner = iface[ci[p]] == 0;
      (inner ? interior : coupled).push_back(i);
    }
    for (const IndexVector* rows : {&coupled, &interior}) {
      const SellMatrix s = SellMatrix::from_csr_rows(k, *rows);
      blocked += s.blocked_chunks();
      chunks += s.num_chunks();
    }
  }
  return {blocked, chunks};
}

TEST(SellSpmv, NodeBlockCoverageOnRankHalves) {
  // Plane elasticity: every chunk of both halves on every rank.
  for (const auto& [mesh, p] : {std::pair{3, 2}, std::pair{10, 4}}) {
    const auto [blocked, chunks] = rank_half_blocking(
        exp::make_edd(fem::make_table2_cantilever(mesh), p));
    EXPECT_GT(chunks, 0);
    EXPECT_EQ(blocked, chunks) << "Mesh" << mesh << " P=" << p;
  }
  fem::ProblemSpec cant = fem::default_spec("cantilever2d");
  cant.nx = 50;
  cant.ny = 50;
  const auto [cant_blocked, cant_chunks] =
      rank_half_blocking(exp::make_edd(fem::make_problem(cant), 4));
  EXPECT_EQ(cant_blocked, cant_chunks);
  // Scalar hetero2d and 3-dof brick3d at the benchmark's svc_churn
  // sizes: none — the generic gather path.  (The class follows the
  // structure, not the family: a subdomain only a few brick elements
  // thick can give neighbouring 3-D nodes identical column sets, and
  // such chunks are node-blocked and still exact.)
  fem::ProblemSpec hetero = fem::default_spec("hetero2d");
  hetero.nx = 60;
  hetero.ny = 60;
  fem::ProblemSpec brick = fem::default_spec("brick3d");
  brick.nx = 24;
  brick.ny = 6;
  brick.nz = 6;
  for (const fem::ProblemSpec& spec : {hetero, brick}) {
    const auto [blocked, chunks] =
        rank_half_blocking(exp::make_edd(fem::make_problem(spec), 4));
    EXPECT_GT(chunks, 0);
    EXPECT_EQ(blocked, 0) << spec.family;
  }
}

TEST(SellSpmv, EveryCompiledBodyBitIdenticalToCsr) {
  using sparse::detail::SellBody;
  int bodies = 0;
  for (const SellBody body :
       {SellBody::Avx512, SellBody::Avx2, SellBody::Portable}) {
    if (!sparse::detail::sell_body_available(body)) {
      std::printf("SELL body %d not available on this CPU: skipped\n",
                  static_cast<int>(body));
      continue;
    }
    ++bodies;
    for (const CsrMatrix& a : matrix_family()) {
      const std::size_t n = static_cast<std::size_t>(a.rows());
      const Vector x = test_vector(static_cast<std::size_t>(a.cols()), 97);
      const SellMatrix s = SellMatrix::from_csr(a);

      Vector y_ref(n, 0.0), y(n, 0.0);
      a.spmv(x, y_ref);
      sparse::detail::sell_apply(s, body, x, y, /*add=*/false);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(y[i], y_ref[i]) << "body " << static_cast<int>(body)
                                  << " row " << i;

      Vector z_ref = test_vector(n, 101);
      Vector z = z_ref;
      a.spmv_add(x, z_ref);
      sparse::detail::sell_apply(s, body, x, z, /*add=*/true);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(z[i], z_ref[i]) << "body " << static_cast<int>(body)
                                  << " row " << i;
    }
  }
  EXPECT_GE(bodies, 1);  // the portable body is always compiled
}

// ---- RankKernel: every assembled format must agree with the
// eager-scaled CSR reference, whole-apply and split-apply alike.

TEST(RankKernelTest, AllConfigsBitIdenticalToScaledCsr) {
  const CsrMatrix k = sparse::laplace2d(11, 9);
  const std::size_t n = static_cast<std::size_t>(k.rows());
  Vector d = k.row_norms1();
  for (std::size_t i = 0; i < n; ++i) d[i] = 1.0 / std::sqrt(d[i]);
  // An arbitrary scattered "interface": every 7th dof.
  IndexVector iface;
  for (index_t i = 0; i < k.rows(); i += 7) iface.push_back(i);

  CsrMatrix scaled = k;
  scaled.scale_symmetric(d);
  const Vector x = test_vector(n, 41);
  Vector y_ref(n, 0.0);
  scaled.spmv(x, y_ref);

  for (const auto format :
       {KernelOptions::Format::Csr, KernelOptions::Format::Sell}) {
    KernelOptions ko;
    ko.format = format;
    const RankKernel a(k, Vector(d), iface, ko);
    Vector y(n, 0.0);
    a.apply(x, y);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y[i], y_ref[i]);
    // The two half-applies must partition the rows: coupled then
    // interior writes every entry exactly once.
    Vector y2(n, -1.0e300);
    a.apply_coupled(x, y2);
    a.apply_interior(x, y2);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y2[i], y_ref[i]);
  }
}

// ---- Distributed: the assembled kernel formats are bit-neutral for
// every solver path, and leave the Table-1 exchange counts alone.

std::vector<KernelOptions> kernel_configs() {
  std::vector<KernelOptions> cfgs;
  for (const auto format :
       {KernelOptions::Format::Csr, KernelOptions::Format::Sell}) {
    KernelOptions ko;
    ko.format = format;
    cfgs.push_back(ko);
  }
  return cfgs;
}

TEST(DistKernels, SolveEddBitNeutralAcrossKernelConfigs) {
  fem::CantileverSpec spec;
  spec.nx = 10;
  spec.ny = 5;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  for (const auto variant :
       {core::EddVariant::Basic, core::EddVariant::Enhanced}) {
    std::vector<core::DistSolve> runs;
    for (const KernelOptions& ko : kernel_configs()) {
      core::SolveOptions opts;
      opts.tol = 1e-8;
      opts.kernels = ko;
      runs.push_back(solve_edd(part, prob.load, poly, opts, variant));
      ASSERT_TRUE(runs.back().converged);
    }
    const core::DistSolve& ref = runs.front();
    for (std::size_t r = 1; r < runs.size(); ++r) {
      EXPECT_EQ(runs[r].iterations, ref.iterations);
      ASSERT_EQ(runs[r].history.size(), ref.history.size());
      for (std::size_t i = 0; i < ref.history.size(); ++i)
        ASSERT_EQ(runs[r].history[i], ref.history[i]) << "iteration " << i;
      ASSERT_EQ(runs[r].x.size(), ref.x.size());
      for (std::size_t i = 0; i < ref.x.size(); ++i)
        ASSERT_EQ(runs[r].x[i], ref.x[i]) << "dof " << i;
      // The format never adds or drops an exchange.
      ASSERT_EQ(runs[r].rank_counters.size(), ref.rank_counters.size());
      for (std::size_t s = 0; s < ref.rank_counters.size(); ++s)
        EXPECT_EQ(runs[r].rank_counters[s].neighbor_exchanges,
                  ref.rank_counters[s].neighbor_exchanges);
    }
  }
}

TEST(DistKernels, SolveEddCgBitNeutralAcrossKernelConfigs) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 3);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<core::DistSolve> runs;
  for (const KernelOptions& ko : kernel_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    runs.push_back(core::solve_edd_cg(part, prob.load, poly, opts));
    ASSERT_TRUE(runs.back().converged);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].history.size(), runs[0].history.size());
    for (std::size_t i = 0; i < runs[0].history.size(); ++i)
      ASSERT_EQ(runs[r].history[i], runs[0].history[i]);
    for (std::size_t i = 0; i < runs[0].x.size(); ++i)
      ASSERT_EQ(runs[r].x[i], runs[0].x[i]);
  }
}

TEST(DistKernels, BatchSolveBitNeutralAcrossKernelConfigs) {
  fem::CantileverSpec spec;
  spec.nx = 9;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const int p = 3;
  const partition::EddPartition part = exp::make_edd(prob, p);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<Vector> rhs;
  rhs.push_back(Vector(prob.load.begin(), prob.load.end()));
  rhs.push_back(test_vector(prob.load.size(), 47));

  par::Team team(p);
  std::vector<core::BatchSolveResult> runs;
  for (const KernelOptions& ko : kernel_configs()) {
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ko;
    const core::EddOperatorState op =
        core::build_edd_operator(team, part, poly, nullptr, nullptr, ko);
    runs.push_back(core::solve_edd_batch(team, part, op, rhs, opts));
    ASSERT_TRUE(runs.back().comm_error.empty());
    for (const auto& item : runs.back().items)
      ASSERT_TRUE(item.converged);
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].x.size(), runs[0].x.size());
    for (std::size_t b = 0; b < runs[0].x.size(); ++b) {
      for (std::size_t i = 0; i < runs[0].x[b].size(); ++i)
        ASSERT_EQ(runs[r].x[b][i], runs[0].x[b][i])
            << "rhs " << b << " dof " << i;
      ASSERT_EQ(runs[r].items[b].history.size(),
                runs[0].items[b].history.size());
      for (std::size_t i = 0; i < runs[0].items[b].history.size(); ++i)
        ASSERT_EQ(runs[r].items[b].history[i],
                  runs[0].items[b].history[i]);
    }
  }
}

// ---- EbeStore: the matrix-free element container under Format::Ebe.
// Bit-identity with assembled CSR cannot hold for a general mesh (the
// element sweep reassociates row sums), so the exact tests use shapes
// where the accumulation order coincides — a single dense element — and
// the distributed tests check the format-neutral invariants instead:
// identical iteration counts, identical exchange counters, ulp-bounded
// solutions.

/// One dense element covering every dof: the EBE sweep's per-row
/// accumulation runs in ascending column order, exactly like the CSR row
/// loop, so apply and scaling must match bit for bit.
sparse::EbeStore dense_single_element(const la::DenseMatrix& ke) {
  IndexVector ids(static_cast<std::size_t>(ke.rows()));
  for (index_t i = 0; i < ke.rows(); ++i)
    ids[static_cast<std::size_t>(i)] = i;
  const auto data = ke.data();
  return sparse::EbeStore(ke.rows(), ke.rows(), std::move(ids),
                          std::vector<real_t>(data.begin(), data.end()));
}

la::DenseMatrix dense_test_matrix(index_t n, std::uint64_t seed) {
  la::DenseMatrix m(n, n);
  const Vector v = test_vector(static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(n),
                               seed);
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c)
      m(r, c) = v[static_cast<std::size_t>(r) * n + c] +
                (r == c ? 10.0 : 0.0);
  return m;
}

CsrMatrix csr_from_dense(const la::DenseMatrix& m) {
  const index_t n = m.rows();
  IndexVector rp(static_cast<std::size_t>(n) + 1, 0);
  IndexVector ci;
  Vector vals;
  for (index_t r = 0; r < n; ++r) {
    for (index_t c = 0; c < n; ++c) {
      ci.push_back(c);
      vals.push_back(m(r, c));
    }
    rp[static_cast<std::size_t>(r) + 1] = as_index(ci.size());
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
}

TEST(EbeStore, SingleDenseElementApplyBitIdenticalToCsr) {
  const index_t n = 12;
  const la::DenseMatrix ke = dense_test_matrix(n, 53);
  const sparse::EbeStore store = dense_single_element(ke);
  const CsrMatrix a = csr_from_dense(ke);
  const Vector x = test_vector(static_cast<std::size_t>(n), 59);
  Vector y_ref(static_cast<std::size_t>(n), 0.0);
  a.spmv(x, y_ref);
  Vector y(static_cast<std::size_t>(n), 0.0);
  store.apply_add(0, store.num_elems(), x, y);
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], y_ref[i]);
}

TEST(EbeStore, ScaleFoldBitIdenticalToCsrScaleSymmetric) {
  const index_t n = 9;
  const la::DenseMatrix ke = dense_test_matrix(n, 61);
  sparse::EbeStore store = dense_single_element(ke);
  CsrMatrix a = csr_from_dense(ke);
  Vector d = a.row_norms1();
  for (auto& v : d) v = 1.0 / std::sqrt(v);
  a.scale_symmetric(d);
  store.scale_symmetric(d);
  const auto ref = a.values();
  const auto got = store.values();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(got[k], ref[k]) << "entry " << k;
}

TEST(EbeStore, ConstructionRejectsMalformedInput) {
  // edofs outside [1, kMaxEbeElemDofs].
  EXPECT_THROW(sparse::EbeStore(4, 0, IndexVector{}, {}), Error);
  EXPECT_THROW(sparse::EbeStore(4, sparse::kMaxEbeElemDofs + 1,
                                IndexVector{}, {}),
               Error);
  // dof_ids not a multiple of edofs.
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, 1, 2}, Vector(4, 0.0)),
               Error);
  // values size mismatch.
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, 1}, Vector(3, 0.0)),
               Error);
  // Out-of-bounds dof id, and an id below the -1 marker.
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, 4}, Vector(4, 0.0)),
               Error);
  EXPECT_THROW(sparse::EbeStore(4, 2, IndexVector{0, -2}, Vector(4, 0.0)),
               Error);
  // Valid: constrained markers and an empty store.
  EXPECT_NO_THROW(sparse::EbeStore(4, 2, IndexVector{-1, 3}, Vector(4, 1.0)));
  EXPECT_NO_THROW(sparse::EbeStore(0, 2, IndexVector{}, {}));
}

TEST(EbeStore, PermutedRejectsNonPermutations) {
  const la::DenseMatrix ke = dense_test_matrix(3, 67);
  const sparse::EbeStore store = dense_single_element(ke);
  const IndexVector dup = {0, 0};
  const IndexVector oob = {1};
  EXPECT_THROW((void)store.permuted(dup), Error);
  EXPECT_THROW((void)store.permuted(oob), Error);
  const IndexVector id_order = {0};
  const sparse::EbeStore same = store.permuted(id_order);
  EXPECT_EQ(same.num_elems(), store.num_elems());
}

// ---- A rank with no interface: every kernel is still [coupled |
// interior], with the coupled block empty, and apply() equals the
// scaled-CSR row loop.  One dense element makes the Ebe sweep's row
// order coincide with CSR's, so all three formats are held to bits.

TEST(RankKernelTest, NoInterfaceMeansEmptyCoupledBlock) {
  const la::DenseMatrix ke = dense_test_matrix(10, 53);
  const sparse::EbeStore elems = dense_single_element(ke);
  const CsrMatrix k = csr_from_dense(ke);
  const std::size_t n = static_cast<std::size_t>(k.rows());
  Vector d = k.row_norms1();
  for (real_t& v : d) v = 1.0 / std::sqrt(v);
  CsrMatrix scaled = k;
  scaled.scale_symmetric(d);
  const Vector x = test_vector(n, 59);
  Vector y_ref(n, 0.0);
  scaled.spmv(x, y_ref);

  for (const auto format : {KernelOptions::Format::Csr,
                            KernelOptions::Format::Sell,
                            KernelOptions::Format::Ebe}) {
    KernelOptions ko;
    ko.format = format;
    const RankKernel a(k, Vector(d), IndexVector{}, ko, &elems);
    // An empty coupled block writes (or, for Ebe, adds) nothing.
    Vector y_c(n, -1.0e300);
    a.apply_coupled(x, y_c);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_c[i], -1.0e300);
    Vector y(n, 0.0);
    a.apply(x, y);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(y[i], y_ref[i]) << "format " << static_cast<int>(format)
                                << " row " << i;
  }
}

// ---- RankKernel Format::Ebe: built from a real partition's element
// store, checked against the scalar-CSR kernel.

struct EbeFixture {
  fem::CantileverProblem prob;
  partition::EddPartition part;
  EbeFixture() : prob(fem::make_cantilever(make_spec())),
                 part(exp::make_edd(prob, 4)) {}
  static fem::CantileverSpec make_spec() {
    fem::CantileverSpec s;
    s.nx = 10;
    s.ny = 5;
    return s;
  }
};

/// Local positive scaling for kernel-level tests (the solver's d is
/// globally exchanged; any positive diagonal exercises the contract).
Vector local_scaling(const CsrMatrix& k) {
  Vector d = k.row_norms1();
  for (auto& v : d) v = v > 0.0 ? 1.0 / std::sqrt(v) : 1.0;
  return d;
}

TEST(RankKernelEbe, HalvesComposeBitwiseToWholeApply) {
  const EbeFixture fx;
  for (const auto& sub : fx.part.subs) {
    ASSERT_NE(sub.elem_store, nullptr);
    const Vector d = local_scaling(sub.k_loc);
    KernelOptions ko;
    ko.format = KernelOptions::Format::Ebe;
    const RankKernel a(sub.k_loc, Vector(d), sub.interface_local_dofs, ko,
                       sub.elem_store.get());
    ASSERT_TRUE(a.additive());
    const std::size_t n = static_cast<std::size_t>(sub.n_local());
    const Vector x = test_vector(n, 71);
    Vector y_whole(n, 0.0), y_split(n, 0.0);
    a.apply(x, y_whole);
    // Elements are stored [coupled | interior], so the Enhanced-order
    // split (coupled first) replays apply()'s scatter-add order exactly.
    la::fill(y_split, 0.0);
    a.apply_coupled(x, y_split);
    a.apply_interior(x, y_split);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_split[i], y_whole[i]);
  }
}

TEST(RankKernelEbe, ApplyMatchesCsrWithinUlpBound) {
  const EbeFixture fx;
  for (const auto& sub : fx.part.subs) {
    const Vector d = local_scaling(sub.k_loc);
    KernelOptions csr;
    csr.format = KernelOptions::Format::Csr;
    const RankKernel ref(sub.k_loc, Vector(d), sub.interface_local_dofs,
                         csr);
    KernelOptions ebe;
    ebe.format = KernelOptions::Format::Ebe;
    const RankKernel a(sub.k_loc, Vector(d), sub.interface_local_dofs, ebe,
                       sub.elem_store.get());
    EXPECT_EQ(a.apply_flops(), sub.elem_store->apply_flops());
    const std::size_t n = static_cast<std::size_t>(sub.n_local());
    const Vector x = test_vector(n, 73);
    Vector y_ref(n, 0.0), y(n, 0.0);
    ref.apply(x, y_ref);
    a.apply(x, y);
    // Reassociation bound: the element sweep and the row loop agree to a
    // few ulps of the row magnitude Σ|v_k x_k| — 1e-13 relative covers
    // the handful of contributing elements per row with a wide margin.
    real_t scale = 1.0;
    for (std::size_t i = 0; i < n; ++i)
      scale = std::max(scale, std::abs(y_ref[i]));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-13 * scale) << "dof " << i;
  }
}

TEST(RankKernelEbe, ApplyManyBitIdenticalToPerLaneApply) {
  const EbeFixture fx;
  const auto& sub = fx.part.subs.front();
  const Vector d = local_scaling(sub.k_loc);
  KernelOptions ko;
  ko.format = KernelOptions::Format::Ebe;
  const RankKernel a(sub.k_loc, Vector(d), sub.interface_local_dofs, ko,
                     sub.elem_store.get());
  const std::size_t n = static_cast<std::size_t>(sub.n_local());
  std::vector<Vector> xs = {test_vector(n, 79), test_vector(n, 83),
                            test_vector(n, 89)};
  std::vector<Vector> ys(xs.size(), Vector(n));
  std::vector<const Vector*> xp;
  std::vector<Vector*> yp;
  for (std::size_t b = 0; b < xs.size(); ++b) {
    xp.push_back(&xs[b]);
    yp.push_back(&ys[b]);
  }
  // The batched Enhanced step's order: both element-major half sweeps
  // run each lane through the identical per-element gather/multiply/
  // scatter order as a standalone apply.
  for (Vector* y : yp) la::fill(*y, 0.0);
  a.apply_coupled_many(xp, yp);
  a.apply_interior_many(xp, yp);
  for (std::size_t b = 0; b < xs.size(); ++b) {
    Vector y_one(n, 0.0);
    a.apply(xs[b], y_one);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(ys[b][i], y_one[i]);
  }
}

TEST(RankKernelEbe, TypedErrorsWithoutElementData) {
  const EbeFixture fx;
  const auto& sub = fx.part.subs.front();
  const Vector d = local_scaling(sub.k_loc);
  KernelOptions ko;
  ko.format = KernelOptions::Format::Ebe;
  // No element store: typed error, not UB.
  EXPECT_THROW(RankKernel(sub.k_loc, Vector(d), sub.interface_local_dofs,
                          ko, nullptr),
               Error);
}

// ---- Distributed Format::Ebe: the format must preserve the solver's
// observable contract — iteration counts, exchange counters, convergence
// — against the Csr reference, and the Enhanced discipline's overlapped
// step must be bit-neutral (its split replays apply()'s order).

KernelOptions ebe_kernel() {
  KernelOptions ko;
  ko.format = KernelOptions::Format::Ebe;
  return ko;
}

TEST(DistKernelsEbe, SolveEddPreservesIterationsAndExchangeCounts) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  for (const auto variant :
       {core::EddVariant::Basic, core::EddVariant::Enhanced}) {
    core::SolveOptions ref_opts;
    ref_opts.tol = 1e-8;
    ref_opts.kernels.format = KernelOptions::Format::Csr;
    const core::DistSolve ref =
        solve_edd(fx.part, fx.prob.load, poly, ref_opts, variant);
    ASSERT_TRUE(ref.converged);

    const real_t xscale = la::nrm_inf(ref.x);
    core::SolveOptions opts;
    opts.tol = 1e-8;
    opts.kernels = ebe_kernel();
    const core::DistSolve run =
        solve_edd(fx.part, fx.prob.load, poly, opts, variant);
    ASSERT_TRUE(run.converged);
    // The format-neutral contract: same iteration trajectory length
    // and the Table-1 exchange counts untouched.
    EXPECT_EQ(run.iterations, ref.iterations);
    EXPECT_EQ(run.history.size(), ref.history.size());
    ASSERT_EQ(run.rank_counters.size(), ref.rank_counters.size());
    for (std::size_t s = 0; s < ref.rank_counters.size(); ++s)
      EXPECT_EQ(run.rank_counters[s].neighbor_exchanges,
                ref.rank_counters[s].neighbor_exchanges)
          << "rank " << s;
    // Solutions agree to the reassociation ulp bound.
    ASSERT_EQ(run.x.size(), ref.x.size());
    for (std::size_t i = 0; i < ref.x.size(); ++i)
      ASSERT_NEAR(run.x[i], ref.x[i], 1e-8 * xscale) << "dof " << i;
  }
}

TEST(DistKernelsEbe, EnhancedOverlapIsBitNeutral) {
  // Enhanced's overlapped step — coupled elements, sends, interior
  // elements while messages fly, folds — must equal apply() followed by
  // a plain exchange bit for bit on every rank: elements are stored
  // [coupled | interior], apply()'s own order.  (Basic's split runs
  // interior first, a different scatter-add order, so it is only
  // ulp-close; the iteration/exchange contract above covers it.)
  const EbeFixture fx;
  std::vector<std::size_t> mismatches(fx.part.subs.size(), 0);
  par::run_spmd(fx.part.nparts(), [&](par::Comm& comm) {
    const auto s = static_cast<std::size_t>(comm.rank());
    const auto& sub = fx.part.subs[s];
    const RankKernel a(sub.k_loc, local_scaling(sub.k_loc),
                       sub.interface_local_dofs, ebe_kernel(),
                       sub.elem_store.get());
    core::detail::EddRank r(sub, comm);
    const std::size_t n = static_cast<std::size_t>(sub.n_local());
    Vector x = test_vector(n, 61 + s);
    Vector y_split(n), y_ref(n);
    Vector* const xs[] = {&x};
    Vector* const ys[] = {&y_split};
    core::detail::spmv_exchange(r, a, xs, ys);
    a.apply(x, y_ref);
    r.exchange(y_ref);
    for (std::size_t i = 0; i < n; ++i)
      mismatches[s] += y_split[i] != y_ref[i] ? 1 : 0;
  });
  for (std::size_t s = 0; s < mismatches.size(); ++s)
    EXPECT_EQ(mismatches[s], 0u) << "rank " << s;
}

TEST(DistKernelsEbe, SolveEddCgPreservesConvergence) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  core::SolveOptions ref_opts;
  ref_opts.tol = 1e-8;
  ref_opts.kernels.format = KernelOptions::Format::Csr;
  const core::DistSolve ref =
      core::solve_edd_cg(fx.part, fx.prob.load, poly, ref_opts);
  ASSERT_TRUE(ref.converged);
  const real_t xscale = la::nrm_inf(ref.x);

  core::SolveOptions opts;
  opts.tol = 1e-8;
  opts.kernels = ebe_kernel();
  const core::DistSolve run =
      core::solve_edd_cg(fx.part, fx.prob.load, poly, opts);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.iterations, ref.iterations);
  for (std::size_t i = 0; i < ref.x.size(); ++i)
    ASSERT_NEAR(run.x[i], ref.x[i], 1e-8 * xscale) << "dof " << i;
}

TEST(DistKernelsEbe, BatchSolvePreservesConvergence) {
  const EbeFixture fx;
  const int p = fx.part.nparts();
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;

  std::vector<Vector> rhs;
  rhs.push_back(Vector(fx.prob.load.begin(), fx.prob.load.end()));
  rhs.push_back(test_vector(fx.prob.load.size(), 97));

  par::Team team(p);
  core::SolveOptions ref_opts;
  ref_opts.tol = 1e-8;
  ref_opts.kernels.format = KernelOptions::Format::Csr;
  const core::EddOperatorState ref_op = core::build_edd_operator(
      team, fx.part, poly, nullptr, nullptr, ref_opts.kernels);
  const core::BatchSolveResult ref =
      core::solve_edd_batch(team, fx.part, ref_op, rhs, ref_opts);
  ASSERT_TRUE(ref.comm_error.empty());

  core::SolveOptions opts;
  opts.tol = 1e-8;
  opts.kernels = ebe_kernel();
  const core::EddOperatorState op = core::build_edd_operator(
      team, fx.part, poly, nullptr, nullptr, opts.kernels);
  const core::BatchSolveResult run =
      core::solve_edd_batch(team, fx.part, op, rhs, opts);
  ASSERT_TRUE(run.comm_error.empty());
  ASSERT_EQ(run.items.size(), ref.items.size());
  for (std::size_t b = 0; b < ref.items.size(); ++b) {
    ASSERT_TRUE(run.items[b].converged);
    EXPECT_EQ(run.items[b].iterations, ref.items[b].iterations)
        << "rhs " << b;
    real_t xscale = 1.0;
    for (const real_t v : ref.x[b]) xscale = std::max(xscale, std::abs(v));
    for (std::size_t i = 0; i < ref.x[b].size(); ++i)
      ASSERT_NEAR(run.x[b][i], ref.x[b][i], 1e-8 * xscale)
          << "rhs " << b << " dof " << i;
  }
}

TEST(DistKernelsEbe, LocalMatrixOverrideIsRejected) {
  const EbeFixture fx;
  core::PolySpec poly;
  poly.kind = core::PolyKind::None;
  core::SolveOptions opts;
  opts.kernels.format = KernelOptions::Format::Ebe;
  std::vector<CsrMatrix> override_mats;
  for (const auto& sub : fx.part.subs) override_mats.push_back(sub.k_loc);
  EXPECT_THROW((void)solve_edd(fx.part, fx.prob.load, poly, opts,
                               core::EddVariant::Enhanced, &override_mats),
               Error);
  EXPECT_THROW((void)core::solve_edd_cg(fx.part, fx.prob.load, poly, opts,
                                        &override_mats),
               Error);
  par::Team team(fx.part.nparts());
  EXPECT_THROW((void)core::build_edd_operator(team, fx.part, poly,
                                              &override_mats, nullptr,
                                              opts.kernels),
               Error);
}

// ---- Acceptance (ISSUE 9): Format::Ebe solves the paper's Table-2
// meshes through both EDD disciplines with iteration counts and
// per-rank exchange counts identical to Format::Csr.

TEST(DistKernelsEbe, Table2MeshesMatchCsrIterationForIteration) {
  for (const int mesh_number : {1, 2}) {
    const fem::CantileverProblem prob =
        fem::make_table2_cantilever(mesh_number);
    const int p = mesh_number == 1 ? 2 : 4;
    const partition::EddPartition part = exp::make_edd(prob, p);
    core::PolySpec poly;
    poly.kind = core::PolyKind::Gls;
    poly.degree = 3;

    for (const auto variant :
         {core::EddVariant::Basic, core::EddVariant::Enhanced}) {
      core::SolveOptions copts;
      copts.tol = 1e-8;
      copts.kernels.format = KernelOptions::Format::Csr;
      const core::DistSolve csr =
          solve_edd(part, prob.load, poly, copts, variant);
      ASSERT_TRUE(csr.converged);

      core::SolveOptions eopts;
      eopts.tol = 1e-8;
      eopts.kernels.format = KernelOptions::Format::Ebe;
      const core::DistSolve ebe =
          solve_edd(part, prob.load, poly, eopts, variant);
      ASSERT_TRUE(ebe.converged);

      EXPECT_EQ(ebe.iterations, csr.iterations)
          << "Mesh" << mesh_number << " variant "
          << (variant == core::EddVariant::Basic ? "Basic" : "Enhanced");
      EXPECT_EQ(ebe.restarts, csr.restarts);
      ASSERT_EQ(ebe.rank_counters.size(), csr.rank_counters.size());
      for (std::size_t s = 0; s < csr.rank_counters.size(); ++s)
        EXPECT_EQ(ebe.rank_counters[s].neighbor_exchanges,
                  csr.rank_counters[s].neighbor_exchanges)
            << "rank " << s;
    }
  }
}

// ---- Regression (satellite bugfix): a right-hand side small enough
// that Arnoldi/CG inner products underflow into the sqrt_nonneg clamp
// region must terminate cleanly (converged, finite solution), never
// divide by a clamped-to-zero norm.

TEST(ArnoldiUnderflow, TinyRhsTerminatesCleanlyAndConverges) {
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 3);
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 3;
  core::SolveOptions opts;
  opts.tol = 1e-6;

  // Reference at normal scale.
  const core::DistSolve ref = solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(ref.converged);

  // ~1e-160 scaling: residual norms sit near 1e-160, so every squared
  // inner product (~1e-320) is subnormal and the clamp is live.
  const real_t scale = 1e-160;
  Vector f_tiny(prob.load.size());
  for (std::size_t i = 0; i < f_tiny.size(); ++i)
    f_tiny[i] = scale * prob.load[i];

  const core::DistSolve tiny = solve_edd(part, f_tiny, poly, opts);
  ASSERT_TRUE(tiny.converged);
  const real_t xref = la::nrm_inf(ref.x);
  for (std::size_t i = 0; i < tiny.x.size(); ++i) {
    ASSERT_TRUE(std::isfinite(tiny.x[i]));
    // The solve is not exactly scale-equivariant in the subnormal range
    // (squared inner products lose bits there), but the solution must
    // still track the scaled reference to a few digits.
    ASSERT_NEAR(tiny.x[i], scale * ref.x[i], 1e-2 * scale * xref);
  }

  // CG's rho quotients keep fewer bits than Arnoldi norms, so probe it a
  // little above the FGMRES scale — squared inner products (~1e-310) are
  // still subnormal, which is the clamp region under test.
  Vector f_cg(prob.load.size());
  for (std::size_t i = 0; i < f_cg.size(); ++i)
    f_cg[i] = 1e-155 * prob.load[i];
  const core::DistSolve cg = core::solve_edd_cg(part, f_cg, poly, opts);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < cg.x.size(); ++i)
    ASSERT_TRUE(std::isfinite(cg.x[i]));
}

TEST(ArnoldiUnderflow, InvalidSolveOptionsAreRejected) {
  fem::CantileverSpec spec;
  spec.nx = 4;
  spec.ny = 2;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 2);
  core::PolySpec poly;
  poly.kind = core::PolyKind::None;
  core::SolveOptions bad;
  bad.tol = 0.0;  // would defeat every convergence guard
  EXPECT_THROW((void)solve_edd(part, prob.load, poly, bad), Error);
  bad.tol = 1e-6;
  bad.restart = 0;
  EXPECT_THROW((void)solve_edd(part, prob.load, poly, bad), Error);
}

}  // namespace
}  // namespace pfem
