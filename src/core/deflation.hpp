// Two-level subdomain deflation for the EDD solvers.
//
// The polynomial preconditioners (Neumann/GLS/Chebyshev) act on the
// scaled operator Â with a fixed spectral window, so their quality — and
// with it the EDD-FGMRES iteration count — degrades as weak scaling
// grows the mesh with the subdomain count P.  The classical cure
// (AMGCL's subdomain deflation, SNIPPETS.md §1) is a coarse space with a
// handful of vectors per subdomain: the coarse operator E = ZᵀÂZ is tiny
// (~P·q × P·q), and a coarse-grid correction
//
//   Q v = Z E⁻¹ Zᵀ v,          B v = M (v − Â Q v) + Q v
//
// wrapped around the existing local preconditioner M ("A-DEF1" in the
// Tang/Nabben/Vuik/Erlangga taxonomy) removes the global low-frequency
// modes the polynomial cannot reach.  E is assembled once at setup from
// the sub-assembled local matrices (one allreduce of the dense E buffer)
// and LU-factorized redundantly — every rank holds the same bits, so the
// per-application coarse solve needs no broadcast: the only traffic is
// the ONE small allreduce that globalizes the coarse residual Zᵀv, plus
// the one extra mat-vec ÂZy (whose globalization rides the discipline's
// existing exchange pattern).  Each coarse solve bumps the
// PerfCounters::coarse_solves counter and stamps a "coarse_correct" span
// so pfem_trace --counters can cross-check the two pipelines rank by
// rank, exactly as it does for exchanges.
//
// Coarse space: each dof belongs to the patch of the LOWEST rank sharing
// it, and each (patch, component) pair carries up to 1 + dim columns —
// the indicator and its products with the node coordinates x, y(, z).
// Per-subdomain constants alone capture elasticity's smooth low modes
// (bending, rotation) too poorly to flatten weak scaling: the energy of
// a piecewise-constant approximation is dominated by its inter-patch
// jumps.  Adding the coordinate-linear columns lets the Galerkin
// minimizer assemble continuous piecewise-linear approximants, which is
// what actually bounds the deflated iteration growth (measured ≈1.3x
// from P=2 to P=8 where constants alone give ≈3x).
//
// Weighting: the solvers deflate the SCALED operator Â = D̂K̂D̂, whose
// near-null space is D̂⁻¹·(the near-null space of K), not the smooth
// vectors themselves — plain indicator columns aim at the wrong modes
// and can even slow convergence.  Z's entries at local dof l are
// therefore w_l·φ(x_node(l)) with the per-dof weight w_l = 1/d_l, so
// span(Z) = D̂⁻¹·span(φ's).
//
// Every ingredient of a dof's columns — owning rank (all sharers agree
// on the minimum), component (g mod components), coordinates (global
// table), weight (1/d̂, globally consistent) — is a pure function of the
// global dof id, so Zy is globally consistent across ranks with NO
// exchange: the property the whole traffic story rests on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "la/dense.hpp"
#include "partition/edd.hpp"
#include "sparse/csr.hpp"

namespace pfem::core {

/// Deflation knobs, wired through SolveOptions (one-shot solves) and
/// ServiceConfig/build_edd_operator (warm batch path).  Mirrors the
/// KernelOptions pattern: plain data, defaults preserve today's
/// behavior.
struct DeflationOptions {
  /// Master switch.  Off by default (paper-faithful single-level
  /// preconditioning).
  bool enabled = false;

  /// q: coarse vectors per subdomain.  Each (subdomain, component) pair
  /// gets nbasis = clamp(q / components, 1, 1 + coord_dim) columns: the
  /// patch indicator, then its products with x, y(, z).  q = components
  /// is the classical one-constant-per-component space; the default
  /// (with 2-D coordinates supplied) enables the full {1, x, y} linear
  /// enrichment that flat weak scaling requires.
  int vectors_per_subdomain = 6;

  /// Dofs per node of the discretization (2 for 2-D elasticity, 3 for
  /// 3-D), used to keep displacement components in separate coarse
  /// vectors; 1 is the scalar-safe choice.
  int components = 2;

  /// Node coordinates per GLOBAL free dof, flattened
  /// [g * coord_dim + k]; both dofs of a node repeat its coordinates
  /// (fem::free_dof_coords builds this from a mesh + dofmap).  Empty =>
  /// no coordinate enrichment, patch constants only.
  std::vector<real_t> dof_coords;

  /// Spatial dimension of dof_coords (0 when none supplied).
  int coord_dim = 0;

  /// Jump-aware partition-of-unity variant (AMGCL-style coefficient
  /// splitting): every subdomain patch is split into TWO coefficient
  /// classes — dofs below / at-or-above the global pivot, the geometric
  /// mean of the coefficient range — and each class gets its own coarse
  /// columns.  With a strong jump the scaled operator's near-null space
  /// is no longer smooth ACROSS the jump; per-class columns let the
  /// Galerkin minimizer approximate each coefficient region separately,
  /// which is what keeps the deflated iteration count near the
  /// homogeneous one (bench/hetero_scaling's gate).  ncoarse doubles to
  /// P·2·nbasis·components; a subdomain lacking one class just yields
  /// structurally empty E rows, which CoarseOperator regularizes.
  bool jump_aware = false;

  /// Per-GLOBAL-free-dof coefficient magnitude [g] (all entries > 0),
  /// required when jump_aware (fem problem families fill it from the
  /// per-element coefficients).  Like dof_coords it is a globally
  /// replicated pure function of the global dof id, so the class
  /// assignment needs no communication.  Ignored when !jump_aware.
  std::vector<real_t> dof_coeff;
};

/// Validate deflation options against the operator's dof layout at
/// BUILD time.  Throws pfem::BadOperatorError (not a generic check
/// failure) on any mismatch — coord table of the wrong length for
/// n_global·coord_dim (e.g. 2-D coords on a 3-D brick), components that
/// do not divide n_global (diffusion's 1 vs elasticity's 2–3), or a
/// missing/degenerate coefficient table with jump_aware — so the
/// service surfaces a typed Failed{BadOperator} instead of silently
/// building a wrong coarse space.  No-op when !opts.enabled.
void validate_deflation(const DeflationOptions& opts, index_t n_global);

/// The replicated coarse operator: E = ZᵀÂZ, LU-factorized once per
/// rank from allreduced — hence bit-identical — E entries.  solve() is
/// const and allocation-free, so a built operator shares one instance
/// read-only among all its ranks.
class CoarseOperator {
 public:
  /// Takes the fully assembled (allreduced) E.  Structurally empty rows
  /// — a subdomain owning no dof of some component — are regularized to
  /// identity so the factorization stays well-posed; the matching coarse
  /// residual entries are exactly zero, so the regularization never
  /// perturbs the correction.
  explicit CoarseOperator(la::DenseMatrix e);

  [[nodiscard]] index_t n() const noexcept { return lu_.n(); }

  /// c <- E⁻¹ c.
  void solve(std::span<real_t> c) const { lu_.solve(c); }

  /// Flops of one coarse solve, for PerfCounters accounting.
  [[nodiscard]] std::uint64_t solve_flops() const noexcept {
    return lu_.solve_flops();
  }

 private:
  la::LuFactorization lu_;
};

/// Per-rank view of the coarse space: every local dof belongs to nbasis
/// columns of Z (one per basis function), so restriction/prolongation
/// are short gather/scatter loops and E assembly is one sweep over the
/// local nnz.
class DeflationRank {
 public:
  /// @param rank     this subdomain's rank id (owner patches are keyed
  ///        by the minimum sharing rank, so each rank must know its own).
  /// @param nparts   the partition's P, sizing ncoarse = P·nbasis·comps.
  /// @param dof_weights Z's weight per local dof — pass 1/d̂ so the
  ///        coarse space matches the scaled operator (copied; must be
  ///        globally consistent across sharing ranks, as d̂ is).
  DeflationRank(const partition::EddSubdomain& sub, int rank, int nparts,
                const DeflationOptions& opts,
                std::span<const real_t> dof_weights);

  /// Total coarse dimension P·nclasses·nbasis·components.
  [[nodiscard]] index_t ncoarse() const noexcept { return ncoarse_; }

  /// Basis functions per (patch, component) pair actually in use
  /// (1 without coordinates, up to 1 + coord_dim with them).
  [[nodiscard]] int nbasis() const noexcept { return nbasis_; }

  /// Coefficient classes per patch: 2 with jump_aware, else 1.
  [[nodiscard]] int nclasses() const noexcept { return nclasses_; }

  /// e += ZᵀÂ_loc Z for this rank's sub-assembled K̂_loc and scaling d
  /// (Â = D̂K̂D̂ applied on the fly); allreducing e over ranks yields E
  /// by the local-format sum identity Â = Σ_s B_sᵀ Â_loc B_s.
  void accumulate_e(const sparse::CsrMatrix& k, std::span<const real_t> d,
                    la::DenseMatrix& e) const;

  /// c += partial of Zᵀv, v in LOCAL distributed format (partial sums;
  /// allreduce completes the restriction).
  void restrict_local(std::span<const real_t> v_loc,
                      std::span<real_t> c) const;

  /// c += partial of Zᵀv, v in GLOBAL format (1/mult weighting counts
  /// every global dof once; allreduce completes the restriction).
  void restrict_global(std::span<const real_t> v_glob,
                       std::span<real_t> c) const;

  /// z <- Zy in GLOBAL format — consistent across sharing ranks without
  /// any exchange, because every column ingredient is a function of the
  /// global dof id alone.
  void prolong_global(std::span<const real_t> y, std::span<real_t> z) const;

  /// z <- Zy in LOCAL distributed format (entries divided by
  /// multiplicity so the cross-rank sum reproduces Zy).
  void prolong_local(std::span<const real_t> y, std::span<real_t> z) const;

 private:
  const partition::EddSubdomain* sub_;
  index_t ncoarse_ = 0;
  int nbasis_ = 1;
  int nclasses_ = 1;
  index_t comps_ = 1;
  IndexVector col0_;  ///< dof -> first column:
                      ///< (owner·nclasses + class)·nbasis·c + comp
  Vector val_;        ///< dof-major [l·nbasis + b]: w_l · φ_b(node(l))
};

}  // namespace pfem::core
