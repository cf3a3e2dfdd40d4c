#include "core/kernels.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace pfem::core {

namespace detail {

void CsrRowsBlock::spmv(std::span<const real_t> x,
                        std::span<real_t> y) const {
  const auto nr = static_cast<index_t>(rows.size());
  for (index_t i = 0; i < nr; ++i) {
    real_t s = 0.0;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      s += val[k] * x[col[k]];
    }
    y[rows[i]] = s;
  }
}

namespace {

CsrRowsBlock make_block(const sparse::CsrMatrix& a,
                        std::span<const index_t> keep) {
  CsrRowsBlock b;
  b.rows.assign(keep.begin(), keep.end());
  b.row_ptr.assign(keep.size() + 1, index_t{0});
  const auto rp = a.row_ptr();
  for (std::size_t i = 0; i < keep.size(); ++i) {
    b.row_ptr[i + 1] = b.row_ptr[i] + (rp[keep[i] + 1] - rp[keep[i]]);
  }
  b.col.resize(static_cast<std::size_t>(b.row_ptr.back()));
  b.val.resize(static_cast<std::size_t>(b.row_ptr.back()));
  const auto ci = a.col_idx();
  const auto av = a.values();
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const index_t n = rp[keep[i] + 1] - rp[keep[i]];
    for (index_t j = 0; j < n; ++j) {
      b.col[b.row_ptr[i] + j] = ci[rp[keep[i]] + j];
      b.val[b.row_ptr[i] + j] = av[rp[keep[i]] + j];
    }
  }
  return b;
}

// interior = not an interface dof and coupled to no interface column;
// everything else is "coupled" and must wait for / feed the exchange.
void classify_rows(const sparse::CsrMatrix& a,
                   std::span<const index_t> interface_dofs,
                   IndexVector& interior, IndexVector& coupled) {
  std::vector<char> iface(static_cast<std::size_t>(a.rows()), 0);
  for (const index_t i : interface_dofs) iface[i] = 1;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (index_t i = 0; i < a.rows(); ++i) {
    bool is_interior = iface[i] == 0;
    for (index_t k = rp[i]; is_interior && k < rp[i + 1]; ++k) {
      if (iface[ci[k]] != 0) is_interior = false;
    }
    (is_interior ? interior : coupled).push_back(i);
  }
}

}  // namespace
}  // namespace detail

RankKernel::RankKernel(const sparse::CsrMatrix& k, Vector d,
                       std::span<const index_t> interface_dofs,
                       const KernelOptions& opts,
                       const sparse::EbeStore* elems)
    : opts_(opts), n_(k.rows()), nnz_(static_cast<std::uint64_t>(k.nnz())) {
  PFEM_CHECK(k.rows() == k.cols());
  PFEM_CHECK(d.size() == static_cast<std::size_t>(k.rows()));
  for (const index_t i : interface_dofs) PFEM_CHECK(i >= 0 && i < k.rows());

  if (opts.format == KernelOptions::Format::Ebe) {
    PFEM_CHECK_MSG(elems != nullptr,
                   "Format::Ebe needs the subdomain's element store "
                   "(build_edd_partition provides it; hand-built "
                   "subdomains and matrix overrides do not)");
    PFEM_CHECK_MSG(elems->rows() == k.rows(),
                   "Format::Ebe: element store covers " << elems->rows()
                   << " dofs but the subdomain has " << k.rows());
    // Split ELEMENTS, not rows: interior = touches no interface dof, so
    // it neither reads nor writes an interface entry mid-exchange.
    // Stored [coupled | interior] so apply() == the Enhanced split
    // order bit for bit.
    std::vector<char> iface(static_cast<std::size_t>(k.rows()), 0);
    for (const index_t i : interface_dofs) iface[i] = 1;
    IndexVector order;
    order.reserve(static_cast<std::size_t>(elems->num_elems()));
    index_t ncoupled = 0;
    for (index_t e = 0; e < elems->num_elems(); ++e)
      if (elems->touches(e, iface)) {
        order.push_back(e);
        ++ncoupled;
      }
    for (index_t e = 0; e < elems->num_elems(); ++e)
      if (!elems->touches(e, iface)) order.push_back(e);
    ebe_ = elems->permuted(order);
    ebe_.scale_symmetric(d);  // fold D K D, CSR's rounding sequence
    ebe_split_ = ncoupled;
    return;
  }

  IndexVector interior;
  IndexVector coupled;
  detail::classify_rows(k, interface_dofs, interior, coupled);

  // Fold D K D once at build, so every apply streams only the matrix
  // and x.
  sparse::CsrMatrix scaled = k;
  scaled.scale_symmetric(d);
  if (opts.format == KernelOptions::Format::Sell) {
    sell_coupled_ = sparse::SellMatrix::from_csr_rows(scaled, coupled);
    sell_interior_ = sparse::SellMatrix::from_csr_rows(scaled, interior);
  } else {
    csr_coupled_ = detail::make_block(scaled, coupled);
    csr_interior_ = detail::make_block(scaled, interior);
  }
}

void RankKernel::apply(std::span<const real_t> x, std::span<real_t> y) const {
  PFEM_DEBUG_CHECK(x.size() == static_cast<std::size_t>(n_));
  PFEM_DEBUG_CHECK(y.size() == static_cast<std::size_t>(n_));
  if (opts_.format == KernelOptions::Format::Ebe) {
    std::fill(y.begin(), y.end(), real_t{0});
    // Element order is [coupled | interior] — the same scatter-add order
    // the Enhanced-discipline split replays, so apply() and that split
    // path are bit-identical.
    ebe_.apply_add(0, ebe_.num_elems(), x, y);
    return;
  }
  apply_coupled(x, y);
  apply_interior(x, y);
}

void RankKernel::apply_coupled(std::span<const real_t> x,
                               std::span<real_t> y) const {
  if (opts_.format == KernelOptions::Format::Ebe) {
    ebe_.apply_add(0, ebe_split_, x, y);
  } else if (opts_.format == KernelOptions::Format::Sell) {
    sell_coupled_.spmv(x, y);
  } else {
    csr_coupled_.spmv(x, y);
  }
}

void RankKernel::apply_interior(std::span<const real_t> x,
                                std::span<real_t> y) const {
  if (opts_.format == KernelOptions::Format::Ebe) {
    ebe_.apply_add(ebe_split_, ebe_.num_elems(), x, y);
  } else if (opts_.format == KernelOptions::Format::Sell) {
    sell_interior_.spmv(x, y);
  } else {
    csr_interior_.spmv(x, y);
  }
}

void RankKernel::apply_coupled_many(std::span<const Vector* const> xs,
                                    std::span<Vector* const> ys) const {
  PFEM_DEBUG_CHECK(xs.size() == ys.size());
  if (opts_.format == KernelOptions::Format::Ebe) {
    ebe_.apply_add_many(0, ebe_split_, xs, ys);
    return;
  }
  for (std::size_t l = 0; l < xs.size(); ++l) apply_coupled(*xs[l], *ys[l]);
}

void RankKernel::apply_interior_many(std::span<const Vector* const> xs,
                                     std::span<Vector* const> ys) const {
  PFEM_DEBUG_CHECK(xs.size() == ys.size());
  if (opts_.format == KernelOptions::Format::Ebe) {
    ebe_.apply_add_many(ebe_split_, ebe_.num_elems(), xs, ys);
    return;
  }
  for (std::size_t l = 0; l < xs.size(); ++l) apply_interior(*xs[l], *ys[l]);
}

}  // namespace pfem::core
