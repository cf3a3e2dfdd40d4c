#include "sparse/ebe_store.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace pfem::sparse {

EbeStore::EbeStore(index_t n, index_t edofs, IndexVector dof_ids,
                   std::vector<real_t> values)
    : n_(n), edofs_(edofs) {
  PFEM_CHECK_MSG(n >= 0, "EbeStore: negative dimension " << n);
  PFEM_CHECK_MSG(edofs >= 1 && edofs <= kMaxEbeElemDofs,
                 "EbeStore: dofs per element " << edofs
                 << " outside [1, " << kMaxEbeElemDofs << "]");
  PFEM_CHECK_MSG(dof_ids.size() % static_cast<std::size_t>(edofs) == 0,
                 "EbeStore: dof_ids size " << dof_ids.size()
                 << " is not a multiple of edofs " << edofs);
  ne_ = as_index(dof_ids.size() / static_cast<std::size_t>(edofs));
  PFEM_CHECK_MSG(
      values.size() == static_cast<std::size_t>(ne_) *
                           static_cast<std::size_t>(edofs) * edofs,
      "EbeStore: values size " << values.size() << " != ne*edofs^2 = "
      << static_cast<std::size_t>(ne_) * static_cast<std::size_t>(edofs) *
             edofs);
  for (const index_t id : dof_ids)
    PFEM_CHECK_MSG(id == -1 || (id >= 0 && id < n),
                   "EbeStore: dof id " << id << " outside [0, " << n
                   << ") and not the constrained marker -1");
  dof_ids_ = std::move(dof_ids);
  values_ = std::move(values);
}

std::span<const index_t> EbeStore::elem_dofs(index_t e) const {
  PFEM_CHECK(e >= 0 && e < ne_);
  return {dof_ids_.data() + static_cast<std::size_t>(e) * edofs_,
          static_cast<std::size_t>(edofs_)};
}

bool EbeStore::touches(index_t e, std::span<const char> mask) const {
  PFEM_DEBUG_CHECK(mask.size() == static_cast<std::size_t>(n_));
  for (const index_t id : elem_dofs(e))
    if (id >= 0 && mask[static_cast<std::size_t>(id)] != 0) return true;
  return false;
}

void EbeStore::scale_symmetric(std::span<const real_t> d) {
  PFEM_CHECK(d.size() == static_cast<std::size_t>(n_));
  for (index_t e = 0; e < ne_; ++e) {
    const index_t* ids =
        dof_ids_.data() + static_cast<std::size_t>(e) * edofs_;
    real_t* ke = values_.data() +
                 static_cast<std::size_t>(e) * edofs_ * edofs_;
    for (index_t r = 0; r < edofs_; ++r) {
      if (ids[r] < 0) continue;
      const real_t dr = d[static_cast<std::size_t>(ids[r])];
      real_t* row = ke + static_cast<std::size_t>(r) * edofs_;
      for (index_t c = 0; c < edofs_; ++c) {
        if (ids[c] < 0) continue;
        // Same rounding sequence as CsrMatrix::scale_symmetric: the
        // product d_r * d_c rounds first, then scales the entry.
        row[c] *= dr * d[static_cast<std::size_t>(ids[c])];
      }
    }
  }
}

void EbeStore::apply_add(index_t begin, index_t end,
                         std::span<const real_t> x,
                         std::span<real_t> y) const {
  PFEM_DEBUG_CHECK(begin >= 0 && begin <= end && end <= ne_);
  PFEM_DEBUG_CHECK(x.size() == static_cast<std::size_t>(n_));
  PFEM_DEBUG_CHECK(y.size() == static_cast<std::size_t>(n_));
  // Stack scratch: bounded by the constructor's edofs check, and local
  // to the call so concurrent applies through a shared const store never
  // race (the EddRank no-allocation buffer discipline, without buffers).
  real_t xe[kMaxEbeElemDofs];
  real_t ye[kMaxEbeElemDofs];
  const auto ed = static_cast<std::size_t>(edofs_);
  for (index_t e = begin; e < end; ++e) {
    const index_t* ids = dof_ids_.data() + static_cast<std::size_t>(e) * ed;
    const real_t* ke = values_.data() + static_cast<std::size_t>(e) * ed * ed;
    // Gather (constrained dofs contribute zero).
    for (std::size_t k = 0; k < ed; ++k)
      xe[k] = ids[k] >= 0 ? x[static_cast<std::size_t>(ids[k])] : 0.0;
    // Dense multiply.
    for (std::size_t r = 0; r < ed; ++r) {
      real_t s = 0.0;
      const real_t* row = ke + r * ed;
      for (std::size_t c = 0; c < ed; ++c) s += row[c] * xe[c];
      ye[r] = s;
    }
    // Scatter-add (constrained rows never land).
    for (std::size_t k = 0; k < ed; ++k)
      if (ids[k] >= 0) y[static_cast<std::size_t>(ids[k])] += ye[k];
  }
}

void EbeStore::apply_add_many(index_t begin, index_t end,
                              std::span<const Vector* const> xs,
                              std::span<Vector* const> ys) const {
  PFEM_DEBUG_CHECK(begin >= 0 && begin <= end && end <= ne_);
  PFEM_DEBUG_CHECK(xs.size() == ys.size());
  real_t xe[kMaxEbeElemDofs];
  real_t ye[kMaxEbeElemDofs];
  const auto ed = static_cast<std::size_t>(edofs_);
  const std::size_t nb = xs.size();
  for (index_t e = begin; e < end; ++e) {
    const index_t* ids = dof_ids_.data() + static_cast<std::size_t>(e) * ed;
    const real_t* ke = values_.data() + static_cast<std::size_t>(e) * ed * ed;
    // Element-major: K_e stays hot across every lane.
    for (std::size_t b = 0; b < nb; ++b) {
      const Vector& x = *xs[b];
      Vector& y = *ys[b];
      for (std::size_t k = 0; k < ed; ++k)
        xe[k] = ids[k] >= 0 ? x[static_cast<std::size_t>(ids[k])] : 0.0;
      for (std::size_t r = 0; r < ed; ++r) {
        real_t s = 0.0;
        const real_t* row = ke + r * ed;
        for (std::size_t c = 0; c < ed; ++c) s += row[c] * xe[c];
        ye[r] = s;
      }
      for (std::size_t k = 0; k < ed; ++k)
        if (ids[k] >= 0) y[static_cast<std::size_t>(ids[k])] += ye[k];
    }
  }
}

CsrMatrix EbeStore::to_csr() const {
  const auto n = static_cast<std::size_t>(n_);
  const auto ed = static_cast<std::size_t>(edofs_);

  // Row -> incident slots (slot s = e * edofs + k holds dof_ids_[s]),
  // by a counting sort, so each row lists its elements in store order.
  IndexVector inc_ptr(n + 1, 0);
  for (const index_t id : dof_ids_)
    if (id >= 0) ++inc_ptr[static_cast<std::size_t>(id) + 1];
  for (std::size_t r = 0; r < n; ++r) inc_ptr[r + 1] += inc_ptr[r];
  IndexVector inc(static_cast<std::size_t>(inc_ptr[n]));
  {
    IndexVector next(inc_ptr.begin(), inc_ptr.end() - 1);
    for (std::size_t s = 0; s < dof_ids_.size(); ++s)
      if (const index_t id = dof_ids_[s]; id >= 0)
        inc[static_cast<std::size_t>(next[static_cast<std::size_t>(id)]++)] =
            as_index(s);
  }
  const auto elem_ids = [&](index_t slot) {
    return dof_ids_.data() + static_cast<std::size_t>(slot) / ed * ed;
  };

  // Pass 1: distinct columns per row (mark[c] == r: c already counted).
  IndexVector row_ptr(n + 1, 0);
  IndexVector mark(n, -1);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = as_index(r);
    index_t count = 0;
    for (index_t k = inc_ptr[r]; k < inc_ptr[r + 1]; ++k) {
      const index_t* ids = elem_ids(inc[static_cast<std::size_t>(k)]);
      for (std::size_t j = 0; j < ed; ++j) {
        const index_t c = ids[j];
        if (c < 0 || mark[static_cast<std::size_t>(c)] == row) continue;
        mark[static_cast<std::size_t>(c)] = row;
        ++count;
      }
    }
    row_ptr[r + 1] = row_ptr[r] + count;
  }

  // Pass 2: collect each row's columns, sum its entries into a dense
  // accumulator (element order), sort the columns, read the sums out.
  const auto nnz = static_cast<std::size_t>(row_ptr[n]);
  IndexVector col_idx(nnz);
  Vector values(nnz);
  Vector acc(n, 0.0);
  std::fill(mark.begin(), mark.end(), index_t{-1});
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = as_index(r);
    index_t* cols = col_idx.data() + row_ptr[r];
    std::size_t count = 0;
    for (index_t k = inc_ptr[r]; k < inc_ptr[r + 1]; ++k) {
      const index_t slot = inc[static_cast<std::size_t>(k)];
      const index_t* ids = elem_ids(slot);
      const real_t* vals = values_.data() + static_cast<std::size_t>(slot) * ed;
      for (std::size_t j = 0; j < ed; ++j) {
        const index_t c = ids[j];
        if (c < 0) continue;
        if (mark[static_cast<std::size_t>(c)] != row) {
          mark[static_cast<std::size_t>(c)] = row;
          cols[count++] = c;
        }
        acc[static_cast<std::size_t>(c)] += vals[j];
      }
    }
    std::sort(cols, cols + count);
    real_t* out = values.data() + row_ptr[r];
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = acc[static_cast<std::size_t>(cols[i])];
      acc[static_cast<std::size_t>(cols[i])] = 0.0;
    }
  }
  return CsrMatrix(n_, n_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

EbeStore EbeStore::permuted(std::span<const index_t> order) const {
  PFEM_CHECK_MSG(order.size() == static_cast<std::size_t>(ne_),
                 "EbeStore::permuted: order size " << order.size()
                 << " != num_elems " << ne_);
  IndexVector ids(dof_ids_.size());
  std::vector<real_t> vals(values_.size());
  const auto ed = static_cast<std::size_t>(edofs_);
  std::vector<char> seen(static_cast<std::size_t>(ne_), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const index_t e = order[i];
    PFEM_CHECK_MSG(e >= 0 && e < ne_ && seen[static_cast<std::size_t>(e)] == 0,
                   "EbeStore::permuted: order is not a permutation");
    seen[static_cast<std::size_t>(e)] = 1;
    for (std::size_t k = 0; k < ed; ++k)
      ids[i * ed + k] = dof_ids_[static_cast<std::size_t>(e) * ed + k];
    for (std::size_t k = 0; k < ed * ed; ++k)
      vals[i * ed * ed + k] = values_[static_cast<std::size_t>(e) * ed * ed + k];
  }
  return EbeStore(n_, edofs_, std::move(ids), std::move(vals));
}

}  // namespace pfem::sparse
