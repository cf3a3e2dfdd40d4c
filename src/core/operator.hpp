// Abstract linear operator.
//
// The polynomial preconditioners apply P_m(A)v purely through mat-vec
// products.  Their width-1 apply(const LinearOp&, ...) takes this
// minimal operator, usually a CSR SpMV (probes, micro-benchmarks and
// the polynomial tests).  The EDD/RDD solvers run the same recursion on
// the *distributed* mat-vec (local SpMV + nearest-neighbor exchange),
// which is precisely how the paper parallelizes preconditioning at zero
// extra machinery.
#pragma once

#include <functional>
#include <span>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace pfem::core {

class LinearOp {
 public:
  using ApplyFn =
      std::function<void(std::span<const real_t>, std::span<real_t>)>;

  LinearOp() = default;
  LinearOp(index_t n, ApplyFn fn) : n_(n), fn_(std::move(fn)) {}

  [[nodiscard]] index_t size() const noexcept { return n_; }

  /// y <- A x.  x and y must not alias.
  void apply(std::span<const real_t> x, std::span<real_t> y) const {
    PFEM_DEBUG_CHECK(fn_ != nullptr);
    PFEM_DEBUG_CHECK(x.size() == static_cast<std::size_t>(n_));
    PFEM_DEBUG_CHECK(y.size() == static_cast<std::size_t>(n_));
    fn_(x, y);
  }

  /// Wrap a CSR matrix (no counters).
  [[nodiscard]] static LinearOp from_csr(const sparse::CsrMatrix& a) {
    PFEM_CHECK(a.rows() == a.cols());
    return LinearOp(a.rows(),
                    [&a](std::span<const real_t> x, std::span<real_t> y) {
                      a.spmv(x, y);
                    });
  }

 private:
  index_t n_ = 0;
  ApplyFn fn_;
};

}  // namespace pfem::core
