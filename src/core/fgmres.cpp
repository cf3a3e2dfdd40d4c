#include "core/fgmres.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace pfem::core {

std::string solve_input_error(const SolveOptions& opts,
                              std::span<const real_t> rhs, bool restarted) {
  std::ostringstream os;
  if (restarted && opts.restart < 1)
    os << "restart must be >= 1 (got " << opts.restart << ")";
  else if (opts.max_iters < 1)
    os << "max_iters must be >= 1 (got " << opts.max_iters << ")";
  else if (!(opts.tol > 0.0) || !std::isfinite(opts.tol))
    os << "tol must be finite and > 0 (got " << opts.tol << ")";
  else
    for (std::size_t i = 0; i < rhs.size(); ++i)
      if (!std::isfinite(rhs[i])) {
        os << "RHS entry " << i << " is not finite (" << rhs[i] << ")";
        break;
      }
  return os.str();
}

void check_solve_input(const SolveOptions& opts, std::span<const real_t> rhs,
                       bool restarted) {
  const std::string err = solve_input_error(opts, rhs, restarted);
  if (!err.empty()) throw Error(err);
}

}  // namespace pfem::core
