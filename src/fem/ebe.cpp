#include "fem/ebe.hpp"

#include <numeric>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "la/vector_ops.hpp"

namespace pfem::fem {

sparse::EbeStore build_ebe_store(const Mesh& mesh, const DofMap& dofs,
                                 const Material& mat, Operator op,
                                 std::span<const index_t> elems,
                                 std::span<const index_t> global_to_local,
                                 index_t n_local) {
  const index_t dpn = dofs.dofs_per_node();
  PFEM_CHECK_MSG(dpn == (op == Operator::Poisson ? 1 : mesh.dim()),
                 "DofMap dofs-per-node does not match operator/dimension");
  PFEM_CHECK(global_to_local.size() ==
             static_cast<std::size_t>(dofs.num_free()));
  const index_t edofs = nodes_per_elem(mesh.type()) * dpn;
  const std::size_t block = static_cast<std::size_t>(edofs) * edofs;
  IndexVector dof_ids;
  dof_ids.reserve(elems.size() * static_cast<std::size_t>(edofs));
  std::vector<real_t> values(elems.size() * block);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    const index_t e = elems[i];
    element_matrix(mesh, mat, op, e,
                   std::span(values).subspan(i * block, block));
    for (const index_t node : mesh.elem_nodes(e))
      for (index_t c = 0; c < dpn; ++c) {
        const index_t g = dofs.dof(node, c);
        dof_ids.push_back(g >= 0 ? global_to_local[static_cast<std::size_t>(g)]
                                 : index_t{-1});
      }
  }
  return sparse::EbeStore(n_local, edofs, std::move(dof_ids),
                          std::move(values));
}

sparse::EbeStore build_ebe_store(const Mesh& mesh, const DofMap& dofs,
                                 const Material& mat, Operator op) {
  IndexVector all(static_cast<std::size_t>(mesh.num_elems()));
  std::iota(all.begin(), all.end(), index_t{0});
  const index_t n = dofs.num_free();
  IndexVector identity(static_cast<std::size_t>(n));
  std::iota(identity.begin(), identity.end(), index_t{0});
  return build_ebe_store(mesh, dofs, mat, op, all, identity, n);
}

EbeOperator::EbeOperator(const Mesh& mesh, const DofMap& dofs,
                         const Material& mat, Operator op)
    : store_(build_ebe_store(mesh, dofs, mat, op)) {}

void EbeOperator::apply(std::span<const real_t> x,
                        std::span<real_t> y) const {
  PFEM_CHECK(x.size() == static_cast<std::size_t>(store_.rows()));
  PFEM_CHECK(y.size() == static_cast<std::size_t>(store_.rows()));
  la::fill(y, 0.0);
  store_.apply_add(0, store_.num_elems(), x, y);
}

}  // namespace pfem::fem
