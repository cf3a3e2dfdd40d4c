#include "fem/assembly.hpp"

#include "common/error.hpp"
#include "fem/ebe.hpp"
#include "fem/elements.hpp"

namespace pfem::fem {

namespace {

/// Element e's diffusion tensor from Material::diffusion, or the
/// identity (the plain Laplacian) when no table is set.
DiffusionTensor diffusion_tensor(const Material& mat, index_t e) {
  if (mat.diffusion == nullptr) return kIdentityDiffusion;
  const auto& d = *mat.diffusion;
  PFEM_CHECK_MSG(d.size() >= 4 * static_cast<std::size_t>(e) + 4,
                 "Material::diffusion shorter than 4 * element count");
  const std::size_t b = 4 * static_cast<std::size_t>(e);
  return {d[b], d[b + 1], d[b + 2], d[b + 3]};
}

}  // namespace

void element_matrix(const Mesh& mesh, const Material& mat, Operator op,
                    index_t e, std::span<real_t> out) {
  const ElemCoords x = element_coords(mesh, e);
  switch (op) {
    case Operator::Stiffness:
      stiffness_matrix(mesh.type(), x, mat, out);
      break;
    // Mass ignores elem_scale: density is a separate physical field, and
    // scaling it would change the spectrum of the wrong operator.
    case Operator::Mass: return mass_matrix(mesh.type(), x, mat, out);
    case Operator::Poisson:
      diffusion_matrix(mesh.type(), x, diffusion_tensor(mat, e), out);
      break;
  }
  if (mat.elem_scale == nullptr) return;
  const auto& scale = *mat.elem_scale;
  PFEM_CHECK_MSG(static_cast<std::size_t>(e) < scale.size(),
                 "Material::elem_scale shorter than the element count");
  const real_t s = scale[static_cast<std::size_t>(e)];
  for (real_t& v : out) v *= s;
}

la::DenseMatrix element_matrix(const Mesh& mesh, const Material& mat,
                               Operator op, index_t e) {
  const index_t n =
      nodes_per_elem(mesh.type()) * (op == Operator::Poisson ? 1 : mesh.dim());
  la::DenseMatrix ke(n, n);
  element_matrix(mesh, mat, op, e, ke.data());
  return ke;
}

IndexVector element_dofs(const Mesh& mesh, const DofMap& dofs, index_t e) {
  const auto nodes = mesh.elem_nodes(e);
  const index_t dpn = dofs.dofs_per_node();
  IndexVector out;
  out.reserve(nodes.size() * static_cast<std::size_t>(dpn));
  for (index_t n : nodes)
    for (index_t c = 0; c < dpn; ++c) out.push_back(dofs.dof(n, c));
  return out;
}

sparse::CsrMatrix assemble(const Mesh& mesh, const DofMap& dofs,
                           const Material& mat, Operator op) {
  return build_ebe_store(mesh, dofs, mat, op).to_csr();
}

sparse::CsrMatrix assemble_subset(const Mesh& mesh, const DofMap& dofs,
                                  const Material& mat, Operator op,
                                  std::span<const index_t> elems,
                                  std::span<const index_t> global_to_local,
                                  index_t n_local) {
  return build_ebe_store(mesh, dofs, mat, op, elems, global_to_local,
                         n_local)
      .to_csr();
}

void add_point_load(const DofMap& dofs, index_t node, index_t comp,
                    real_t value, std::span<real_t> f) {
  PFEM_CHECK(f.size() == static_cast<std::size_t>(dofs.num_free()));
  const index_t d = dofs.dof(node, comp);
  if (d >= 0) f[d] += value;
}

void add_edge_load(const DofMap& dofs, std::span<const index_t> nodes,
                   index_t comp, real_t total, std::span<real_t> f) {
  PFEM_CHECK(!nodes.empty());
  const real_t per = total / static_cast<real_t>(nodes.size());
  for (index_t n : nodes) add_point_load(dofs, n, comp, per, f);
}

}  // namespace pfem::fem
