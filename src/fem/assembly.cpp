#include "fem/assembly.hpp"

#include "common/error.hpp"
#include "fem/ebe.hpp"
#include "fem/elements.hpp"

namespace pfem::fem {

namespace {

QuadCoords quad_coords(const Mesh& mesh, index_t e) {
  const auto nodes = mesh.elem_nodes(e);
  QuadCoords xy{};
  for (int i = 0; i < 4; ++i) {
    xy[2 * i] = mesh.x(nodes[i]);
    xy[2 * i + 1] = mesh.y(nodes[i]);
  }
  return xy;
}

TriCoords tri_coords(const Mesh& mesh, index_t e) {
  const auto nodes = mesh.elem_nodes(e);
  TriCoords xy{};
  for (int i = 0; i < 3; ++i) {
    xy[2 * i] = mesh.x(nodes[i]);
    xy[2 * i + 1] = mesh.y(nodes[i]);
  }
  return xy;
}

Quad8Coords quad8_coords(const Mesh& mesh, index_t e) {
  const auto nodes = mesh.elem_nodes(e);
  Quad8Coords xy{};
  for (int i = 0; i < 8; ++i) {
    xy[2 * i] = mesh.x(nodes[i]);
    xy[2 * i + 1] = mesh.y(nodes[i]);
  }
  return xy;
}

HexCoords hex_coords(const Mesh& mesh, index_t e) {
  const auto nodes = mesh.elem_nodes(e);
  HexCoords xyz{};
  for (int i = 0; i < 8; ++i) {
    xyz[3 * i] = mesh.x(nodes[i]);
    xyz[3 * i + 1] = mesh.y(nodes[i]);
    xyz[3 * i + 2] = mesh.z(nodes[i]);
  }
  return xyz;
}

/// Per-element heterogeneity hooks of Material: the Quad4 Poisson path
/// honours the diffusion-tensor table; Stiffness/Poisson matrices are
/// scaled by elem_scale[e].  Mass stays untouched — density is a
/// separate physical field, and scaling it would change the spectrum of
/// the wrong operator.
la::DenseMatrix apply_elem_scale(la::DenseMatrix ke, const Material& mat,
                                 Operator op, index_t e) {
  if (op == Operator::Mass || mat.elem_scale == nullptr) return ke;
  const auto& scale = *mat.elem_scale;
  PFEM_CHECK_MSG(static_cast<std::size_t>(e) < scale.size(),
                 "Material::elem_scale shorter than the element count");
  const real_t s = scale[static_cast<std::size_t>(e)];
  for (index_t r = 0; r < ke.rows(); ++r)
    for (index_t c = 0; c < ke.cols(); ++c) ke(r, c) *= s;
  return ke;
}

la::DenseMatrix quad4_poisson_elem(const Mesh& mesh, const Material& mat,
                                   index_t e) {
  if (mat.diffusion == nullptr) return quad4_poisson(quad_coords(mesh, e));
  const auto& d = *mat.diffusion;
  PFEM_CHECK_MSG(d.size() >= 4 * static_cast<std::size_t>(e) + 4,
                 "Material::diffusion shorter than 4 * element count");
  const std::size_t b = 4 * static_cast<std::size_t>(e);
  return quad4_diffusion(quad_coords(mesh, e),
                         DiffusionTensor{d[b], d[b + 1], d[b + 2], d[b + 3]});
}

}  // namespace

la::DenseMatrix element_matrix(const Mesh& mesh, const Material& mat,
                               Operator op, index_t e) {
  switch (mesh.type()) {
    case ElemType::Quad4:
      switch (op) {
        case Operator::Stiffness:
          return apply_elem_scale(quad4_stiffness(quad_coords(mesh, e), mat),
                                  mat, op, e);
        case Operator::Mass: return quad4_mass(quad_coords(mesh, e), mat);
        case Operator::Poisson:
          return apply_elem_scale(quad4_poisson_elem(mesh, mat, e), mat, op,
                                  e);
      }
      break;
    case ElemType::Tri3:
      switch (op) {
        case Operator::Stiffness:
          return apply_elem_scale(tri3_stiffness(tri_coords(mesh, e), mat),
                                  mat, op, e);
        case Operator::Mass: return tri3_mass(tri_coords(mesh, e), mat);
        case Operator::Poisson:
          return apply_elem_scale(tri3_poisson(tri_coords(mesh, e)), mat, op,
                                  e);
      }
      break;
    case ElemType::Quad8:
      switch (op) {
        case Operator::Stiffness:
          return apply_elem_scale(quad8_stiffness(quad8_coords(mesh, e), mat),
                                  mat, op, e);
        case Operator::Mass: return quad8_mass(quad8_coords(mesh, e), mat);
        case Operator::Poisson:
          PFEM_CHECK_MSG(false, "scalar Poisson not provided for Q8");
      }
      break;
    case ElemType::Hex8:
      switch (op) {
        case Operator::Stiffness:
          return apply_elem_scale(hex8_stiffness(hex_coords(mesh, e), mat),
                                  mat, op, e);
        case Operator::Mass: return hex8_mass(hex_coords(mesh, e), mat);
        case Operator::Poisson:
          PFEM_CHECK_MSG(false, "scalar Poisson not provided for Hex8");
      }
      break;
  }
  PFEM_CHECK_MSG(false, "unreachable operator kind");
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
