#include "partition/edd.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "fem/ebe.hpp"

namespace pfem::partition {

index_t EddPartition::total_interface_dofs() const {
  index_t total = 0;
  for (const EddSubdomain& s : subs)
    total += as_index(s.interface_local_dofs.size());
  return total;
}

int EddPartition::max_neighbors() const {
  int m = 0;
  for (const EddSubdomain& s : subs)
    m = std::max(m, static_cast<int>(s.neighbors.size()));
  return m;
}

EddPartition build_edd_partition(const fem::Mesh& mesh,
                                 const fem::DofMap& dofs,
                                 const fem::Material& mat, fem::Operator op,
                                 const IndexVector& elem_part, int nparts) {
  PFEM_CHECK(nparts >= 1);
  PFEM_CHECK(elem_part.size() == static_cast<std::size_t>(mesh.num_elems()));
  const index_t n_global = dofs.num_free();
  const auto ng = static_cast<std::size_t>(n_global);

  EddPartition part;
  part.n_global = n_global;
  part.subs.resize(static_cast<std::size_t>(nparts));

  // Element lists per part.
  for (index_t e = 0; e < mesh.num_elems(); ++e) {
    const index_t p = elem_part[e];
    PFEM_CHECK(p >= 0 && p < nparts);
    part.subs[static_cast<std::size_t>(p)].elems.push_back(e);
  }

  // Local numbering per part: the sorted global dofs its elements touch
  // (seen[g] == p: g already listed for p).  touch_ptr counts parts per
  // dof on the way.
  IndexVector touch_ptr(ng + 1, 0);
  {
    IndexVector seen(ng, -1);
    for (index_t p = 0; p < nparts; ++p) {
      EddSubdomain& sub = part.subs[static_cast<std::size_t>(p)];
      for (const index_t e : sub.elems)
        for (const index_t node : mesh.elem_nodes(e))
          for (index_t c = 0; c < dofs.dofs_per_node(); ++c) {
            const index_t g = dofs.dof(node, c);
            if (g < 0 || seen[static_cast<std::size_t>(g)] == p) continue;
            seen[static_cast<std::size_t>(g)] = p;
            sub.local_to_global.push_back(g);
            ++touch_ptr[static_cast<std::size_t>(g) + 1];
          }
      std::sort(sub.local_to_global.begin(), sub.local_to_global.end());
    }
  }

  // dof -> parts as flat arrays: the parts touching g are
  // touch[touch_ptr[g] .. touch_ptr[g+1]), ascending (parts visited in
  // order).
  for (std::size_t g = 0; g < ng; ++g) touch_ptr[g + 1] += touch_ptr[g];
  IndexVector touch(static_cast<std::size_t>(touch_ptr[ng]));
  {
    IndexVector next(touch_ptr.begin(), touch_ptr.end() - 1);
    for (index_t p = 0; p < nparts; ++p)
      for (const index_t g : part.subs[static_cast<std::size_t>(p)]
                                 .local_to_global)
        touch[static_cast<std::size_t>(next[static_cast<std::size_t>(g)]++)] =
            p;
  }

  // Per part: multiplicity, interface dofs, and one exchange list per
  // neighbor.  Local dofs are walked in ascending global order, so both
  // ends of a pair list their shared dofs in the same order.
  IndexVector slot(static_cast<std::size_t>(nparts), -1);  // rank -> list
  for (index_t p = 0; p < nparts; ++p) {
    EddSubdomain& sub = part.subs[static_cast<std::size_t>(p)];
    auto& nbs = sub.neighbors;
    sub.multiplicity.resize(sub.local_to_global.size());
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l) {
      const auto g = static_cast<std::size_t>(sub.local_to_global[l]);
      const index_t lo = touch_ptr[g];
      const index_t hi = touch_ptr[g + 1];
      sub.multiplicity[l] = hi - lo;
      if (hi - lo > 1) sub.interface_local_dofs.push_back(as_index(l));
      for (index_t k = lo; k < hi; ++k) {
        const index_t t = touch[static_cast<std::size_t>(k)];
        if (t == p) continue;
        index_t& idx = slot[static_cast<std::size_t>(t)];
        if (idx < 0) {
          idx = as_index(nbs.size());
          nbs.push_back({static_cast<int>(t), {}});
        }
        nbs[static_cast<std::size_t>(idx)].shared_local_dofs.push_back(
            as_index(l));
      }
    }
    for (const auto& nb : nbs) slot[static_cast<std::size_t>(nb.rank)] = -1;
    std::sort(nbs.begin(), nbs.end(),
              [](const auto& a, const auto& b) { return a.rank < b.rank; });
  }

  // One element pass per part: the store keeps the element matrices the
  // matrix-free Ebe kernel applies, and k_loc is the same store summed
  // into CSR.
  IndexVector g2l(ng, -1);
  for (EddSubdomain& sub : part.subs) {
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
      g2l[static_cast<std::size_t>(sub.local_to_global[l])] = as_index(l);
    sparse::EbeStore store = fem::build_ebe_store(mesh, dofs, mat, op,
                                                  sub.elems, g2l,
                                                  sub.n_local());
    sub.k_loc = store.to_csr();
    sub.elem_store =
        std::make_shared<const sparse::EbeStore>(std::move(store));
    for (const index_t g : sub.local_to_global)
      g2l[static_cast<std::size_t>(g)] = -1;
  }
  return part;
}

sparse::CsrMatrix assemble_edd_local(const fem::Mesh& mesh,
                                     const fem::DofMap& dofs,
                                     const fem::Material& mat,
                                     fem::Operator op,
                                     const EddPartition& part, int s) {
  PFEM_CHECK(s >= 0 && s < part.nparts());
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  IndexVector g2l(static_cast<std::size_t>(part.n_global), -1);
  for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
    g2l[static_cast<std::size_t>(sub.local_to_global[l])] = as_index(l);
  return fem::assemble_subset(mesh, dofs, mat, op, sub.elems, g2l,
                              sub.n_local());
}

Vector edd_scatter(const EddPartition& part, int s,
                   std::span<const real_t> global) {
  PFEM_CHECK(s >= 0 && s < part.nparts());
  PFEM_CHECK(global.size() == static_cast<std::size_t>(part.n_global));
  const EddSubdomain& sub = part.subs[static_cast<std::size_t>(s)];
  Vector local(sub.local_to_global.size());
  for (std::size_t l = 0; l < local.size(); ++l)
    local[l] = global[static_cast<std::size_t>(sub.local_to_global[l])];
  return local;
}

Vector edd_gather_local(const EddPartition& part,
                        const std::vector<Vector>& local_vectors) {
  PFEM_CHECK(local_vectors.size() == part.subs.size());
  Vector global(static_cast<std::size_t>(part.n_global), 0.0);
  for (std::size_t s = 0; s < part.subs.size(); ++s) {
    const EddSubdomain& sub = part.subs[s];
    PFEM_CHECK(local_vectors[s].size() == sub.local_to_global.size());
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l)
      global[static_cast<std::size_t>(sub.local_to_global[l])] +=
          local_vectors[s][l];
  }
  return global;
}

Vector edd_gather_global(const EddPartition& part,
                         const std::vector<Vector>& global_vectors) {
  PFEM_CHECK(global_vectors.size() == part.subs.size());
  Vector global(static_cast<std::size_t>(part.n_global), 0.0);
  std::vector<bool> seen(static_cast<std::size_t>(part.n_global), false);
  for (std::size_t s = 0; s < part.subs.size(); ++s) {
    const EddSubdomain& sub = part.subs[s];
    PFEM_CHECK(global_vectors[s].size() == sub.local_to_global.size());
    for (std::size_t l = 0; l < sub.local_to_global.size(); ++l) {
      const auto g = static_cast<std::size_t>(sub.local_to_global[l]);
      if (!seen[g]) {
        global[g] = global_vectors[s][l];
        seen[g] = true;
      }
    }
  }
  return global;
}

}  // namespace pfem::partition
