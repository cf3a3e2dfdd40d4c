// The element pass allocates nothing per element: build_ebe_store makes
// the same number of heap allocations on a mesh as on one 100 times
// larger.  The global operator new/delete pair is replaced by a counting
// one, so this suite has its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "fem/ebe.hpp"
#include "fem/families.hpp"
#include "fem/structured.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pfem::fem {
namespace {

/// Heap allocations of one build_ebe_store over every element.
std::size_t store_allocations(const Mesh& mesh, const DofMap& dofs,
                              const Material& mat, Operator op) {
  const std::size_t before = g_allocations.load();
  const sparse::EbeStore store = build_ebe_store(mesh, dofs, mat, op);
  const std::size_t made = g_allocations.load() - before;
  EXPECT_EQ(store.num_elems(), mesh.num_elems());
  return made;
}

/// The same count on `small` and on `large` (100x the elements), with
/// the x = 0 edge clamped.
void expect_same_count(const Mesh& small, const Mesh& large, Operator op) {
  ASSERT_EQ(large.num_elems(), 100 * small.num_elems());
  std::size_t counts[2] = {};
  for (const Mesh* m : {&small, &large}) {
    DofMap dofs(m->num_nodes(), op == Operator::Poisson ? 1 : m->dim());
    for (const index_t n : m->nodes_at_x(0.0)) dofs.fix_node(n);
    dofs.finalize();
    counts[m == &large] = store_allocations(*m, dofs, Material{}, op);
  }
  EXPECT_EQ(counts[0], counts[1])
      << small.num_elems() << " vs " << large.num_elems() << " elements";
}

TEST(ElementAllocations, Quad4Stiffness) {
  expect_same_count(structured_quad(4, 2, 4.0, 2.0),
                    structured_quad(40, 20, 40.0, 20.0), Operator::Stiffness);
}

TEST(ElementAllocations, Quad8Stiffness) {
  expect_same_count(structured_quad8(4, 2, 4.0, 2.0),
                    structured_quad8(40, 20, 40.0, 20.0),
                    Operator::Stiffness);
}

TEST(ElementAllocations, Hex8Stiffness) {
  expect_same_count(structured_hex(2, 2, 2, 2.0, 2.0, 2.0),
                    structured_hex(10, 10, 8, 10.0, 10.0, 8.0),
                    Operator::Stiffness);
}

TEST(ElementAllocations, Quad4Mass) {
  expect_same_count(structured_quad(4, 2, 4.0, 2.0),
                    structured_quad(40, 20, 40.0, 20.0), Operator::Mass);
}

TEST(ElementAllocations, Quad4DiffusionWithTensorTable) {
  std::size_t counts[2] = {};
  for (const index_t scale : {1, 10}) {
    ProblemSpec spec = default_spec("hetero2d");
    spec.nx = 8 * scale;
    spec.ny = 4 * scale;
    spec.jump = 1e4;
    spec.anisotropy = 10.0;
    spec.angle = 0.5;
    spec.aligned = false;
    spec.checker = 3;
    const FamilyProblem fp = make_problem(spec);
    ASSERT_NE(fp.prob.material.diffusion, nullptr);
    counts[scale == 10] = store_allocations(fp.prob.mesh, fp.prob.dofs,
                                            fp.prob.material, fp.op);
  }
  EXPECT_EQ(counts[0], counts[1]);
}

}  // namespace
}  // namespace pfem::fem
