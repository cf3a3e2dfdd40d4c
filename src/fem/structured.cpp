#include "fem/structured.hpp"

#include "common/error.hpp"

namespace pfem::fem {

namespace {
Vector grid_coords(index_t nx, index_t ny, real_t lx, real_t ly) {
  const index_t nnx = nx + 1, nny = ny + 1;
  Vector coords(static_cast<std::size_t>(nnx) * nny * 2);
  const real_t dx = lx / static_cast<real_t>(nx);
  const real_t dy = ly / static_cast<real_t>(ny);
  for (index_t j = 0; j < nny; ++j) {
    for (index_t i = 0; i < nnx; ++i) {
      const std::size_t n = static_cast<std::size_t>(j) * nnx + i;
      coords[2 * n] = dx * static_cast<real_t>(i);
      coords[2 * n + 1] = dy * static_cast<real_t>(j);
    }
  }
  return coords;
}
}  // namespace

Mesh structured_quad(index_t nx, index_t ny, real_t lx, real_t ly) {
  PFEM_CHECK(nx >= 1 && ny >= 1 && lx > 0 && ly > 0);
  const index_t nnx = nx + 1;
  IndexVector conn;
  conn.reserve(static_cast<std::size_t>(nx) * ny * 4);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t n0 = j * nnx + i;
      // Counter-clockwise Q4: (i,j) (i+1,j) (i+1,j+1) (i,j+1).
      conn.push_back(n0);
      conn.push_back(n0 + 1);
      conn.push_back(n0 + nnx + 1);
      conn.push_back(n0 + nnx);
    }
  }
  return Mesh(ElemType::Quad4, grid_coords(nx, ny, lx, ly), std::move(conn));
}

Mesh structured_quad8(index_t nx, index_t ny, real_t lx, real_t ly) {
  PFEM_CHECK(nx >= 1 && ny >= 1 && lx > 0 && ly > 0);
  const index_t nnx = nx + 1, nny = ny + 1;
  const real_t dx = lx / static_cast<real_t>(nx);
  const real_t dy = ly / static_cast<real_t>(ny);
  const index_t n_corner = nnx * nny;
  const index_t n_hmid = nx * nny;        // midpoints of horizontal edges
  const index_t n_vmid = nnx * ny;        // midpoints of vertical edges
  Vector coords(2 * static_cast<std::size_t>(n_corner + n_hmid + n_vmid));

  auto corner = [nnx](index_t i, index_t j) { return j * nnx + i; };
  auto hmid = [nx, n_corner](index_t i, index_t j) {
    return n_corner + j * nx + i;
  };
  auto vmid = [nnx, n_corner, n_hmid](index_t i, index_t j) {
    return n_corner + n_hmid + j * nnx + i;
  };

  for (index_t j = 0; j < nny; ++j)
    for (index_t i = 0; i < nnx; ++i) {
      const auto n = static_cast<std::size_t>(corner(i, j));
      coords[2 * n] = dx * static_cast<real_t>(i);
      coords[2 * n + 1] = dy * static_cast<real_t>(j);
    }
  for (index_t j = 0; j < nny; ++j)
    for (index_t i = 0; i < nx; ++i) {
      const auto n = static_cast<std::size_t>(hmid(i, j));
      coords[2 * n] = dx * (static_cast<real_t>(i) + 0.5);
      coords[2 * n + 1] = dy * static_cast<real_t>(j);
    }
  for (index_t j = 0; j < ny; ++j)
    for (index_t i = 0; i < nnx; ++i) {
      const auto n = static_cast<std::size_t>(vmid(i, j));
      coords[2 * n] = dx * static_cast<real_t>(i);
      coords[2 * n + 1] = dy * (static_cast<real_t>(j) + 0.5);
    }

  IndexVector conn;
  conn.reserve(static_cast<std::size_t>(nx) * ny * 8);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      // Corners CCW, then midsides of edges 01 (bottom), 12 (right),
      // 23 (top), 30 (left) — the Q8 node order of fem/elements.hpp.
      conn.push_back(corner(i, j));
      conn.push_back(corner(i + 1, j));
      conn.push_back(corner(i + 1, j + 1));
      conn.push_back(corner(i, j + 1));
      conn.push_back(hmid(i, j));
      conn.push_back(vmid(i + 1, j));
      conn.push_back(hmid(i, j + 1));
      conn.push_back(vmid(i, j));
    }
  }
  return Mesh(ElemType::Quad8, std::move(coords), std::move(conn));
}

Mesh structured_hex(index_t nx, index_t ny, index_t nz, real_t lx,
                    real_t ly, real_t lz) {
  PFEM_CHECK(nx >= 1 && ny >= 1 && nz >= 1 && lx > 0 && ly > 0 && lz > 0);
  const index_t nnx = nx + 1, nny = ny + 1, nnz = nz + 1;
  const real_t dx = lx / static_cast<real_t>(nx);
  const real_t dy = ly / static_cast<real_t>(ny);
  const real_t dz = lz / static_cast<real_t>(nz);
  Vector coords(3ull * nnx * nny * nnz);
  auto id = [nnx, nny](index_t i, index_t j, index_t k) {
    return (k * nny + j) * nnx + i;
  };
  for (index_t k = 0; k < nnz; ++k)
    for (index_t j = 0; j < nny; ++j)
      for (index_t i = 0; i < nnx; ++i) {
        const auto n = static_cast<std::size_t>(id(i, j, k));
        coords[3 * n] = dx * static_cast<real_t>(i);
        coords[3 * n + 1] = dy * static_cast<real_t>(j);
        coords[3 * n + 2] = dz * static_cast<real_t>(k);
      }
  IndexVector conn;
  conn.reserve(static_cast<std::size_t>(nx) * ny * nz * 8);
  for (index_t k = 0; k < nz; ++k)
    for (index_t j = 0; j < ny; ++j)
      for (index_t i = 0; i < nx; ++i) {
        // Bottom face CCW (viewed from +z) then the top face.
        conn.push_back(id(i, j, k));
        conn.push_back(id(i + 1, j, k));
        conn.push_back(id(i + 1, j + 1, k));
        conn.push_back(id(i, j + 1, k));
        conn.push_back(id(i, j, k + 1));
        conn.push_back(id(i + 1, j, k + 1));
        conn.push_back(id(i + 1, j + 1, k + 1));
        conn.push_back(id(i, j + 1, k + 1));
      }
  return Mesh(ElemType::Hex8, std::move(coords), std::move(conn));
}

Mesh structured_tri(index_t nx, index_t ny, real_t lx, real_t ly) {
  PFEM_CHECK(nx >= 1 && ny >= 1 && lx > 0 && ly > 0);
  const index_t nnx = nx + 1;
  IndexVector conn;
  conn.reserve(static_cast<std::size_t>(nx) * ny * 6);
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t n0 = j * nnx + i;
      // Lower-left triangle and upper-right triangle, both CCW.
      conn.push_back(n0);
      conn.push_back(n0 + 1);
      conn.push_back(n0 + nnx);
      conn.push_back(n0 + 1);
      conn.push_back(n0 + nnx + 1);
      conn.push_back(n0 + nnx);
    }
  }
  return Mesh(ElemType::Tri3, grid_coords(nx, ny, lx, ly), std::move(conn));
}

}  // namespace pfem::fem
