#include "sparse/sell.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

// SIMD bodies on x86-64, selected at runtime so the binary still runs
// on machines without AVX2/AVX-512F.
// Only mul/add intrinsics are used — never FMA — and each SIMD lane
// performs the scalar kernel's exact per-entry rounding sequence, so
// these paths are bit-identical to the portable loops below (see
// tests/test_kernels.cpp, which runs every body this host supports).
#if defined(__x86_64__) && defined(__GNUC__)
#define PFEM_SELL_X86 1
#include <immintrin.h>
#endif

namespace pfem::sparse {

namespace {

// The stored arrays one kernel body walks.  `col` advances chunk by
// chunk: w*C indices for a generic chunk, w*C/4 for a node-block one.
struct ChunkView {
  index_t nchunks;
  const index_t* chunk_ptr;
  const index_t* slot_row;
  const index_t* col;
  const real_t* val;
  const char* blocked;
};

constexpr int C = SellMatrix::kChunk;

index_t chunk_cols(index_t w, bool blocked) {
  return blocked ? w * (C / 4) : w * C;
}

// Scatter a chunk's C accumulators to their original rows.
inline void store_rows(const real_t* acc, const index_t* rows, real_t* y,
                       bool add) {
  for (int l = 0; l < C; ++l) {
    if (rows[l] < 0) continue;
    if (add) {
      y[rows[l]] += acc[l];
    } else {
      y[rows[l]] = acc[l];
    }
  }
}

// A chunk is node-blocked when every lane pair (2s, 2s+1) is two
// padding slots or two rows with identical columns, and those columns
// arrive in (c, c+1) pairs at even steps: both dofs of a plane-elasticity
// node coupled to each neighbour node's two dofs.
bool node_blocked(const index_t* lanes, std::span<const index_t> rp,
                  std::span<const index_t> ci) {
  for (int s = 0; s < C; s += 2) {
    const index_t r0 = lanes[s];
    const index_t r1 = lanes[s + 1];
    if (r0 < 0 && r1 < 0) continue;
    if (r0 < 0 || r1 < 0) return false;
    const index_t len = rp[r0 + 1] - rp[r0];
    if (len % 2 != 0 || rp[r1 + 1] - rp[r1] != len ||
        !std::equal(ci.begin() + rp[r0], ci.begin() + rp[r0 + 1],
                    ci.begin() + rp[r1]))
      return false;
    for (index_t j = rp[r0]; j < rp[r0 + 1]; j += 2) {
      if (ci[j + 1] != ci[j] + 1) return false;
    }
  }
  return true;
}

// The portable body.  The compiler sees C as a constant and keeps the C
// accumulators in registers.  A node-block chunk's lane l reads the x
// pair of its lane pair's block c = b[t*4 + l/2] — x[c] at step 2t, then
// x[c+1] at step 2t+1, the CSR order; a generic chunk's j-loop walks each
// lane's entries in original CSR column order.  Padded entries carry
// val=0 and fold in as +0.0 times an in-range x entry.
void spmv_chunks(const ChunkView& m, const real_t* x, real_t* y, bool add) {
  const index_t* c = m.col;
  for (index_t k = 0; k < m.nchunks; ++k) {
    const index_t base = m.chunk_ptr[k];
    const index_t w = (m.chunk_ptr[k + 1] - base) / C;
    const real_t* v = m.val + base;
    const bool blocked = m.blocked[k] != 0;
    real_t acc[C];
    for (int l = 0; l < C; ++l) acc[l] = 0.0;
    if (blocked) {
      for (index_t t = 0; t < w / 2; ++t) {
        const real_t* vt = v + static_cast<std::size_t>(t) * 16;
        const index_t* bt = c + static_cast<std::size_t>(t) * 4;
        for (int l = 0; l < C; ++l) acc[l] += vt[l] * x[bt[l / 2]];
        for (int l = 0; l < C; ++l) acc[l] += vt[C + l] * x[bt[l / 2] + 1];
      }
    } else {
      for (index_t j = 0; j < w; ++j) {
        const real_t* vj = v + static_cast<std::size_t>(j) * C;
        const index_t* cj = c + static_cast<std::size_t>(j) * C;
        for (int l = 0; l < C; ++l) acc[l] += vj[l] * x[cj[l]];
      }
    }
    c += chunk_cols(w, blocked);
    store_rows(acc, m.slot_row + static_cast<std::size_t>(k) * C, y, add);
  }
}

#ifdef PFEM_SELL_X86

// GCC's own AVX/AVX-512 headers route several intrinsics (cast/zext/
// insert/permute) through _mm*_undefined_pd(), which -Wmaybe-
// uninitialized flags inside every caller.  Known header false positive
// (GCC bug 105593); silence it for the SIMD bodies only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

bool cpu_has_avx2() {
  static const bool b = __builtin_cpu_supports("avx2");
  return b;
}

bool cpu_has_avx512f() {
  static const bool b = __builtin_cpu_supports("avx512f");
  return b;
}

// Masked-gather wrappers: the plain gather intrinsics leave their source
// operand undefined, which GCC (correctly) flags with -Wmaybe-
// uninitialized; an explicit zero source with an all-ones mask is the
// same operation without the warning.
__attribute__((target("avx2"))) inline __m256d gather4(const real_t* base,
                                                       __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

__attribute__((target("avx512f"))) inline __m512d gather8(const real_t* base,
                                                          __m256i idx) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, base, 8);
}

__attribute__((target("avx2"))) void spmv_chunks8_avx2(const ChunkView& m,
                                                       const real_t* x,
                                                       real_t* y, bool add) {
  const index_t* c = m.col;
  for (index_t k = 0; k < m.nchunks; ++k) {
    const index_t base = m.chunk_ptr[k];
    const index_t w = (m.chunk_ptr[k + 1] - base) / 8;
    const real_t* v = m.val + base;
    const bool blocked = m.blocked[k] != 0;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    if (blocked) {
      for (index_t t = 0; t < w / 2; ++t) {
        const real_t* vt = v + static_cast<std::size_t>(t) * 16;
        const index_t* bt = c + static_cast<std::size_t>(t) * 4;
        // [x[c0] x[c0+1] x[c1] x[c1+1]] and the same for blocks 2, 3;
        // movedup feeds step 2t its x[c], permute feeds step 2t+1 x[c+1].
        const __m256d p01 = _mm256_loadu2_m128d(x + bt[1], x + bt[0]);
        const __m256d p23 = _mm256_loadu2_m128d(x + bt[3], x + bt[2]);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(vt),
                                                 _mm256_movedup_pd(p01)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(vt + 4),
                                                 _mm256_movedup_pd(p23)));
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(vt + 8),
                                                 _mm256_permute_pd(p01, 0xF)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(vt + 12),
                                                 _mm256_permute_pd(p23, 0xF)));
      }
    } else {
      for (index_t j = 0; j < w; ++j) {
        const index_t* cj = c + static_cast<std::size_t>(j) * 8;
        const real_t* vj = v + static_cast<std::size_t>(j) * 8;
        const __m128i i0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cj));
        const __m128i i1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cj + 4));
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(vj), gather4(x, i0)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_loadu_pd(vj + 4), gather4(x, i1)));
      }
    }
    c += chunk_cols(w, blocked);
    alignas(32) real_t a[8];
    _mm256_store_pd(a, acc0);
    _mm256_store_pd(a + 4, acc1);
    store_rows(a, m.slot_row + static_cast<std::size_t>(k) * 8, y, add);
  }
}

__attribute__((target("avx512f"))) void spmv_chunks8_avx512(
    const ChunkView& m, const real_t* x, real_t* y, bool add) {
  const index_t* c = m.col;
  for (index_t k = 0; k < m.nchunks; ++k) {
    const index_t base = m.chunk_ptr[k];
    const index_t w = (m.chunk_ptr[k + 1] - base) / 8;
    const real_t* v = m.val + base;
    const bool blocked = m.blocked[k] != 0;
    __m512d acc = _mm512_setzero_pd();
    // Keep the value stream ~512 B ahead of the loads; the hardware
    // prefetcher alone leaves bandwidth on the table once the matrix
    // falls out of L2.
    if (blocked) {
      for (index_t t = 0; t < w / 2; ++t) {
        const real_t* vt = v + static_cast<std::size_t>(t) * 16;
        const index_t* bt = c + static_cast<std::size_t>(t) * 4;
        _mm_prefetch(reinterpret_cast<const char*>(vt + 64), _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(vt + 72), _MM_HINT_T0);
        // xp = [x[c0] x[c0+1] | x[c1] x[c1+1] | x[c2] x[c2+1] | x[c3]
        // x[c3+1]]: four 128-bit pair loads, no gather.  movedup feeds
        // step 2t each pair's x[c], permute feeds step 2t+1 its x[c+1].
        const __m512d xp = _mm512_insertf64x4(
            _mm512_castpd256_pd512(_mm256_loadu2_m128d(x + bt[1], x + bt[0])),
            _mm256_loadu2_m128d(x + bt[3], x + bt[2]), 1);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_loadu_pd(vt),
                                               _mm512_movedup_pd(xp)));
        acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_loadu_pd(vt + 8),
                                               _mm512_permute_pd(xp, 0xFF)));
      }
    } else {
      for (index_t j = 0; j < w; ++j) {
        const real_t* vj = v + static_cast<std::size_t>(j) * 8;
        const index_t* cj = c + static_cast<std::size_t>(j) * 8;
        _mm_prefetch(reinterpret_cast<const char*>(vj + 64), _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(cj + 128), _MM_HINT_T0);
        const __m256i idx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cj));
        acc = _mm512_add_pd(
            acc, _mm512_mul_pd(_mm512_loadu_pd(vj), gather8(x, idx)));
      }
    }
    c += chunk_cols(w, blocked);
    alignas(64) real_t a[8];
    _mm512_store_pd(a, acc);
    store_rows(a, m.slot_row + static_cast<std::size_t>(k) * 8, y, add);
  }
}

#pragma GCC diagnostic pop

#endif  // PFEM_SELL_X86

}  // namespace

namespace detail {

bool sell_body_available(SellBody body) {
  switch (body) {
    case SellBody::Auto:
    case SellBody::Portable:
      return true;
#ifdef PFEM_SELL_X86
    case SellBody::Avx512:
      return cpu_has_avx512f();
    case SellBody::Avx2:
      return cpu_has_avx2();
#else
    case SellBody::Avx512:
    case SellBody::Avx2:
      return false;
#endif
  }
  return false;
}

void sell_apply(const SellMatrix& a, SellBody body, std::span<const real_t> x,
                std::span<real_t> y, bool add) {
  PFEM_DEBUG_CHECK(x.size() == static_cast<std::size_t>(a.cols_));
  PFEM_DEBUG_CHECK(y.size() == static_cast<std::size_t>(a.rows_));
  if (body == SellBody::Auto) {
    body = sell_body_available(SellBody::Avx512) ? SellBody::Avx512
           : sell_body_available(SellBody::Avx2) ? SellBody::Avx2
                                                 : SellBody::Portable;
  } else {
    PFEM_CHECK_MSG(sell_body_available(body),
                   "SELL kernel body " << static_cast<int>(body)
                                       << " is not available on this CPU");
  }
  const ChunkView m{a.nchunks_,         a.chunk_ptr_.data(),
                    a.slot_row_.data(), a.col_.data(),
                    a.val_.data(),      a.chunk_blocked_.data()};
#ifdef PFEM_SELL_X86
  if (body == SellBody::Avx512) {
    spmv_chunks8_avx512(m, x.data(), y.data(), add);
    return;
  }
  if (body == SellBody::Avx2) {
    spmv_chunks8_avx2(m, x.data(), y.data(), add);
    return;
  }
#endif
  spmv_chunks(m, x.data(), y.data(), add);
}

}  // namespace detail

SellMatrix SellMatrix::from_csr(const CsrMatrix& a) {
  IndexVector all(static_cast<std::size_t>(a.rows()));
  std::iota(all.begin(), all.end(), index_t{0});
  return from_csr_rows(a, all);
}

SellMatrix SellMatrix::from_csr_rows(const CsrMatrix& a,
                                     std::span<const index_t> rows) {
  const auto nr = static_cast<index_t>(rows.size());
  for (const index_t r : rows) PFEM_CHECK(r >= 0 && r < a.rows());

  SellMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.stored_rows_ = nr;
  m.nchunks_ = (nr + C - 1) / C;

  // σ-window sort: within each window of σ subset positions, stable-sort
  // by descending row length.  Stability keeps equal-length rows in the
  // caller's order, so conversion is deterministic.
  IndexVector order(static_cast<std::size_t>(nr));
  std::iota(order.begin(), order.end(), index_t{0});
  const auto rp = a.row_ptr();
  auto len = [&](index_t i) { return rp[rows[i] + 1] - rp[rows[i]]; };
  for (index_t w0 = 0; w0 < nr; w0 += kSigma) {
    const index_t w1 = std::min<index_t>(w0 + kSigma, nr);
    std::stable_sort(order.begin() + w0, order.begin() + w1,
                     [&](index_t i, index_t j) { return len(i) > len(j); });
  }

  // Per chunk: slots, width, class (from the CSR structure) and the
  // size of its column-index run.
  const auto ci = a.col_idx();
  const auto nslots = static_cast<std::size_t>(m.nchunks_) * C;
  m.slot_row_.assign(nslots, index_t{-1});
  m.slot_len_.assign(nslots, index_t{0});
  m.chunk_ptr_.assign(static_cast<std::size_t>(m.nchunks_) + 1, index_t{0});
  m.chunk_blocked_.assign(static_cast<std::size_t>(m.nchunks_), 0);
  std::size_t ncols = 0;
  for (index_t k = 0; k < m.nchunks_; ++k) {
    index_t w = 0;
    for (int l = 0; l < C; ++l) {
      const index_t pos = k * C + l;
      if (pos >= nr) break;
      const index_t row = rows[order[pos]];
      const index_t rl = rp[row + 1] - rp[row];
      m.slot_row_[static_cast<std::size_t>(pos)] = row;
      m.slot_len_[static_cast<std::size_t>(pos)] = rl;
      w = std::max(w, rl);
    }
    m.chunk_ptr_[k + 1] = m.chunk_ptr_[k] + w * C;
    const bool blocked = node_blocked(
        m.slot_row_.data() + static_cast<std::size_t>(k) * C, rp, ci);
    m.chunk_blocked_[static_cast<std::size_t>(k)] = blocked ? 1 : 0;
    ncols += static_cast<std::size_t>(chunk_cols(w, blocked));
  }

  // Fill.  Padding keeps (val 0, col 0); a node-block chunk's padded
  // blocks read the x pair (0, 1), in range since the chunk holds a
  // real block (c, c+1) with c+1 < cols.
  m.col_.assign(ncols, index_t{0});
  m.val_.assign(static_cast<std::size_t>(m.chunk_ptr_.back()), real_t{0.0});
  const auto av = a.values();
  index_t nnz = 0;
  std::size_t cb = 0;
  for (index_t k = 0; k < m.nchunks_; ++k) {
    const index_t base = m.chunk_ptr_[k];
    const index_t w = (m.chunk_ptr_[k + 1] - base) / C;
    const bool blocked = m.chunk_blocked_[static_cast<std::size_t>(k)] != 0;
    for (int l = 0; l < C; ++l) {
      const index_t row = m.slot_row_[static_cast<std::size_t>(k) * C + l];
      if (row < 0) continue;
      const index_t rl = rp[row + 1] - rp[row];
      for (index_t j = 0; j < rl; ++j) {
        m.val_[static_cast<std::size_t>(base + j * C + l)] = av[rp[row] + j];
        if (!blocked) {
          m.col_[cb + static_cast<std::size_t>(j * C + l)] = ci[rp[row] + j];
        } else if (j % 2 == 0) {
          m.col_[cb + static_cast<std::size_t>(j / 2 * (C / 2) + l / 2)] =
              ci[rp[row] + j];
        }
      }
      nnz += rl;
    }
    cb += static_cast<std::size_t>(chunk_cols(w, blocked));
  }
  m.nnz_ = nnz;
  return m;
}

void SellMatrix::spmv(std::span<const real_t> x, std::span<real_t> y) const {
  detail::sell_apply(*this, detail::SellBody::Auto, x, y, false);
}

void SellMatrix::spmv_add(std::span<const real_t> x,
                          std::span<real_t> y) const {
  detail::sell_apply(*this, detail::SellBody::Auto, x, y, true);
}

CsrMatrix SellMatrix::to_csr() const {
  IndexVector row_ptr(static_cast<std::size_t>(rows_) + 1, index_t{0});
  const auto nslots = static_cast<index_t>(slot_row_.size());
  for (index_t s = 0; s < nslots; ++s) {
    if (slot_row_[s] >= 0) row_ptr[slot_row_[s] + 1] = slot_len_[s];
  }
  for (index_t i = 0; i < rows_; ++i) row_ptr[i + 1] += row_ptr[i];

  IndexVector col(static_cast<std::size_t>(row_ptr.back()));
  Vector val(static_cast<std::size_t>(row_ptr.back()));
  const index_t* cb = col_.data();
  for (index_t k = 0; k < nchunks_; ++k) {
    const index_t base = chunk_ptr_[k];
    const index_t w = (chunk_ptr_[k + 1] - base) / C;
    const bool blocked = chunk_blocked_[static_cast<std::size_t>(k)] != 0;
    for (int l = 0; l < C; ++l) {
      const auto slot = static_cast<std::size_t>(k) * C + l;
      const index_t row = slot_row_[slot];
      if (row < 0) continue;
      for (index_t j = 0; j < slot_len_[slot]; ++j) {
        col[row_ptr[row] + j] =
            blocked ? cb[j / 2 * (C / 2) + l / 2] + j % 2 : cb[j * C + l];
        val[row_ptr[row] + j] = val_[base + j * C + l];
      }
    }
    cb += chunk_cols(w, blocked);
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col),
                   std::move(val));
}

}  // namespace pfem::sparse
