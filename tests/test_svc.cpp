// Tests for the warm-path solve stack: PolySpec validation, setup
// accounting, the fused multi-RHS batch solver (core/edd_batch), and
// the solve service (svc) — caching, batching, deadlines, backpressure,
// cancellation, shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_kernels.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "svc/job_queue.hpp"
#include "svc/operator_cache.hpp"
#include "svc/service.hpp"
#include "svc/stats.hpp"

namespace pfem {
namespace {

constexpr int kRanks = 4;

struct Scene {
  fem::CantileverProblem prob;
  std::shared_ptr<const partition::EddPartition> part;
  core::PolySpec poly;
};

Scene make_scene(int nx = 16, int ny = 6) {
  fem::CantileverSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  fem::CantileverProblem prob = fem::make_cantilever(spec);
  auto part = std::make_shared<const partition::EddPartition>(
      exp::make_edd(prob, kRanks));
  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 5;
  return Scene{std::move(prob), std::move(part), poly};
}

/// n RHS with genuinely different directions, so per-RHS convergence
/// (and the fused solver's done-set dropout) actually diverges.
std::vector<Vector> varied_rhs(const Scene& s, int n) {
  std::vector<Vector> rhs;
  for (int i = 0; i < n; ++i) {
    Vector f = s.prob.load;
    for (std::size_t k = 0; k < f.size(); ++k)
      f[k] = f[k] * (1.0 + 0.2 * i) +
             0.01 * static_cast<real_t>((k * (i + 1)) % 7);
    rhs.push_back(std::move(f));
  }
  return rhs;
}

double rel_err(const Vector& a, const Vector& b) {
  real_t num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

// ---------------------------------------------------------------- PolySpec

TEST(PolySpecValidation, RejectsNonPositiveDegree) {
  core::PolySpec p;
  p.kind = core::PolyKind::Gls;
  p.degree = 0;
  EXPECT_THROW(core::validate_poly_spec(p), Error);
  p.kind = core::PolyKind::Neumann;
  p.degree = -3;
  EXPECT_THROW(core::validate_poly_spec(p), Error);
  p.kind = core::PolyKind::Chebyshev;
  p.degree = 0;
  EXPECT_THROW(core::validate_poly_spec(p), Error);
}

TEST(PolySpecValidation, NoneIgnoresDegree) {
  core::PolySpec p;
  p.kind = core::PolyKind::None;
  p.degree = -1;
  EXPECT_NO_THROW(core::validate_poly_spec(p));
}

TEST(PolySpecValidation, ChebyshevNeedsOneStrictlyPositiveInterval) {
  core::PolySpec p;
  p.kind = core::PolyKind::Chebyshev;
  p.degree = 5;
  p.theta = {};
  EXPECT_THROW(core::validate_poly_spec(p), Error);
  p.theta = {{0.1, 0.5}, {0.7, 1.9}};  // multi-interval has no Chebyshev form
  EXPECT_THROW(core::validate_poly_spec(p), Error);
  p.theta = {{0.0, 1.9}};  // 0 included
  EXPECT_THROW(core::validate_poly_spec(p), Error);
  p.theta = {{0.5, 0.1}};  // not an interval
  EXPECT_THROW(core::validate_poly_spec(p), Error);
  p.theta = {{0.1, 1.9}};
  EXPECT_NO_THROW(core::validate_poly_spec(p));
}

TEST(PolySpecValidation, SolveEntryRejectsBadSpecWithClearError) {
  const Scene s = make_scene(8, 4);
  core::PolySpec bad;
  bad.kind = core::PolyKind::Chebyshev;
  bad.degree = 4;
  bad.theta = {{0.1, 0.5}, {0.7, 1.9}};
  try {
    (void)core::solve_edd(*s.part, s.prob.load, bad);
    FAIL() << "expected pfem::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Chebyshev"), std::string::npos);
  }
}

// ------------------------------------------------------------ setup split

TEST(SetupCounters, CoverPreconditionerBuildNotJustScaling) {
  const Scene s = make_scene(8, 4);
  core::PolySpec none;
  none.kind = core::PolyKind::None;
  const auto r_none = core::solve_edd(*s.part, s.prob.load, none);
  const auto r_gls = core::solve_edd(*s.part, s.prob.load, s.poly);
  // The GLS run's setup slice must include the Stieltjes basis build on
  // top of the (identical) scaling work.
  EXPECT_GT(r_gls.setup_counters[0].flops, r_none.setup_counters[0].flops);
  EXPECT_GT(r_gls.setup_counters[0].total_seconds, 0.0);
}

TEST(BuildOperator, ProducesScaledMatricesAndPrebuiltPolynomial) {
  const Scene s = make_scene(8, 4);
  par::Team team(kRanks);
  const auto op = core::build_edd_operator(team, *s.part, s.poly);
  ASSERT_EQ(op.a.size(), static_cast<std::size_t>(kRanks));
  ASSERT_EQ(op.d.size(), static_cast<std::size_t>(kRanks));
  EXPECT_NE(op.gls, nullptr);
  EXPECT_EQ(op.cheb, nullptr);
  EXPECT_GT(op.setup_seconds, 0.0);
  ASSERT_EQ(op.setup_counters.size(), static_cast<std::size_t>(kRanks));
  // Each rank did the scaling exchange and was charged the poly build.
  for (const auto& c : op.setup_counters) {
    EXPECT_EQ(c.neighbor_exchanges, 1u);
    EXPECT_GT(c.flops, 0u);
  }
}

// ------------------------------------------------------------- batch solve

TEST(BatchSolve, MatchesSequentialSolvePerRhs) {
  const Scene s = make_scene();
  const auto rhs = varied_rhs(s, 3);
  par::Team team(kRanks);
  const auto op = core::build_edd_operator(team, *s.part, s.poly);
  const auto batch = core::solve_edd_batch(team, *s.part, op, rhs);
  ASSERT_EQ(batch.x.size(), 3u);
  for (int b = 0; b < 3; ++b) {
    const auto single = core::solve_edd(*s.part, rhs[static_cast<std::size_t>(b)], s.poly);
    ASSERT_TRUE(single.converged);
    ASSERT_TRUE(batch.items[static_cast<std::size_t>(b)].converged);
    EXPECT_LE(batch.items[static_cast<std::size_t>(b)].final_relres, 1e-6);
    EXPECT_LT(rel_err(batch.x[static_cast<std::size_t>(b)], single.x), 1e-8);
  }
}

TEST(BatchSolve, FusedExchangeCountDoesNotScaleWithBatchSize) {
  const Scene s = make_scene();
  par::Team team(kRanks);
  const auto op = core::build_edd_operator(team, *s.part, s.poly);
  // Scalar multiples of one RHS converge identically, so iteration
  // counts match and the exchange counts are directly comparable.
  std::vector<Vector> one{s.prob.load};
  std::vector<Vector> four;
  for (int i = 0; i < 4; ++i) {
    Vector f = s.prob.load;
    for (real_t& v : f) v *= static_cast<real_t>(i + 1);
    four.push_back(std::move(f));
  }
  const auto r1 = core::solve_edd_batch(team, *s.part, op, one);
  const auto r4 = core::solve_edd_batch(team, *s.part, op, four);
  ASSERT_EQ(r1.items[0].iterations, r4.items[0].iterations);
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto& c1 = r1.rank_counters[static_cast<std::size_t>(rank)];
    const auto& c4 = r4.rank_counters[static_cast<std::size_t>(rank)];
    // One fused message round per exchange regardless of batch width.
    EXPECT_EQ(c4.neighbor_exchanges, c1.neighbor_exchanges);
    EXPECT_EQ(c4.global_reductions, c1.global_reductions);
    // ...while the arithmetic genuinely scales with the batch.
    EXPECT_GT(c4.flops, 3 * c1.flops);
  }
}

TEST(BatchSolve, ZeroRhsIsExactImmediately) {
  const Scene s = make_scene(8, 4);
  par::Team team(kRanks);
  const auto op = core::build_edd_operator(team, *s.part, s.poly);
  std::vector<Vector> rhs{Vector(s.prob.load.size(), 0.0), s.prob.load};
  const auto r = core::solve_edd_batch(team, *s.part, op, rhs);
  EXPECT_TRUE(r.items[0].converged);
  EXPECT_EQ(r.items[0].iterations, 0);
  for (const real_t v : r.x[0]) EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(r.items[1].converged);
  EXPECT_GT(r.items[1].iterations, 0);
}

TEST(BatchSolve, HonorsLocalMatrixOverride) {
  const Scene s = make_scene(8, 4);
  par::Team team(kRanks);
  auto stiffened = std::vector<sparse::CsrMatrix>();
  for (const auto& sub : s.part->subs) {
    sparse::CsrMatrix k = sub.k_loc;
    for (real_t& v : k.values()) v *= 4.0;
    stiffened.push_back(std::move(k));
  }
  const auto op = core::build_edd_operator(team, *s.part, s.poly);
  const auto op4 = core::build_edd_operator(team, *s.part, s.poly, &stiffened);
  std::vector<Vector> rhs{s.prob.load};
  const auto r = core::solve_edd_batch(team, *s.part, op, rhs);
  const auto r4 = core::solve_edd_batch(team, *s.part, op4, rhs);
  ASSERT_TRUE(r.items[0].converged && r4.items[0].converged);
  // (4K) x = f  =>  x = (K^-1 f) / 4.
  Vector quarter = r.x[0];
  for (real_t& v : quarter) v /= 4.0;
  EXPECT_LT(rel_err(r4.x[0], quarter), 1e-6);
}

TEST(BatchSolve, DeflatedOperatorMatchesUndeflatedSolution) {
  const Scene s = make_scene();
  par::Team team(kRanks);
  core::DeflationOptions defl;
  defl.enabled = true;
  const auto plain = core::build_edd_operator(team, *s.part, s.poly);
  const auto defd =
      core::build_edd_operator(team, *s.part, s.poly, nullptr, nullptr, {},
                               defl);
  ASSERT_NE(defd.coarse, nullptr);
  EXPECT_EQ(plain.coarse, nullptr);
  const auto rhs = varied_rhs(s, 3);
  const auto r0 = core::solve_edd_batch(team, *s.part, plain, rhs);
  const auto rd = core::solve_edd_batch(team, *s.part, defd, rhs);
  for (std::size_t b = 0; b < rhs.size(); ++b) {
    ASSERT_TRUE(r0.items[b].converged);
    ASSERT_TRUE(rd.items[b].converged);
    EXPECT_LT(rel_err(rd.x[b], r0.x[b]), 1e-6);
  }
  for (int rank = 0; rank < kRanks; ++rank) {
    EXPECT_GT(rd.rank_counters[static_cast<std::size_t>(rank)].coarse_solves,
              0u);
    EXPECT_EQ(r0.rank_counters[static_cast<std::size_t>(rank)].coarse_solves,
              0u);
  }
}

TEST(BatchSolve, DeflatedBatchIsBitwiseDeterministic) {
  const Scene s = make_scene();
  par::Team team(kRanks);
  core::DeflationOptions defl;
  defl.enabled = true;
  const auto op =
      core::build_edd_operator(team, *s.part, s.poly, nullptr, nullptr, {},
                               defl);
  const auto rhs = varied_rhs(s, 2);
  const auto a = core::solve_edd_batch(team, *s.part, op, rhs);
  const auto b = core::solve_edd_batch(team, *s.part, op, rhs);
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    ASSERT_TRUE(a.items[i].converged && b.items[i].converged);
    EXPECT_EQ(a.items[i].iterations, b.items[i].iterations);
    for (std::size_t k = 0; k < a.x[i].size(); ++k)
      EXPECT_EQ(a.x[i][k], b.x[i][k]) << "rhs " << i << " dof " << k;
  }
}

TEST(BatchSolve, ReportsTrivialRhsAndHonestRestarts) {
  const Scene s = make_scene(8, 4);
  par::Team team(kRanks);
  const auto op = core::build_edd_operator(team, *s.part, s.poly);
  std::vector<Vector> rhs{Vector(s.prob.load.size(), 0.0), s.prob.load};
  const auto r = core::solve_edd_batch(team, *s.part, op, rhs);
  EXPECT_TRUE(r.items[0].trivial_rhs);
  EXPECT_TRUE(r.items[0].converged);
  EXPECT_EQ(r.items[0].restarts, 0);
  EXPECT_FALSE(r.items[1].trivial_rhs);
  // The real solve finished well inside the default restart length: a
  // first-cycle convergence reports zero RE-starts.
  ASSERT_TRUE(r.items[1].converged);
  EXPECT_EQ(r.items[1].restarts, 0);
  EXPECT_FALSE(r.items[1].breakdown);
}

// ---------------------------------------------------------------- JobQueue

TEST(JobQueue, AdmissionBoundAndPriorityOrder) {
  svc::JobQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, svc::Priority::Normal));
  EXPECT_TRUE(q.try_push(2, svc::Priority::High));
  EXPECT_FALSE(q.try_push(3, svc::Priority::High));  // full: shed
  EXPECT_EQ(q.pop().value(), 2);                     // high first
  EXPECT_EQ(q.pop().value(), 1);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, DrainMatchingRemovesAcrossPriorities) {
  svc::JobQueue<int> q(8);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(q.try_push(int(i), i % 2 ? svc::Priority::High
                                         : svc::Priority::Normal));
  const auto evens = q.drain_matching([](int v) { return v % 2 == 0; }, 2);
  EXPECT_EQ(evens.size(), 2u);
  EXPECT_EQ(q.size(), 4u);
  const auto gone = q.remove_if([](int v) { return v == 5; });
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(*gone, 5);
  EXPECT_FALSE(q.remove_if([](int v) { return v == 99; }).has_value());
}

TEST(JobQueue, FifoWithinEachPriorityClass) {
  svc::JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(10, svc::Priority::Normal));
  ASSERT_TRUE(q.try_push(90, svc::Priority::High));
  ASSERT_TRUE(q.try_push(11, svc::Priority::Normal));
  ASSERT_TRUE(q.try_push(91, svc::Priority::High));
  // High overtakes Normal, but admission order is preserved inside each
  // class — the service's fairness contract.
  EXPECT_EQ(q.pop().value(), 90);
  EXPECT_EQ(q.pop().value(), 91);
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 11);
}

TEST(JobQueue, RejectedPushLeavesCapacityAccountingIntact) {
  svc::JobQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1, svc::Priority::Normal));
  EXPECT_FALSE(q.try_push(2, svc::Priority::Normal));
  EXPECT_FALSE(q.try_push(3, svc::Priority::High));  // cap spans classes
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(4, svc::Priority::High));  // slot freed
  EXPECT_EQ(q.pop().value(), 4);
}

TEST(JobQueue, CloseDrainsQueuedJobsThenReportsClosed) {
  // Drain-style shutdown: close() refuses new work but queued jobs stay
  // poppable until empty — then pop() reports closed with nullopt.
  svc::JobQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1, svc::Priority::Normal));
  ASSERT_TRUE(q.try_push(2, svc::Priority::High));
  q.close();
  EXPECT_FALSE(q.try_push(3, svc::Priority::High));
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueue, DrainAllEmptiesBothClassesInPriorityOrder) {
  svc::JobQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1, svc::Priority::Normal));
  ASSERT_TRUE(q.try_push(2, svc::Priority::High));
  ASSERT_TRUE(q.try_push(3, svc::Priority::Normal));
  const auto all = q.drain_all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], 2);  // high first, then normals FIFO
  EXPECT_EQ(all[1], 1);
  EXPECT_EQ(all[2], 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, CloseWakesABlockedConsumer) {
  svc::JobQueue<int> q(4);
  std::thread consumer([&] {
    const auto got = q.pop();  // blocks until close()
    EXPECT_FALSE(got.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

// ----------------------------------------------------------- OperatorCache

TEST(OperatorCache, LruEvictsBuiltStateButKeepsRecipe) {
  const Scene s = make_scene(8, 4);
  par::Team team(kRanks);
  svc::OperatorCache cache(/*capacity=*/1);
  cache.register_operator("a", s.part, s.poly);
  cache.register_operator("b", s.part, s.poly);
  auto [sa, hit_a] = cache.get_or_build("a", team);
  EXPECT_FALSE(hit_a);
  auto [sb, hit_b] = cache.get_or_build("b", team);  // evicts a
  EXPECT_FALSE(hit_b);
  EXPECT_EQ(cache.built_count(), 1u);
  auto [sa2, hit_a2] = cache.get_or_build("a", team);  // rebuild
  EXPECT_FALSE(hit_a2);
  auto [sa3, hit_a3] = cache.get_or_build("a", team);
  EXPECT_TRUE(hit_a3);
  EXPECT_TRUE(cache.contains("b"));  // recipe survives eviction
  // Evicted-but-handed-out state stays valid through the shared_ptr.
  EXPECT_EQ(sb->a.size(), static_cast<std::size_t>(kRanks));
}

// --------------------------------------------------------- LatencyRecorder

using svc::LatencyRecorder;
using svc::LatencySnapshot;

/// Exact nearest-rank percentile of a sorted sample set.
double nearest_rank(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  const auto k = static_cast<std::size_t>(std::ceil(p * n));
  return sorted[std::min(sorted.size() - 1, k == 0 ? 0 : k - 1)];
}

void expect_ordered(const LatencySnapshot& s) {
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(LatencyRecorder, MillionRecordsKeepExactTotalsInFixedStorage) {
  // All state is inline — the bucket array and three scalars — so the
  // footprint is the same after 10^6 records as before the first.
  static_assert(LatencyRecorder::kBuckets < 1024);
  EXPECT_LE(sizeof(LatencyRecorder),
            sizeof(std::mutex) +
                (LatencyRecorder::kBuckets + 3) * sizeof(std::uint64_t));
  LatencyRecorder rec;
  double sum = 0.0, max = 0.0;
  for (std::int64_t i = 0; i < 1'000'000; ++i) {
    const double v = 1e-4 * static_cast<double>(1 + i * 7919 % 100'003);
    rec.record(v);
    sum += v;
    max = std::max(max, v);
  }
  const LatencySnapshot s = rec.snapshot();
  EXPECT_EQ(s.count, 1'000'000u);
  EXPECT_EQ(s.mean, sum / 1e6);
  EXPECT_EQ(s.max, max);
  expect_ordered(s);
}

TEST(LatencyRecorder, PercentilesWithinOneBucketAboveNearestRank) {
  // Bucket edge ratio 10^(1/78) < 1.03: a reported percentile is never
  // below the exact nearest-rank sample and less than 3% above it.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    LatencyRecorder rec;
    std::vector<double> samples;
    for (int i = 0; i < 20'000; ++i) {
      const double v = 1e-5 * std::pow(10.0, rng.uniform(0.0, 6.0));
      samples.push_back(v);
      rec.record(v);
    }
    std::sort(samples.begin(), samples.end());
    const LatencySnapshot s = rec.snapshot();
    const std::pair<double, double> got[] = {
        {0.50, s.p50}, {0.90, s.p90}, {0.99, s.p99}};
    for (const auto& [p, value] : got) {
      const double exact = nearest_rank(samples, p);
      EXPECT_GE(value, exact) << "p" << p << " seed " << seed;
      EXPECT_LE(value, exact * 1.03) << "p" << p << " seed " << seed;
    }
    EXPECT_EQ(s.max, samples.back());
    expect_ordered(s);
  }
}

TEST(LatencyRecorder, SingleSampleReportsItselfExactly) {
  // Inside the range, on a bucket edge, under 1 us and over 1e4 s.
  for (const double v : {0.0123, 1e-6, 3e-9, 0.0, 2e4}) {
    LatencyRecorder rec;
    rec.record(v);
    const LatencySnapshot s = rec.snapshot();
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.mean, v);
    EXPECT_EQ(s.p50, v);
    EXPECT_EQ(s.p90, v);
    EXPECT_EQ(s.p99, v);
    EXPECT_EQ(s.max, v);
  }
  EXPECT_EQ(LatencyRecorder().snapshot().count, 0u);
}

TEST(LatencyRecorder, PercentilesStayOrderedUpToMax) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    LatencyRecorder rec;
    const int n = rng.uniform_index(1, 60);
    for (int i = 0; i < n; ++i) {
      // Mostly in range, with repeats, underflow and overflow mixed in.
      const int kind = rng.uniform_index(0, 9);
      const double v = kind == 0   ? 1e-8
                       : kind == 1 ? 5e4
                       : kind == 2 ? 0.25
                                   : std::pow(10.0, rng.uniform(-7.0, 5.0));
      rec.record(v);
    }
    expect_ordered(rec.snapshot());
  }
}

// ------------------------------------------------------------------ Service

svc::SolveRequest make_request(const Scene& s, const std::string& key,
                               real_t scale = 1.0) {
  svc::SolveRequest req;
  req.operator_key = key;
  Vector f = s.prob.load;
  for (real_t& v : f) v *= scale;
  req.rhs.push_back(std::move(f));
  return req;
}

TEST(Service, SolvesAndCachesOperator) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  auto first = service.submit(make_request(s, "op")).outcome.get();
  ASSERT_TRUE(svc::ok(first));
  EXPECT_FALSE(std::get<svc::Completed>(first).cache_hit);
  EXPECT_TRUE(std::get<svc::Completed>(first).result.items[0].converged);

  auto second = service.submit(make_request(s, "op", 2.0)).outcome.get();
  ASSERT_TRUE(svc::ok(second));
  EXPECT_TRUE(std::get<svc::Completed>(second).cache_hit);

  const auto st = service.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_GE(st.cache_hits, 1u);
  EXPECT_GT(service.latency().count, 0u);
  service.shutdown();
}

TEST(Service, DeflationConfigBakesCoarseStateIntoCachedOperator) {
  // A key's deflation is operator state: the coarse factorization is
  // built once, cached with the scaled matrices, and reused on a cache
  // hit — every deflated solve stamps coarse_solves on its counters.
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  core::DeflationOptions deflation;
  deflation.enabled = true;
  service.register_operator("op", s.part, s.poly, nullptr, deflation);

  auto first = service.submit(make_request(s, "op")).outcome.get();
  ASSERT_TRUE(svc::ok(first));
  const auto& c1 = std::get<svc::Completed>(first);
  EXPECT_FALSE(c1.cache_hit);
  ASSERT_TRUE(c1.result.items[0].converged);
  for (const auto& c : c1.result.rank_counters)
    EXPECT_GT(c.coarse_solves, 0u);

  auto second = service.submit(make_request(s, "op", 2.0)).outcome.get();
  ASSERT_TRUE(svc::ok(second));
  const auto& c2 = std::get<svc::Completed>(second);
  EXPECT_TRUE(c2.cache_hit);  // coarse factor reused, not rebuilt
  ASSERT_TRUE(c2.result.items[0].converged);
  for (const auto& c : c2.result.rank_counters)
    EXPECT_GT(c.coarse_solves, 0u);
  service.shutdown();
}

TEST(Service, SurfacesTrivialRhsFlagThroughOutcome) {
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);
  svc::SolveRequest req;
  req.operator_key = "op";
  req.rhs.push_back(Vector(s.prob.load.size(), 0.0));
  auto out = service.submit(std::move(req)).outcome.get();
  ASSERT_TRUE(svc::ok(out));
  const auto& item = std::get<svc::Completed>(out).result.items[0];
  EXPECT_TRUE(item.trivial_rhs);
  EXPECT_TRUE(item.converged);
  EXPECT_EQ(item.iterations, 0);
  service.shutdown();
}

TEST(Service, PausedBurstCoalescesIntoOneFusedBatch) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);
  ASSERT_TRUE(svc::ok(service.submit(make_request(s, "op")).outcome.get()));
  const auto warm = service.stats();

  service.set_paused(true);
  std::vector<std::future<svc::Outcome>> pending;
  for (int i = 0; i < 4; ++i)
    pending.push_back(
        service.submit(make_request(s, "op", 1.0 + i)).outcome);
  service.set_paused(false);
  for (auto& f : pending) {
    const auto o = f.get();
    ASSERT_TRUE(svc::ok(o));
    EXPECT_TRUE(std::get<svc::Completed>(o).cache_hit);
  }
  const auto st = service.stats();
  EXPECT_EQ(st.batches - warm.batches, 1u);  // 4 requests, ONE fused solve
  EXPECT_EQ(st.rhs_solved - warm.rhs_solved, 4u);
  service.shutdown();
}

TEST(Service, RejectsUnknownOperatorAndBadRequests) {
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  auto unknown = service.submit(make_request(s, "nope")).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(unknown));
  EXPECT_EQ(std::get<svc::Rejected>(unknown).reason,
            svc::RejectReason::UnknownOperator);

  svc::SolveRequest empty;
  empty.operator_key = "op";
  auto bad = service.submit(std::move(empty)).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(bad));
  EXPECT_EQ(std::get<svc::Rejected>(bad).reason,
            svc::RejectReason::BadRequest);

  svc::SolveRequest short_rhs;
  short_rhs.operator_key = "op";
  short_rhs.rhs.push_back(Vector(3, 1.0));
  auto wrong = service.submit(std::move(short_rhs)).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(wrong));
  EXPECT_EQ(std::get<svc::Rejected>(wrong).reason,
            svc::RejectReason::BadRequest);
  service.shutdown();
}

TEST(Service, DeadlineRejectedAtAdmissionAndAtDispatch) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  // Admission: already expired -> immediate typed rejection, no hang.
  auto expired = make_request(s, "op");
  expired.deadline = svc::Clock::now() - std::chrono::milliseconds(1);
  auto r1 = service.submit(std::move(expired)).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(r1));
  EXPECT_EQ(std::get<svc::Rejected>(r1).reason,
            svc::RejectReason::DeadlineExceeded);

  // Dispatch: expires while held in the paused queue.
  service.set_paused(true);
  auto queued = make_request(s, "op");
  queued.deadline = svc::Clock::now() + std::chrono::milliseconds(20);
  auto fut = service.submit(std::move(queued)).outcome;
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  service.set_paused(false);
  auto r2 = fut.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(r2));
  EXPECT_EQ(std::get<svc::Rejected>(r2).reason,
            svc::RejectReason::DeadlineExceeded);

  const auto st = service.stats();
  EXPECT_EQ(st.rejected_deadline, 2u);
  service.shutdown();
}

TEST(Service, WatchdogCancelsMidSolveOnDeadline) {
  // A solve that cannot converge (tol below attainable) runs until the
  // deadline watchdog cancels the team; the client gets a typed
  // rejection, the service survives and completes the next request.
  const Scene s = make_scene(24, 8);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  auto hopeless = make_request(s, "op");
  hopeless.opts.tol = 1e-300;  // unattainable
  hopeless.opts.max_iters = 100000000;
  hopeless.deadline = svc::Clock::now() + std::chrono::milliseconds(50);
  const auto t0 = svc::Clock::now();
  auto outcome = service.submit(std::move(hopeless)).outcome.get();
  const auto waited = svc::Clock::now() - t0;
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(outcome));
  EXPECT_EQ(std::get<svc::Rejected>(outcome).reason,
            svc::RejectReason::DeadlineExceeded);
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 10.0);

  auto after = service.submit(make_request(s, "op")).outcome.get();
  ASSERT_TRUE(svc::ok(after));
  service.shutdown();
}

TEST(Service, QueueFullShedsTypedRejection) {
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  cfg.queue_capacity = 2;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);
  service.set_paused(true);

  // First job: wait until the (paused) scheduler holds it, so the queue
  // is demonstrably empty before the fill — makes the overflow point
  // deterministic rather than racing the scheduler's pop.
  std::vector<std::future<svc::Outcome>> pending;
  pending.push_back(service.submit(make_request(s, "op")).outcome);
  for (int spin = 0; service.queue_depth() > 0 && spin < 2000; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(service.queue_depth(), 0u);

  // Fill the queue to capacity, then one more: it must be refused.
  for (int i = 0; i < 2; ++i)
    pending.push_back(service.submit(make_request(s, "op")).outcome);
  auto overflow = service.submit(make_request(s, "op"));
  auto shed = overflow.outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(shed));
  EXPECT_EQ(std::get<svc::Rejected>(shed).reason,
            svc::RejectReason::QueueFull);

  service.set_paused(false);
  for (auto& f : pending) EXPECT_TRUE(svc::ok(f.get()));
  EXPECT_GE(service.stats().rejected_queue_full, 1u);
  service.shutdown();
}

TEST(Service, CancelQueuedAndRunningJobs) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  // Queued: pause, submit two, cancel the second while it waits.
  service.set_paused(true);
  auto first = service.submit(make_request(s, "op"));
  auto second = service.submit(make_request(s, "op"));
  EXPECT_TRUE(service.cancel(second.id));
  service.set_paused(false);
  EXPECT_TRUE(svc::ok(first.outcome.get()));
  EXPECT_TRUE(std::holds_alternative<svc::Cancelled>(second.outcome.get()));

  // Running: an unconvergeable solve is cancelled mid-flight.
  auto hopeless = make_request(s, "op");
  hopeless.opts.tol = 1e-300;
  hopeless.opts.max_iters = 100000000;
  auto running = service.submit(std::move(hopeless));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(service.cancel(running.id));
  EXPECT_TRUE(
      std::holds_alternative<svc::Cancelled>(running.outcome.get()));
  EXPECT_FALSE(service.cancel(running.id));  // already finished

  // The team survives the abort and keeps serving.
  EXPECT_TRUE(svc::ok(service.submit(make_request(s, "op")).outcome.get()));
  service.shutdown();
}

TEST(Service, UpdateOperatorInvalidatesCacheAndChangesSolution) {
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  auto base = service.submit(make_request(s, "op")).outcome.get();
  ASSERT_TRUE(svc::ok(base));

  auto stiffened = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : s.part->subs) {
    sparse::CsrMatrix k = sub.k_loc;
    for (real_t& v : k.values()) v *= 4.0;
    stiffened->push_back(std::move(k));
  }
  service.update_operator("op", stiffened);
  auto scaled = service.submit(make_request(s, "op")).outcome.get();
  ASSERT_TRUE(svc::ok(scaled));
  EXPECT_FALSE(std::get<svc::Completed>(scaled).cache_hit);  // rebuilt
  EXPECT_EQ(service.stats().cache_misses, 2u);

  Vector quarter = std::get<svc::Completed>(base).result.x[0];
  for (real_t& v : quarter) v /= 4.0;
  EXPECT_LT(rel_err(std::get<svc::Completed>(scaled).result.x[0], quarter),
            1e-6);
  service.shutdown();
}

TEST(Service, ShutdownDrainsThenRefusesNewWork) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);

  std::vector<std::future<svc::Outcome>> pending;
  for (int i = 0; i < 3; ++i)
    pending.push_back(service.submit(make_request(s, "op", 1.0 + i)).outcome);
  service.shutdown(/*drain=*/true);
  for (auto& f : pending) EXPECT_TRUE(svc::ok(f.get()));

  auto refused = service.submit(make_request(s, "op")).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(refused));
  EXPECT_EQ(std::get<svc::Rejected>(refused).reason,
            svc::RejectReason::ShuttingDown);
}

// ---------------------------------------------------------------- sessions

/// Per-rank matrix copies with the diagonal scaled by (1 + drift): a
/// deterministic SPD-preserving drifting operator for session streams.
std::shared_ptr<const std::vector<sparse::CsrMatrix>> drifted(
    const Scene& s, real_t drift) {
  auto mats = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : s.part->subs) {
    sparse::CsrMatrix a = sub.k_loc;
    const auto rp = a.row_ptr();
    const auto ci = a.col_idx();
    auto vals = a.values();
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t k = rp[static_cast<std::size_t>(i)];
           k < rp[static_cast<std::size_t>(i) + 1]; ++k)
        if (ci[static_cast<std::size_t>(k)] == i)
          vals[static_cast<std::size_t>(k)] *= 1.0 + drift;
    mats->push_back(std::move(a));
  }
  return mats;
}

TEST(Session, WarmStartReplaysBitIdenticalAndReducesIterations) {
  const Scene s = make_scene();

  struct Stream {
    std::vector<int> cold, warm;
    std::vector<Vector> x;  ///< warm-lane solutions, per step
    std::uint64_t warm_rhs = 0;
  };
  // One drifting trace: per step, drift the operator + RHS and solve
  // cold (session-less) then warm (session).
  const auto run_stream = [&]() {
    svc::ServiceConfig cfg;
    cfg.nranks = kRanks;
    svc::Service service(cfg);
    service.register_operator("op", s.part, s.poly);
    const svc::SessionId sid = service.open_session("op");
    EXPECT_NE(sid, svc::kNoSession);
    Stream out;
    for (int t = 0; t < 4; ++t) {
      if (t > 0) service.update_operator("op", drifted(s, 0.01 * t));
      for (const bool warm : {false, true}) {
        svc::SolveRequest req = make_request(s, "op", 1.0 + 0.02 * t);
        req.session = warm ? sid : svc::kNoSession;
        const svc::Outcome o = service.submit(std::move(req)).outcome.get();
        const auto* c = std::get_if<svc::Completed>(&o);
        EXPECT_NE(c, nullptr);
        if (c == nullptr) return out;  // ASSERT can't cross the lambda
        (warm ? out.warm : out.cold)
            .push_back(c->result.items.at(0).iterations);
        if (warm) out.x.push_back(c->result.x.at(0));
      }
    }
    out.warm_rhs = service.stats().warm_rhs;
    service.shutdown(/*drain=*/true);
    return out;
  };

  const Stream a = run_stream();
  const Stream b = run_stream();

  // Same session, same trace => same iteration counts AND bitwise-equal
  // solutions, run to run (the replay contract).
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(a.warm, b.warm);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);

  // Step 0's warm solve has no state yet; every later one does.
  EXPECT_EQ(a.warm_rhs, 3u);
  int cold_total = 0, warm_total = 0;
  for (std::size_t i = 1; i < a.cold.size(); ++i) {
    cold_total += a.cold[i];
    warm_total += a.warm[i];
  }
  EXPECT_LT(warm_total, cold_total);
}

TEST(Session, AdmissionRejectsUnknownAndMismatchedSessions) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("a", s.part, s.poly);
  service.register_operator("b", s.part, s.poly);

  EXPECT_EQ(service.open_session("no-such-operator"), svc::kNoSession);
  const svc::SessionId sid = service.open_session("a");
  ASSERT_NE(sid, svc::kNoSession);

  svc::SolveRequest unknown = make_request(s, "a");
  unknown.session = sid + 999;
  const svc::Outcome o1 = service.submit(std::move(unknown)).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(o1));
  EXPECT_EQ(std::get<svc::Rejected>(o1).reason,
            svc::RejectReason::UnknownSession);

  svc::SolveRequest mismatched = make_request(s, "b");
  mismatched.session = sid;  // pinned to "a"
  const svc::Outcome o2 = service.submit(std::move(mismatched)).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Rejected>(o2));
  EXPECT_EQ(std::get<svc::Rejected>(o2).reason, svc::RejectReason::BadRequest);

  EXPECT_TRUE(service.close_session(sid));
  EXPECT_FALSE(service.close_session(sid));  // already closed
  service.shutdown(/*drain=*/true);
}

TEST(Session, OperatorCacheEvictionDropsStateButKeepsHandle) {
  const Scene s = make_scene();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  cfg.cache_capacity = 1;  // building any second operator evicts the first
  svc::Service service(cfg);
  service.register_operator("a", s.part, s.poly);
  service.register_operator("b", s.part, s.poly);
  const svc::SessionId sid = service.open_session("a");
  ASSERT_NE(sid, svc::kNoSession);

  const auto solve = [&](const std::string& key, svc::SessionId id) {
    svc::SolveRequest req = make_request(s, key);
    req.session = id;
    const svc::Outcome o = service.submit(std::move(req)).outcome.get();
    EXPECT_TRUE(svc::ok(o));
    return svc::ok(o)
               ? std::get<svc::Completed>(o).result.items.at(0).iterations
               : -1;
  };

  solve("a", sid);  // builds 'a' and deposits the session's first state
  // Warm replay of the identical RHS starts at the solution: ~free.
  const int warm = solve("a", sid);
  EXPECT_EQ(service.stats().warm_rhs, 1u);
  EXPECT_EQ(service.stats().sessions_evicted, 0u);

  // Building 'b' LRU-evicts 'a' — and with it the session's state.
  solve("b", svc::kNoSession);
  EXPECT_EQ(service.stats().sessions_evicted, 1u);

  // The handle survives eviction; the next solve just runs cold again.
  const int after = solve("a", sid);
  EXPECT_EQ(service.stats().warm_rhs, 1u);  // no warm lane this time
  EXPECT_GT(after, warm);
  EXPECT_TRUE(service.close_session(sid));
  service.shutdown(/*drain=*/true);
}

// ------------------------------------------------- degenerate operators

/// Local-matrix override with every coefficient of one global dof's row
/// and column zeroed on every rank: norm-1 scaling meets an all-zero
/// row at build time and must throw the typed BadOperatorError.
std::shared_ptr<const std::vector<sparse::CsrMatrix>> zeroed_dof_override(
    const Scene& s, index_t dead_dof) {
  auto mats = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : s.part->subs) {
    sparse::CsrMatrix k = sub.k_loc;
    const auto rp = k.row_ptr();
    const auto ci = k.col_idx();
    const auto vals = k.values();  // mutable span
    for (index_t i = 0; i < k.rows(); ++i) {
      const index_t gi = sub.local_to_global[static_cast<std::size_t>(i)];
      for (index_t p = rp[static_cast<std::size_t>(i)];
           p < rp[static_cast<std::size_t>(i) + 1]; ++p) {
        const index_t gj = sub.local_to_global[static_cast<std::size_t>(
            ci[static_cast<std::size_t>(p)])];
        if (gi == dead_dof || gj == dead_dof)
          vals[static_cast<std::size_t>(p)] = 0.0;
      }
    }
    mats->push_back(std::move(k));
  }
  return mats;
}

TEST(ServiceBadOperator, DegenerateBuildFailsTypedAndIsRequestScoped) {
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("good", s.part, s.poly);
  service.register_operator("dead", s.part, s.poly,
                            zeroed_dof_override(s, /*dead_dof=*/5));

  // The degenerate build surfaces as Failed{BadOperator} — not a crash,
  // not a retry loop, not a generic SolveError.
  const svc::Outcome bad = service.submit(make_request(s, "dead")).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Failed>(bad));
  {
    const auto& f = std::get<svc::Failed>(bad);
    EXPECT_EQ(f.reason, svc::FailReason::BadOperator);
    EXPECT_FALSE(f.comm);
    EXPECT_NE(f.error.find("row"), std::string::npos) << f.error;
  }

  // Request-scoped: the shard keeps serving other operators...
  const svc::Outcome good = service.submit(make_request(s, "good")).outcome.get();
  ASSERT_TRUE(svc::ok(good));

  // ...the failed build never entered the cache (no retry burned a
  // slot, no poisoned state) and a resubmit is deterministically typed
  // again.
  const auto st1 = service.stats();
  const svc::Outcome again = service.submit(make_request(s, "dead")).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Failed>(again));
  EXPECT_EQ(std::get<svc::Failed>(again).reason,
            svc::FailReason::BadOperator);
  EXPECT_EQ(service.stats().failed, st1.failed + 1);
  EXPECT_EQ(service.stats().retries, 0u);

  // And the key itself is healthy: swapping real matrices back in
  // revives it without re-registering.
  service.update_operator("dead", nullptr);
  const svc::Outcome fixed = service.submit(make_request(s, "dead")).outcome.get();
  EXPECT_TRUE(svc::ok(fixed));
  service.shutdown(/*drain=*/true);
}

TEST(ServiceBadOperator, InfEntryBuildFailsTyped) {
  // An Inf stiffness entry has no norm-1 scaling: the build must fail as
  // Failed{BadOperator}, never complete as a NaN operator "converged" in
  // 0 iterations.
  const Scene s = make_scene(8, 4);
  auto mats = std::make_shared<std::vector<sparse::CsrMatrix>>();
  for (const auto& sub : s.part->subs) mats->push_back(sub.k_loc);
  mats->back().values()[0] = std::numeric_limits<real_t>::infinity();
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("inf", s.part, s.poly, mats);
  const svc::Outcome out = service.submit(make_request(s, "inf")).outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Failed>(out));
  EXPECT_EQ(std::get<svc::Failed>(out).reason, svc::FailReason::BadOperator);
  service.shutdown(/*drain=*/true);
}

TEST(ServiceAdmission, InvalidSolveInputIsRejectedBeforeQueueing) {
  // The solvers' own input check runs at admission: a non-finite RHS
  // entry, a bad tol or restart = 0 is Rejected{BadRequest} with the
  // check's message — never queued, never Failed, never "converged".
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("op", s.part, s.poly);
  std::vector<svc::SolveRequest> bad(4, make_request(s, "op"));
  bad[0].rhs[0][2] = std::numeric_limits<real_t>::quiet_NaN();
  bad[1].rhs[0][2] = -std::numeric_limits<real_t>::infinity();
  bad[2].opts.tol = -1.0;
  bad[3].opts.restart = 0;
  for (svc::SolveRequest& req : bad) {
    const std::string msg = core::solve_input_error(req.opts, req.rhs[0]);
    ASSERT_FALSE(msg.empty());
    const svc::Outcome out = service.submit(std::move(req)).outcome.get();
    ASSERT_TRUE(std::holds_alternative<svc::Rejected>(out)) << msg;
    const auto& r = std::get<svc::Rejected>(out);
    EXPECT_EQ(r.reason, svc::RejectReason::BadRequest);
    EXPECT_EQ(r.detail, msg);
  }
  const auto st = service.stats();
  EXPECT_EQ(st.rejected_other, 4u);
  EXPECT_EQ(st.completed + st.failed, 0u);
  EXPECT_EQ(st.cache_misses, 0u);  // nothing was built
  EXPECT_TRUE(svc::ok(service.submit(make_request(s, "op")).outcome.get()));
  service.shutdown(/*drain=*/true);
}

TEST(ServiceBadOperator, MismatchedDeflationIsRejectedAtRegistration) {
  // Per-operator deflation is validated against the partition's dof
  // count when the recipe is registered — a layout for the wrong family
  // must never reach a solve thread.
  const Scene s = make_scene(8, 4);
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  core::DeflationOptions defl;
  defl.enabled = true;
  defl.components = 2;
  defl.coord_dim = 3;  // 3-D table on the 2-D cantilever
  defl.dof_coords = fem::free_dof_coords(s.prob.mesh, s.prob.dofs);
  EXPECT_THROW(service.register_operator("op", s.part, s.poly, nullptr, defl),
               BadOperatorError);
  service.shutdown();
}

TEST(ServiceMixedTenants, PerOperatorDeflationServesDifferentFamilies) {
  // One service, two tenants with incompatible coarse-space layouts:
  // the scalar hetero2d family (components = 1, jump-aware) and the
  // paper's elasticity cantilever (components = 2).  Each key carries
  // its own DeflationOptions; both must solve, deflated, side by side.
  fem::ProblemSpec hs = fem::default_spec("hetero2d");
  hs.jump = 1.0e4;
  hs.aligned = false;
  hs.checker = 3;
  const fem::FamilyProblem hetero = fem::make_problem(hs);
  auto hpart = std::make_shared<const partition::EddPartition>(
      exp::make_edd(hetero, kRanks));
  const Scene s = make_scene();

  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  svc::Service service(cfg);
  service.register_operator("hetero", hpart, s.poly, nullptr,
                            exp::family_deflation(hetero, true));
  core::DeflationOptions edefl;
  edefl.enabled = true;
  edefl.components = 2;
  edefl.coord_dim = 2;
  edefl.dof_coords = fem::free_dof_coords(s.prob.mesh, s.prob.dofs);
  service.register_operator("elastic", s.part, s.poly, nullptr, edefl);

  svc::SolveRequest hreq;
  hreq.operator_key = "hetero";
  hreq.rhs.push_back(hetero.prob.load);
  const svc::Outcome ho = service.submit(std::move(hreq)).outcome.get();
  ASSERT_TRUE(svc::ok(ho));
  EXPECT_TRUE(std::get<svc::Completed>(ho).result.items[0].converged);
  // The coarse correction genuinely ran on the scalar tenant.
  EXPECT_GT(std::get<svc::Completed>(ho)
                .result.rank_counters[0]
                .coarse_solves,
            0u);

  const svc::Outcome eo = service.submit(make_request(s, "elastic")).outcome.get();
  ASSERT_TRUE(svc::ok(eo));
  EXPECT_TRUE(std::get<svc::Completed>(eo).result.items[0].converged);
  service.shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace pfem
