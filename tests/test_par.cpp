// Tests for the message-passing runtime (the MPI substitute) and the
// machine cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "core/edd_solver.hpp"
#include "exp/experiments.hpp"
#include "fem/problems.hpp"
#include "net/wait.hpp"
#include "par/comm.hpp"
#include "par/cost_model.hpp"

namespace pfem::par {
namespace {

TEST(Comm, PointToPointDelivers) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      Vector data{1.0, 2.0, 3.0};
      c.send(1, 7, data);
    } else {
      Vector out;
      c.recv(0, 7, out);
      ASSERT_EQ(out.size(), 3u);
      EXPECT_DOUBLE_EQ(out[1], 2.0);
    }
  });
}

TEST(Comm, MessagesWithSameTagStayOrdered) {
  run_spmd(2, [](Comm& c) {
    constexpr int kMsgs = 50;
    if (c.rank() == 0) {
      for (int k = 0; k < kMsgs; ++k) {
        Vector data{static_cast<real_t>(k)};
        c.send(1, 0, data);
      }
    } else {
      Vector out;
      for (int k = 0; k < kMsgs; ++k) {
        c.recv(0, 0, out);
        EXPECT_DOUBLE_EQ(out[0], static_cast<real_t>(k));
      }
    }
  });
}

TEST(Comm, TagsMatchSelectively) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      Vector a{10.0}, b{20.0};
      c.send(1, /*tag=*/2, a);
      c.send(1, /*tag=*/1, b);
    } else {
      Vector out;
      c.recv(0, 1, out);  // delivered second, matched first by tag
      EXPECT_DOUBLE_EQ(out[0], 20.0);
      c.recv(0, 2, out);
      EXPECT_DOUBLE_EQ(out[0], 10.0);
    }
  });
}

TEST(Comm, AllreduceSumScalar) {
  for (int p : {1, 2, 4, 7}) {
    run_spmd(p, [p](Comm& c) {
      const real_t sum = c.allreduce_sum(static_cast<real_t>(c.rank() + 1));
      EXPECT_DOUBLE_EQ(sum, p * (p + 1) / 2.0);
    });
  }
}

TEST(Comm, AllreduceSumVectorDeterministicAcrossRanks) {
  // All ranks must observe bit-identical results.
  constexpr int kP = 5;
  std::vector<Vector> results(kP);
  run_spmd(kP, [&](Comm& c) {
    Vector v(8);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = std::sin(static_cast<real_t>(c.rank()) * 1.7 +
                      static_cast<real_t>(i));
    c.allreduce_sum(v);
    results[static_cast<std::size_t>(c.rank())] = v;
  });
  for (int r = 1; r < kP; ++r)
    for (std::size_t i = 0; i < results[0].size(); ++i)
      EXPECT_EQ(results[0][i], results[static_cast<std::size_t>(r)][i])
          << "bitwise mismatch at rank " << r;
}

TEST(Comm, AllreduceMax) {
  run_spmd(4, [](Comm& c) {
    const real_t m = c.allreduce_max(static_cast<real_t>(-c.rank()));
    EXPECT_DOUBLE_EQ(m, 0.0);
  });
}

TEST(Comm, BarrierOrdersPhases) {
  constexpr int kP = 4;
  std::atomic<int> phase1{0};
  run_spmd(kP, [&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    // After the barrier every rank must see all increments.
    EXPECT_EQ(phase1.load(), kP);
    (void)c;
  });
}

TEST(Comm, ExceptionPropagatesAndTeamUnwinds) {
  // Rank 1 throws; rank 0 is blocked in a barrier and must be released.
  EXPECT_THROW(
      run_spmd(3,
               [](Comm& c) {
                 if (c.rank() == 1) throw Error("rank 1 failed");
                 c.barrier();  // would deadlock without abort handling
               }),
      Error);
}

TEST(Comm, ExceptionWhileBlockedInRecv) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& c) {
                          if (c.rank() == 1) throw Error("boom");
                          Vector out;
                          c.recv(1, 0, out);  // never arrives
                        }),
               Error);
}

TEST(Comm, CountersTrackTrafficOnBothSides) {
  const auto counters = run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      Vector data(10, 1.0);
      c.send(1, 0, data);
    } else {
      Vector out;
      c.recv(0, 0, out);
    }
    (void)c.allreduce_sum(1.0);
  });
  // Send side.
  EXPECT_EQ(counters[0].neighbor_msgs, 1u);
  EXPECT_EQ(counters[0].neighbor_bytes, 80u);
  EXPECT_EQ(counters[0].neighbor_msgs_recv, 0u);
  EXPECT_EQ(counters[1].neighbor_msgs, 0u);
  // Receive side is accounted symmetrically.
  EXPECT_EQ(counters[1].neighbor_msgs_recv, 1u);
  EXPECT_EQ(counters[1].neighbor_bytes_recv, 80u);
  // 80-byte payload lands in the [64, 128) histogram bucket of the sender.
  EXPECT_EQ(counters[0].msg_size_hist[PerfCounters::hist_bucket(80)], 1u);
  EXPECT_EQ(counters[0].global_reductions, 1u);
  EXPECT_EQ(counters[1].global_reductions, 1u);
}

TEST(Comm, RecvIntoPrepostedSpan) {
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      Vector data{4.0, 5.0, 6.0};
      c.send(1, 3, data);
    } else {
      Vector buf(3, 0.0);
      c.recv(0, 3, std::span<real_t>(buf.data(), buf.size()));
      EXPECT_DOUBLE_EQ(buf[0], 4.0);
      EXPECT_DOUBLE_EQ(buf[2], 6.0);
    }
  });
}

TEST(Comm, RecvIntoWrongSizedSpanFails) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& c) {
                          if (c.rank() == 0) {
                            Vector data{1.0, 2.0, 3.0};
                            c.send(1, 0, data);
                          } else {
                            Vector buf(4, 0.0);
                            c.recv(0, 0,
                                   std::span<real_t>(buf.data(), buf.size()));
                          }
                        }),
               Error);
}

TEST(Comm, PingPongLatencyWellUnder50ms) {
  // Regression guard for the seed runtime's 50 ms-granularity polling
  // receive: a notify racing the mailbox scan cost up to 50 ms per recv.
  // 250 round trips must average far below that (they take microseconds
  // on the channel runtime).
  constexpr int kRounds = 250;
  const auto t0 = std::chrono::steady_clock::now();
  run_spmd(2, [](Comm& c) {
    Vector ball(8, 1.0);
    Vector buf(8, 0.0);
    const std::span<real_t> view(buf.data(), buf.size());
    for (int k = 0; k < kRounds; ++k) {
      if (c.rank() == 0) {
        c.send(1, 0, ball);
        c.recv(1, 0, view);
      } else {
        c.recv(0, 0, view);
        c.send(0, 0, ball);
      }
    }
  });
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // 10 ms per round trip is ~50x looser than measured, but a single
  // 50 ms poll per recv would need >= 12 s.
  EXPECT_LT(secs, 0.010 * kRounds);
}

TEST(Comm, WaitTimeSplitIsRecorded) {
  const auto counters = run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      Vector out;
      c.recv(1, 0, out);  // blocks ~20 ms -> neighbor wait
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Vector data{1.0};
      c.send(0, 0, data);
    }
    if (c.rank() == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)c.allreduce_sum(1.0);  // rank 0 waits ~20 ms -> reduction wait
  });
  EXPECT_GT(counters[0].neighbor_wait_seconds, 0.005);
  EXPECT_GT(counters[0].reduce_wait_seconds, 0.005);
  EXPECT_GT(counters[0].total_seconds,
            counters[0].neighbor_wait_seconds +
                counters[0].reduce_wait_seconds - 1e-9);
  EXPECT_GE(counters[0].compute_seconds(), 0.0);
  EXPECT_EQ(counters[1].neighbor_wait_seconds, 0.0);
}

TEST(Comm, AbortWhileBlockedInAllreduce) {
  // Ranks 0 and 1 are inside the reduction tree when rank 2 dies; the
  // whole team must unwind with the originating error.
  EXPECT_THROW(run_spmd(3,
                        [](Comm& c) {
                          if (c.rank() == 2) throw Error("rank 2 failed");
                          (void)c.allreduce_sum(1.0);
                        }),
               Error);
}

TEST(Comm, AbortWhileBlockedInSend) {
  // Rank 0 fills the channel ring (the peer never drains it) and blocks
  // in send; rank 1's failure must release it.
  EXPECT_THROW(run_spmd(2,
                        [](Comm& c) {
                          if (c.rank() == 1) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(20));
                            throw Error("receiver died");
                          }
                          Vector v{1.0};
                          for (int k = 0; k < 4096; ++k) c.send(1, 0, v);
                        }),
               Error);
}

TEST(Comm, ManyMessagesThroughBoundedRing) {
  // More in-flight traffic than the ring has slots: the sender must
  // back-pressure and every message still arrives in order.
  constexpr int kMsgs = 1000;
  run_spmd(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int k = 0; k < kMsgs; ++k) {
        Vector data{static_cast<real_t>(k)};
        c.send(1, 0, data);
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Vector out;
      for (int k = 0; k < kMsgs; ++k) {
        c.recv(0, 0, out);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_DOUBLE_EQ(out[0], static_cast<real_t>(k));
      }
    }
  });
}

// ---- Table-1 exchange accounting and determinism of the full solver ----

TEST(Comm, ExchangeCountsMatchTable1Exactly) {
  // Whole-run exact counts for a capped solve (tolerance unreachable, one
  // restart cycle of `it` inner iterations, polynomial degree `deg`):
  //   Enhanced (Alg. 6): 1 setup + 1 restart residual + it*(deg+1) + 1 final
  //   Basic    (Alg. 5): 1 setup + 2 restart residual + it*(deg+3) + 3 final
  // locking the paper's m+1 vs m+3 per-iteration exchanges.
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);

  core::PolySpec poly;
  poly.kind = core::PolyKind::Gls;
  poly.degree = 5;
  core::SolveOptions opts;
  opts.tol = 1e-300;
  opts.max_iters = 3;
  opts.restart = 25;

  const auto deg = static_cast<std::uint64_t>(poly.degree);
  const auto it = static_cast<std::uint64_t>(opts.max_iters);

  const core::DistSolve enhanced = core::solve_edd(
      part, prob.load, poly, opts, core::EddVariant::Enhanced);
  for (const PerfCounters& c : enhanced.rank_counters)
    EXPECT_EQ(c.neighbor_exchanges, 3 + it * (deg + 1));

  const core::DistSolve basic =
      core::solve_edd(part, prob.load, poly, opts, core::EddVariant::Basic);
  for (const PerfCounters& c : basic.rank_counters)
    EXPECT_EQ(c.neighbor_exchanges, 6 + it * (deg + 3));
}

TEST(Comm, SolveEddIsBitDeterministic) {
  // The tree allreduce folds in a fixed order and broadcasts the root's
  // bytes, so two runs over the same inputs must agree bit for bit.
  fem::CantileverSpec spec;
  spec.nx = 8;
  spec.ny = 4;
  const fem::CantileverProblem prob = fem::make_cantilever(spec);
  const partition::EddPartition part = exp::make_edd(prob, 4);

  core::PolySpec poly;
  core::SolveOptions opts;
  opts.tol = 1e-10;
  const core::DistSolve a = core::solve_edd(part, prob.load, poly, opts);
  const core::DistSolve b = core::solve_edd(part, prob.load, poly, opts);
  ASSERT_TRUE(a.converged && b.converged);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i)
    ASSERT_EQ(a.x[i], b.x[i]) << "bitwise mismatch at dof " << i;
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    ASSERT_EQ(a.history[i], b.history[i]);
}

TEST(Comm, SelfSendRejected) {
  EXPECT_THROW(run_spmd(1,
                        [](Comm& c) {
                          Vector v{1.0};
                          c.send(0, 0, v);
                        }),
               Error);
}

TEST(Counters, DeltaAndAccumulate) {
  PerfCounters a;
  a.flops = 100;
  a.neighbor_msgs = 3;
  PerfCounters b = a;
  b.flops = 150;
  b.global_reductions = 2;
  const PerfCounters d = b.delta_since(a);
  EXPECT_EQ(d.flops, 50u);
  EXPECT_EQ(d.neighbor_msgs, 0u);
  EXPECT_EQ(d.global_reductions, 2u);
  PerfCounters sum;
  sum += a;
  sum += d;
  EXPECT_EQ(sum.flops, 150u);
}

TEST(CostModel, SerialHasNoCommCost) {
  PerfCounters c;
  c.flops = 1000000;
  c.global_reductions = 50;  // ignored at P=1
  c.global_bytes = 400;
  const ModeledTime t =
      model_time(MachineModel::sgi_origin(), std::vector<PerfCounters>{c});
  EXPECT_GT(t.compute, 0.0);
  EXPECT_DOUBLE_EQ(t.neighbor, 0.0);
  EXPECT_DOUBLE_EQ(t.global_comm, 0.0);
}

TEST(CostModel, CommCostScalesWithLatency) {
  PerfCounters c;
  c.flops = 1000;
  c.neighbor_msgs = 100;
  c.neighbor_bytes = 8000;
  c.global_reductions = 10;
  c.global_bytes = 80;
  const std::vector<PerfCounters> ranks(4, c);
  const ModeledTime sp2 = model_time(MachineModel::ibm_sp2(), ranks);
  const ModeledTime origin = model_time(MachineModel::sgi_origin(), ranks);
  // SP2 latency is 4x the Origin's: neighbor time strictly larger.
  EXPECT_GT(sp2.neighbor, origin.neighbor);
  EXPECT_GT(sp2.global_comm, origin.global_comm);
}

TEST(CostModel, SpeedupOfPerfectlySplitWork) {
  PerfCounters serial;
  serial.flops = 8000000;
  PerfCounters quarter;
  quarter.flops = 2000000;  // no comm: ideal speedup 4
  const double s = modeled_speedup(
      MachineModel::sgi_origin(), std::vector<PerfCounters>{serial},
      std::vector<PerfCounters>(4, quarter));
  EXPECT_NEAR(s, 4.0, 1e-9);
}

TEST(CostModel, MaxRankDominates) {
  PerfCounters fast, slow;
  fast.flops = 100;
  slow.flops = 10000;
  const ModeledTime t = model_time(MachineModel::modern_node(),
                                   std::vector<PerfCounters>{fast, slow});
  const ModeledTime t_slow = model_time(MachineModel::modern_node(),
                                        std::vector<PerfCounters>{slow});
  EXPECT_DOUBLE_EQ(t.compute, t_slow.compute);
}

TEST(Team, ReusedAcrossJobsWithFreshCountersEachJob) {
  Team team(4);
  EXPECT_EQ(team.size(), 4);
  for (int job = 0; job < 3; ++job) {
    const auto counters = team.run([&](Comm& c) {
      const real_t total =
          c.allreduce_sum(static_cast<real_t>(c.rank() + job));
      EXPECT_DOUBLE_EQ(total, 6.0 + 4.0 * job);
    });
    ASSERT_EQ(counters.size(), 4u);
    // Counters restart per job — a reused team must not accumulate.
    for (const auto& rc : counters) EXPECT_EQ(rc.global_reductions, 1u);
  }
}

TEST(Team, CancelUnblocksBlockedRecvAndTeamSurvives) {
  Team team(2);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    team.cancel();
  });
  // Both ranks block in recv with nobody sending: only the cancel can
  // release them, and it must surface as Cancelled, not a rank failure.
  EXPECT_THROW(team.run([](Comm& c) {
                 Vector v;
                 c.recv(1 - c.rank(), 0, v);
               }),
               Cancelled);
  canceller.join();
  // The team is reusable after a cancelled job.
  const auto counters = team.run([](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
  });
  EXPECT_EQ(counters.size(), 2u);
}

TEST(Team, SendRecvAgainstCancelledTeamThrowsCancelled) {
  // Ranks that keep issuing comm calls after cancellation hit the abort
  // path on every subsequent op; the job still exits as Cancelled.
  Team team(2);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    team.cancel();
  });
  EXPECT_THROW(team.run([](Comm& c) {
                 Vector v{1.0};
                 for (;;) {
                   if (c.rank() == 0) {
                     c.send(1, 0, v);
                   } else {
                     c.recv(0, 0, v);
                   }
                 }
               }),
               Cancelled);
  canceller.join();
  EXPECT_FALSE(team.cancel_requested());  // consumed by the failed job
}

TEST(Team, CancelWhileIdleDoesNotPoisonNextJob) {
  Team team(2);
  team.cancel();  // no job running: absorbed at the next run()
  const auto counters = team.run([](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
  });
  EXPECT_EQ(counters.size(), 2u);
}

TEST(Team, RankFailureWinsOverConcurrentWork) {
  // A real error in one rank unwinds a reused team with the original
  // error type (not Cancelled), and the team stays usable.
  Team team(2);
  EXPECT_THROW(team.run([](Comm& c) {
                 if (c.rank() == 1) throw Error("rank 1 failed");
                 Vector v;
                 c.recv(1, 0, v);  // released by the abort
               }),
               Error);
  const auto counters = team.run([](Comm& c) {
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
  });
  EXPECT_EQ(counters.size(), 2u);
}

// ---- The one blocking wait (net/wait.hpp) on the collective cells;
// test_net runs the same release points on every transport's channels.

/// Release points of a blocked waiter: while it still spins, after its
/// spin has run out (it is yielding), and after it has parked.
const std::chrono::microseconds kReleaseDelays[] = {
    std::chrono::microseconds(0),
    std::chrono::duration_cast<std::chrono::microseconds>(
        net::detail::kYieldUntil / 2),
    std::chrono::microseconds(2000)};

/// Busy-wait `d`: sleep_for would add the timer slack (about 50 µs)
/// and overshoot the yield phase.
void hold_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Wait, CollectiveWaiterReleasedAtEveryPhaseCompletes) {
  for (const auto delay : kReleaseDelays) {
    SCOPED_TRACE(delay.count());
    run_spmd(3, [&](Comm& c) {
      // Rank 0 waits on rank 2's reduction cell, rank 1 on the
      // broadcast; then ranks 0 and 2 wait in the barrier for rank 1.
      if (c.rank() == 2) hold_for(delay);
      EXPECT_DOUBLE_EQ(c.allreduce_sum(static_cast<real_t>(c.rank() + 1)),
                       6.0);
      if (c.rank() == 1) hold_for(delay);
      c.barrier();
    });
  }
}

TEST(Wait, CancelWakesRanksParkedInCollectives) {
  // Rank 0 parks on rank 1's reduction cell while rank 1 parks in the
  // barrier: neither can ever be satisfied, only the abort frees them.
  Team team(2);
  std::atomic<int> entered{0};
  std::thread canceller([&] {
    while (entered.load() < 2) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    team.cancel();
  });
  EXPECT_THROW(team.run([&](Comm& c) {
                 entered.fetch_add(1);
                 if (c.rank() == 0)
                   (void)c.allreduce_sum(1.0);
                 else
                   c.barrier();
               }),
               Cancelled);
  canceller.join();
}

TEST(Wait, ArmedTimeoutInACollectiveIsTyped) {
  Team team(2);
  team.set_comm_timeout(0.05);
  try {
    (void)team.run([](Comm& c) {
      if (c.rank() == 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      (void)c.allreduce_sum(1.0);  // rank 0 parks on rank 1's cell
    });
    FAIL() << "expected par::CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Timeout);
    EXPECT_EQ(e.rank(), 0);
  }
}

}  // namespace
}  // namespace pfem::par
