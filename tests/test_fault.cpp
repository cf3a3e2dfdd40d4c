// Deterministic fault injection (src/fault) end to end: plan
// generation, the injector's one-shot/replay contract, the runtime's
// channel-level fault hooks and timeouts, typed solver degradation,
// service retry with deterministic backoff, and the seeded chaos sweep
// (ChaosSweep.* — labeled chaos;slow in CMake).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chaos_harness.hpp"
#include "core/edd_batch.hpp"
#include "core/edd_solver.hpp"
#include "core/rdd_solver.hpp"
#include "fault/fault.hpp"
#include "net/socket_transport.hpp"
#include "obs/trace.hpp"
#include "par/comm.hpp"
#include "svc/service.hpp"

namespace pfem {
namespace {

using fault::FaultAction;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::FaultSpec;
using fault::FaultType;
using fault::Op;
using fault::PlannedFault;

// ------------------------------------------------------------- plan

TEST(FaultPlan, SameSeedSamePlanDifferentSeedDiffers) {
  FaultSpec spec;
  spec.nranks = 4;
  spec.nfaults = 4;
  const FaultPlan a = FaultPlan::generate(17, spec);
  const FaultPlan b = FaultPlan::generate(17, spec);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.describe(), b.describe());
  const FaultPlan c = FaultPlan::generate(18, spec);
  EXPECT_NE(a.faults, c.faults);
}

TEST(FaultPlan, SitesRespectTheSpec) {
  FaultSpec spec;
  spec.nranks = 4;
  spec.nfaults = 6;
  spec.max_seq = 32;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = FaultPlan::generate(seed, spec);
    EXPECT_FALSE(plan.faults.empty()) << "seed " << seed;
    for (const PlannedFault& f : plan.faults) {
      EXPECT_GE(f.site.rank, 0);
      EXPECT_LT(f.site.rank, spec.nranks);
      EXPECT_LT(f.site.seq, spec.max_seq);
      if (f.site.op == Op::Collective) {
        EXPECT_EQ(f.site.peer, -1);
      } else {
        EXPECT_GE(f.site.peer, 0);
        EXPECT_LT(f.site.peer, spec.nranks);
        EXPECT_NE(f.site.peer, f.site.rank);
      }
      // Wire faults originate at the sender.
      if (f.action.type == FaultType::Drop ||
          f.action.type == FaultType::Duplicate) {
        EXPECT_EQ(f.site.op, Op::Send) << plan.describe();
      }
    }
    // Sorted and unique by site.
    for (std::size_t i = 1; i < plan.faults.size(); ++i)
      EXPECT_TRUE(plan.faults[i - 1].site < plan.faults[i].site);
  }
}

TEST(FaultPlan, TypeFlagsRestrictGeneration) {
  FaultSpec spec;
  spec.nranks = 4;
  spec.nfaults = 8;
  spec.drop = spec.duplicate = spec.stall = spec.crash = false;  // delay only
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    for (const PlannedFault& f : FaultPlan::generate(seed, spec).faults)
      EXPECT_EQ(f.action.type, FaultType::Delay);
}

TEST(FaultPlan, AtMostOneAbortingCapsDropsAndCrashes) {
  FaultSpec spec;
  spec.nranks = 4;
  spec.nfaults = 8;
  spec.at_most_one_aborting = true;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    int aborting = 0;
    for (const PlannedFault& f : FaultPlan::generate(seed, spec).faults)
      if (f.action.type == FaultType::Drop ||
          f.action.type == FaultType::Crash)
        ++aborting;
    EXPECT_LE(aborting, 1) << "seed " << seed;
  }
}

TEST(FaultPlan, DescribeNamesEveryFault) {
  FaultSpec spec;
  spec.nfaults = 5;
  const FaultPlan plan = FaultPlan::generate(3, spec);
  const std::string d = plan.describe();
  for (const PlannedFault& f : plan.faults)
    EXPECT_NE(d.find(fault::fault_type_name(f.action.type)),
              std::string::npos);
}

// ---------------------------------------------------------- backoff

TEST(Backoff, DeterministicCappedAndJittered) {
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double a = fault::backoff_seconds(0.01, 0.1, attempt, 42);
    const double b = fault::backoff_seconds(0.01, 0.1, attempt, 42);
    EXPECT_EQ(a, b);  // bitwise replayable
    const double nominal = std::min(0.01 * std::pow(2.0, attempt), 0.1);
    EXPECT_GE(a, 0.5 * nominal);
    EXPECT_LE(a, nominal);
  }
  // Different seeds draw different jitter.
  EXPECT_NE(fault::backoff_seconds(0.01, 0.1, 0, 1),
            fault::backoff_seconds(0.01, 0.1, 0, 2));
}

// --------------------------------------------------------- injector

TEST(Injector, FiresOnceLogsInOrderAndResets) {
  FaultPlan plan;
  plan.seed = 1;
  plan.nranks = 2;
  plan.faults = {
      {FaultSite{0, 1, Op::Send, 3}, FaultAction{FaultType::Delay, 1e-3}},
      {FaultSite{1, -1, Op::Collective, 0}, FaultAction{FaultType::Crash, 0}},
  };
  FaultInjector inj(plan);

  EXPECT_EQ(inj.fire(FaultSite{0, 1, Op::Send, 2}), nullptr);  // not planned
  const FaultAction* a = inj.fire(FaultSite{0, 1, Op::Send, 3});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->type, FaultType::Delay);
  EXPECT_EQ(inj.fire(FaultSite{0, 1, Op::Send, 3}), nullptr);  // one-shot

  ASSERT_EQ(inj.events(0).size(), 1u);
  EXPECT_EQ(inj.events(0)[0].site, (FaultSite{0, 1, Op::Send, 3}));
  EXPECT_TRUE(inj.events(1).empty());
  EXPECT_EQ(inj.all_events().size(), 1u);

  inj.reset();
  EXPECT_TRUE(inj.all_events().empty());
  EXPECT_NE(inj.fire(FaultSite{0, 1, Op::Send, 3}), nullptr);  // re-armed
}

// ------------------------------------------------- channel-level faults

constexpr int kRanks = chaos::kRanks;

FaultPlan one_fault(FaultSite site, FaultAction action) {
  FaultPlan plan;
  plan.nranks = kRanks;
  plan.faults = {{site, action}};
  return plan;
}

/// `iters` ring exchanges (every rank sends to rank+1, receives from
/// rank-1) with content checks, then one allreduce.  Any payload
/// corruption — e.g. a duplicate that is not absorbed — lands in
/// `corrupt`.
std::function<void(par::Comm&)> ring_job(int iters,
                                         std::atomic<int>& corrupt) {
  return [iters, &corrupt](par::Comm& c) {
    const int r = c.rank();
    const int n = c.size();
    const int to = (r + 1) % n;
    const int from = (r + n - 1) % n;
    Vector buf;
    real_t acc = 0.0;
    for (int i = 0; i < iters; ++i) {
      const Vector msg{static_cast<real_t>(r * 1000 + i),
                       static_cast<real_t>(i)};
      c.send(to, 7, msg);
      c.recv(from, 7, buf);
      if (buf.size() != 2 ||
          buf[0] != static_cast<real_t>(from * 1000 + i) ||
          buf[1] != static_cast<real_t>(i))
        corrupt.fetch_add(1, std::memory_order_relaxed);
      acc += buf[0];
    }
    (void)c.allreduce_sum(acc);
  };
}

TEST(CommFaults, DelayCompletesAndCounts) {
  FaultInjector inj(one_fault(FaultSite{1, 2, Op::Send, 3},
                              FaultAction{FaultType::Delay, 1e-3}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  std::atomic<int> corrupt{0};
  const auto counters = team.run(ring_job(8, corrupt));
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(counters[1].fault_delays, 1u);
  ASSERT_EQ(inj.events(1).size(), 1u);
  EXPECT_EQ(inj.events(1)[0].action.type, FaultType::Delay);
}

TEST(CommFaults, DuplicateIsAbsorbedByWireSequenceNumbers) {
  FaultInjector inj(one_fault(FaultSite{2, 3, Op::Send, 1},
                              FaultAction{FaultType::Duplicate, 0}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  std::atomic<int> corrupt{0};
  const auto counters = team.run(ring_job(8, corrupt));
  EXPECT_EQ(corrupt.load(), 0);  // receiver saw every message exactly once
  EXPECT_EQ(counters[2].fault_dups, 1u);
}

TEST(CommFaults, DropIsDetectedAsAWireSeqGapAtTheReceiver) {
  // The dropped message consumes a wire seq, so the receiver's next
  // take sees a gap and fails typed *immediately* — the stream can
  // never silently shift onto the following message.
  FaultInjector inj(one_fault(FaultSite{0, 1, Op::Send, 2},
                              FaultAction{FaultType::Drop, 0}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.5);
  std::atomic<int> corrupt{0};
  try {
    (void)team.run(ring_job(8, corrupt));
    FAIL() << "expected par::CommError";
  } catch (const par::CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Lost);
    EXPECT_EQ(e.rank(), 1);  // the starved receiver, not the dropper
    EXPECT_EQ(e.op(), Op::Recv);
    EXPECT_NE(std::string(e.what()).find("lost"), std::string::npos);
  }
  EXPECT_EQ(corrupt.load(), 0);  // the shifted payload was never delivered
}

TEST(CommFaults, DropOfTheFinalMessageFallsBackToATimeout) {
  // No later message exists to reveal the gap, so the deadline is the
  // backstop that keeps the receiver from hanging.
  FaultInjector inj(one_fault(FaultSite{0, 1, Op::Send, 3},
                              FaultAction{FaultType::Drop, 0}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.15);
  std::atomic<int> corrupt{0};
  try {
    (void)team.run(ring_job(4, corrupt));
    FAIL() << "expected par::CommError";
  } catch (const par::CommError& e) {
    // Several ranks can hit their deadline near-simultaneously (the
    // starved receiver, plus ranks waiting on it in the allreduce), so
    // only the kind is deterministic.
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Timeout);
  }
}

TEST(CommFaults, CrashSurfacesTypedWithSite) {
  FaultInjector inj(one_fault(FaultSite{3, 0, Op::Send, 0},
                              FaultAction{FaultType::Crash, 0}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.5);
  std::atomic<int> corrupt{0};
  try {
    (void)team.run(ring_job(8, corrupt));
    FAIL() << "expected par::CommError";
  } catch (const par::CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Crash);
    EXPECT_EQ(e.rank(), 3);
    EXPECT_NE(std::string(e.what()).find("injected crash"),
              std::string::npos);
  }
}

TEST(CommFaults, CollectiveCrashUnwindsTheWholeTeam) {
  FaultInjector inj(one_fault(FaultSite{2, -1, Op::Collective, 0},
                              FaultAction{FaultType::Crash, 0}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.5);
  EXPECT_THROW((void)team.run([](par::Comm& c) { c.barrier(); }),
               par::CommError);
}

TEST(CommFaults, StallShorterThanTimeoutCompletes) {
  FaultInjector inj(one_fault(FaultSite{1, 2, Op::Send, 0},
                              FaultAction{FaultType::Stall, 0.02}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.5);
  std::atomic<int> corrupt{0};
  const auto counters = team.run(ring_job(4, corrupt));
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(counters[1].fault_stalls, 1u);
}

TEST(CommFaults, StallLongerThanTimeoutBecomesATypedTimeout) {
  FaultInjector inj(one_fault(FaultSite{1, 2, Op::Send, 0},
                              FaultAction{FaultType::Stall, 5.0}));
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.1);
  std::atomic<int> corrupt{0};
  try {
    (void)team.run(ring_job(4, corrupt));
    FAIL() << "expected par::CommError";
  } catch (const par::CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Timeout);
  }
}

TEST(CommFaults, TimeoutFiresWithoutAnyInjectedFault) {
  par::Team team(2);
  team.set_comm_timeout(0.1);
  try {
    (void)team.run([](par::Comm& c) {
      if (c.rank() == 1) {
        Vector v;
        c.recv(0, 9, v);  // rank 0 never sends
      }
    });
    FAIL() << "expected par::CommError";
  } catch (const par::CommError& e) {
    EXPECT_EQ(e.kind(), fault::CommErrorKind::Timeout);
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.peer(), 0);
  }
}

TEST(CommFaults, FaultSpansMatchFaultCounters) {
  // In-process version of the pfem_trace --counters cross-check: for a
  // completed job, per-rank fault_* counters and per-lane fault_* spans
  // must agree exactly.
  FaultPlan plan;
  plan.nranks = kRanks;
  plan.faults = {
      {FaultSite{0, 1, Op::Send, 1}, FaultAction{FaultType::Delay, 1e-3}},
      {FaultSite{1, 2, Op::Send, 0}, FaultAction{FaultType::Duplicate, 0}},
      {FaultSite{2, 3, Op::Send, 2}, FaultAction{FaultType::Duplicate, 0}},
      {FaultSite{3, -1, Op::Collective, 0},
       FaultAction{FaultType::Stall, 2e-3}},
  };
  FaultInjector inj(plan);
  par::Team team(kRanks);
  team.set_fault_injector(&inj);
  obs::Trace trace(kRanks);
  std::atomic<int> corrupt{0};
  const auto counters = team.run(ring_job(8, corrupt), &trace);
  EXPECT_EQ(corrupt.load(), 0);
  for (int r = 0; r < kRanks; ++r) {
    std::map<std::string, std::uint64_t> spans;
    for (const obs::Record& rec : trace.rank(r).records())
      if (rec.kind == obs::Record::Kind::Span &&
          std::string(rec.name).rfind("fault_", 0) == 0)
        ++spans[rec.name];
    EXPECT_EQ(spans["fault_delay"], counters[r].fault_delays) << "rank " << r;
    EXPECT_EQ(spans["fault_dup"], counters[r].fault_dups) << "rank " << r;
    EXPECT_EQ(spans["fault_stall"], counters[r].fault_stalls) << "rank " << r;
    EXPECT_EQ(spans["fault_drop"], counters[r].fault_drops) << "rank " << r;
  }
}

// ------------------------------------------------- typed solver reports

TEST(SolverFaults, BatchReturnsTypedPartialReportOnCrash) {
  const chaos::Scene& s = chaos::scene();
  par::Team team(kRanks);
  // Build cleanly first, then arm the injector so the fault lands
  // mid-solve, after some iterations wrote history.
  const core::EddOperatorState op =
      core::build_edd_operator(team, *s.part, s.poly);
  FaultInjector inj(one_fault(FaultSite{1, -1, Op::Collective, 5},
                              FaultAction{FaultType::Crash, 0}));
  team.set_fault_injector(&inj);
  team.set_comm_timeout(0.5);
  const std::vector<Vector> rhs{s.prob.load};
  const core::BatchSolveResult r =
      core::solve_edd_batch(team, *s.part, op, rhs);
  ASSERT_TRUE(r.comm_failed());
  EXPECT_NE(r.comm_error.find("injected crash"), std::string::npos);
  EXPECT_TRUE(r.x.empty());  // never hand out corrupt solutions
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_FALSE(r.items[0].converged);
  EXPECT_EQ(r.items[0].comm_error, r.comm_error);
}

TEST(SolverFaults, SolveEddReturnsTypedPartialReportOnCrash) {
  const chaos::Scene& s = chaos::scene();
  FaultInjector inj(one_fault(FaultSite{2, -1, Op::Collective, 40},
                              FaultAction{FaultType::Crash, 0}));
  core::SolveOptions opts;
  opts.observe.fault_injector = &inj;
  opts.observe.comm_timeout_seconds = 0.5;
  const core::DistSolve r =
      core::solve_edd(*s.part, s.prob.load, s.poly, opts);
  ASSERT_TRUE(r.comm_failed());
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.x.empty());
  EXPECT_EQ(r.history.size(), static_cast<std::size_t>(r.iterations));
}

TEST(SolverFaults, SolveRddReturnsTypedPartialReportOnCrash) {
  const chaos::Scene& s = chaos::scene();
  const partition::RddPartition part = exp::make_rdd(s.prob, kRanks);
  FaultInjector inj(one_fault(FaultSite{1, -1, Op::Collective, 30},
                              FaultAction{FaultType::Crash, 0}));
  core::SolveOptions opts;
  opts.observe.fault_injector = &inj;
  opts.observe.comm_timeout_seconds = 0.5;
  const core::DistSolve r =
      core::solve_rdd(part, s.prob.load, core::RddOptions{}, opts);
  ASSERT_TRUE(r.comm_failed());
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.x.empty());
}

// --------------------------------------------------- service retries

svc::ServiceConfig chaos_service_config(FaultInjector* inj,
                                        int max_attempts) {
  svc::ServiceConfig cfg;
  cfg.nranks = kRanks;
  cfg.fault_injector = inj;
  cfg.comm_timeout_seconds = 0.5;
  cfg.retry.max_attempts = max_attempts;
  cfg.retry.base_backoff_seconds = 1e-3;
  cfg.retry.max_backoff_seconds = 5e-3;
  return cfg;
}

TEST(ServiceRetry, RetriesPastAOneShotCrashAndCompletes) {
  const chaos::Scene& s = chaos::scene();
  FaultInjector inj(one_fault(FaultSite{1, -1, Op::Collective, 0},
                              FaultAction{FaultType::Crash, 0}));
  svc::Service service(chaos_service_config(&inj, 3));
  service.register_operator("k", s.part, s.poly);
  svc::SolveRequest req;
  req.operator_key = "k";
  req.rhs = {s.prob.load};
  req.seed = 1234;
  auto sub = service.submit(std::move(req));
  const svc::Outcome out = sub.outcome.get();
  ASSERT_TRUE(svc::ok(out)) << "retry should have recovered";
  const auto& c = std::get<svc::Completed>(out);
  EXPECT_TRUE(c.result.items.at(0).converged);
  for (const auto& rc : c.result.rank_counters)
    EXPECT_EQ(rc.fault_retries, 1u);  // one re-dispatch recorded
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.comm_failures, 1u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(ServiceRetry, ExhaustedRetriesDegradeToTypedFailure) {
  const chaos::Scene& s = chaos::scene();
  // One crash per attempt: rank 1's collective seq k is reached only on
  // attempt k+1 (earlier seqs are consumed one-shot), so every attempt
  // dies deterministically.
  FaultPlan plan;
  plan.nranks = kRanks;
  plan.faults = {
      {FaultSite{1, -1, Op::Collective, 0}, FaultAction{FaultType::Crash, 0}},
      {FaultSite{1, -1, Op::Collective, 1}, FaultAction{FaultType::Crash, 0}},
  };
  FaultInjector inj(plan);
  svc::Service service(chaos_service_config(&inj, 2));
  service.register_operator("k", s.part, s.poly);
  svc::SolveRequest req;
  req.operator_key = "k";
  req.rhs = {s.prob.load};
  auto sub = service.submit(std::move(req));
  const svc::Outcome out = sub.outcome.get();
  ASSERT_TRUE(std::holds_alternative<svc::Failed>(out));
  const auto& f = std::get<svc::Failed>(out);
  EXPECT_TRUE(f.comm);
  EXPECT_NE(f.error.find("after 2 attempt(s)"), std::string::npos);
  const svc::ServiceStats st = service.stats();
  EXPECT_EQ(st.comm_failures, 2u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 0u);
}

TEST(ServiceRetry, NoFaultsMeansNoRetriesAndZeroStampedCounters) {
  const chaos::Scene& s = chaos::scene();
  svc::Service service(chaos_service_config(nullptr, 3));
  service.register_operator("k", s.part, s.poly);
  svc::SolveRequest req;
  req.operator_key = "k";
  req.rhs = {s.prob.load};
  auto sub = service.submit(std::move(req));
  const svc::Outcome out = sub.outcome.get();
  ASSERT_TRUE(svc::ok(out));
  for (const auto& rc : std::get<svc::Completed>(out).result.rank_counters)
    EXPECT_EQ(rc.fault_retries, 0u);
  EXPECT_EQ(service.stats().retries, 0u);
}

// -------------------------------------------------------- chaos sweep

/// The full 64-seed sweep over one channel substrate.  Fault injection
/// sits above the transport seam, so the identical contract must hold
/// on the in-process rings and on the socket wire.
void chaos_sweep_all_seeds(const chaos::TransportFactory& transport) {
  // One process-wide watchdog over the whole sweep: a single hung seed
  // kills the binary loudly instead of wedging CI.
  chaos::GlobalWatchdog watchdog(240.0);

  FaultSpec spec;
  spec.nranks = kRanks;
  spec.nfaults = 2;
  spec.max_seq = 40;
  spec.at_most_one_aborting = true;  // the replayable-plan contract
  spec.delay_seconds = 1e-4;
  spec.stall_seconds = 5e-3;  // well under the comm timeout: never aborts
  const double timeout_s = 0.1;

  int converged = 0;
  int typed = 0;
  std::set<std::string> distinct_signatures;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    watchdog.note("seed " + std::to_string(seed));
    const FaultPlan plan = FaultPlan::generate(seed, spec);
    const std::string recipe =
        "seed " + std::to_string(seed) + "\n" + plan.describe();

    FaultInjector inj(plan);
    const chaos::ChaosRun run1 = chaos::run_case(inj, timeout_s, transport);

    // Invariant 1: no hang (watchdog) and no untyped outcome.
    EXPECT_TRUE(run1.converged || run1.typed_error) << recipe;
    EXPECT_FALSE(run1.converged && run1.typed_error) << recipe;
    // Invariant 2: a "converged" answer is a real answer — checked
    // against the assembled stiffness, not the solver's own recurrence.
    if (run1.converged)
      EXPECT_LT(run1.true_relres, 1e-6) << recipe;
    else
      EXPECT_NE(run1.error.find("rank"), std::string::npos) << recipe;

    // Invariant 3: the same seed replays the same fault behavior.
    inj.reset();
    const chaos::ChaosRun run2 = chaos::run_case(inj, timeout_s, transport);
    EXPECT_EQ(run1.converged, run2.converged) << recipe;
    EXPECT_EQ(run1.typed_error, run2.typed_error) << recipe;
    EXPECT_EQ(chaos::deterministic_signature(run1),
              chaos::deterministic_signature(run2))
        << recipe;
    if (run1.converged && run2.converged) {
      // Injected delays/stalls/dups must not perturb the numerics: the
      // replayed residual history is bit-identical.
      EXPECT_EQ(run1.history, run2.history) << recipe;
      EXPECT_EQ(run1.signature, run2.signature) << recipe;
    }

    converged += run1.converged ? 1 : 0;
    typed += run1.typed_error ? 1 : 0;
    distinct_signatures.insert(run1.signature);
  }

  // The sweep must actually exercise both halves of the contract and
  // genuinely different schedules, or the invariants above are vacuous.
  EXPECT_GE(converged, 8);
  EXPECT_GE(typed, 8);
  EXPECT_GE(static_cast<int>(distinct_signatures.size()), 16);
}

TEST(ChaosSweep, EverySeedConvergesOrFailsTypedAndReplaysExactly) {
  chaos_sweep_all_seeds({});
}

TEST(ChaosSweep, SocketTransportEverySeedConvergesOrFailsTyped) {
  chaos_sweep_all_seeds(
      [](int n) { return net::make_socket_loopback_transport(n); });
}

// The chaos contract on the problem families: a 1e4 coefficient jump
// misaligned with the partition, solved with the jump-aware two-level
// coarse space.  The deflated build adds an allreduce (coarse Gram
// assembly) and a redundant factorization to the fault surface, and the
// heterogeneous operator stresses the scaled-residual path — converged
// XOR typed + exact replay must survive both.
TEST(ChaosSweep, FamilyScenesWithDeflationConvergeOrFailTyped) {
  chaos::GlobalWatchdog watchdog(240.0);

  FaultSpec spec;
  spec.nranks = kRanks;
  spec.nfaults = 2;
  spec.max_seq = 40;
  spec.at_most_one_aborting = true;
  spec.delay_seconds = 1e-4;
  spec.stall_seconds = 5e-3;
  const double timeout_s = 0.1;

  int converged = 0;
  int typed = 0;
  std::set<std::string> distinct_signatures;
  for (const char* family : {"hetero2d", "brick3d"}) {
    const chaos::Scene& sc = chaos::family_scene(family);
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      watchdog.note(std::string(family) + " seed " + std::to_string(seed));
      const FaultPlan plan = FaultPlan::generate(seed, spec);
      const std::string recipe = std::string(family) + " seed " +
                                 std::to_string(seed) + "\n" + plan.describe();

      FaultInjector inj(plan);
      const chaos::ChaosRun run1 = chaos::run_case(inj, timeout_s, {}, {}, &sc);
      EXPECT_TRUE(run1.converged || run1.typed_error) << recipe;
      EXPECT_FALSE(run1.converged && run1.typed_error) << recipe;
      if (run1.converged)
        // The solver's 1e-6 stop is on the norm-1-scaled system; the 1e4
        // jump amplifies the unscaled residual by the coefficient range.
        // 1e-3 still flags a corrupted exchange (O(1) garbage) loudly.
        EXPECT_LT(run1.true_relres, 1e-3) << recipe;
      else
        EXPECT_NE(run1.error.find("rank"), std::string::npos) << recipe;

      inj.reset();
      const chaos::ChaosRun run2 = chaos::run_case(inj, timeout_s, {}, {}, &sc);
      EXPECT_EQ(run1.converged, run2.converged) << recipe;
      EXPECT_EQ(run1.typed_error, run2.typed_error) << recipe;
      EXPECT_EQ(chaos::deterministic_signature(run1),
                chaos::deterministic_signature(run2))
          << recipe;
      if (run1.converged && run2.converged) {
        EXPECT_EQ(run1.history, run2.history) << recipe;
        EXPECT_EQ(run1.signature, run2.signature) << recipe;
      }

      converged += run1.converged ? 1 : 0;
      typed += run1.typed_error ? 1 : 0;
      distinct_signatures.insert(run1.signature);
    }
  }

  EXPECT_GE(converged, 4);
  EXPECT_GE(typed, 4);
  EXPECT_GE(static_cast<int>(distinct_signatures.size()), 8);
}

// Kernel-format independence under chaos: the matrix-free Ebe kernel
// must hit the same fault sites and replay the same deterministic
// signatures as the scalar-CSR kernel — the exchange
// schedule (where faults bind) is a property of the discipline, not of
// the operator storage.  8 seeds: enough to cover converged and typed
// outcomes without doubling the sweep's runtime.
TEST(ChaosSweep, EbeKernelHitsSameFaultSitesAsCsr) {
  chaos::GlobalWatchdog watchdog(120.0);

  FaultSpec spec;
  spec.nranks = kRanks;
  spec.nfaults = 2;
  spec.max_seq = 40;
  spec.at_most_one_aborting = true;
  spec.delay_seconds = 1e-4;
  spec.stall_seconds = 5e-3;
  const double timeout_s = 0.1;

  core::KernelOptions csr;
  csr.format = core::KernelOptions::Format::Csr;
  core::KernelOptions ebe;
  ebe.format = core::KernelOptions::Format::Ebe;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    watchdog.note("ebe-vs-csr seed " + std::to_string(seed));
    const FaultPlan plan = FaultPlan::generate(seed, spec);
    const std::string recipe =
        "seed " + std::to_string(seed) + "\n" + plan.describe();

    FaultInjector inj(plan);
    const chaos::ChaosRun ref = chaos::run_case(inj, timeout_s, {}, csr);
    inj.reset();
    const chaos::ChaosRun run = chaos::run_case(inj, timeout_s, {}, ebe);

    // Same outcome class and the same deterministic fault record: the
    // plans bind to exchange/collective sequence numbers, which the
    // format leaves untouched.
    EXPECT_TRUE(run.converged || run.typed_error) << recipe;
    EXPECT_EQ(run.converged, ref.converged) << recipe;
    EXPECT_EQ(run.typed_error, ref.typed_error) << recipe;
    EXPECT_EQ(chaos::deterministic_signature(run),
              chaos::deterministic_signature(ref))
        << recipe;
    if (run.converged) {
      EXPECT_LT(run.true_relres, 1e-6) << recipe;
      // Same trajectory length; the values differ only by the element
      // sweep's reassociation.
      EXPECT_EQ(run.history.size(), ref.history.size()) << recipe;
    }
  }
}

TEST(ChaosSweep, ServiceSurvivesASeededFaultStreamWithRetries) {
  chaos::GlobalWatchdog watchdog(240.0);
  const chaos::Scene& s = chaos::scene();

  // A heavier plan than the per-request tests: several aborting faults
  // spread over the first attempts' op space.  With retries bounded
  // above the fault count, every request must still end Completed or
  // typed Failed — and the service must keep serving afterwards.
  FaultSpec spec;
  spec.nranks = kRanks;
  spec.nfaults = 3;
  spec.max_seq = 60;
  spec.delay_seconds = 1e-4;
  spec.stall_seconds = 5e-3;

  for (std::uint64_t seed = 101; seed <= 116; ++seed) {
    watchdog.note("svc seed " + std::to_string(seed));
    const FaultPlan plan = FaultPlan::generate(seed, spec);
    FaultInjector inj(plan);
    svc::Service service(chaos_service_config(&inj, 5));
    service.register_operator("k", s.part, s.poly);

    std::vector<std::future<svc::Outcome>> futures;
    for (int i = 0; i < 3; ++i) {
      svc::SolveRequest req;
      req.operator_key = "k";
      req.rhs = {s.prob.load};
      req.seed = seed * 10 + static_cast<std::uint64_t>(i);
      futures.push_back(service.submit(std::move(req)).outcome);
    }
    int completed = 0;
    for (auto& f : futures) {
      const svc::Outcome out = f.get();  // watchdog guards against hangs
      if (svc::ok(out)) {
        ++completed;
        EXPECT_TRUE(std::get<svc::Completed>(out).result.items.at(0).converged)
            << "seed " << seed;
      } else {
        ASSERT_TRUE(std::holds_alternative<svc::Failed>(out))
            << "seed " << seed << "\n" << plan.describe();
        EXPECT_TRUE(std::get<svc::Failed>(out).comm) << "seed " << seed;
      }
    }
    // 5 attempts vs at most 3 one-shot faults: the stream drains and
    // at least the tail requests complete.
    EXPECT_GE(completed, 1) << "seed " << seed << "\n" << plan.describe();
    service.shutdown(/*drain=*/true);
  }
}

TEST(ChaosSweep, SessionStreamFailsTypedAndReplaysDeterministically) {
  chaos::GlobalWatchdog watchdog(240.0);
  const chaos::Scene& s = chaos::scene();

  // A session stream under injected faults: every step must end
  // Completed or typed comm-Failed (never hang, never untyped), a
  // failed step must not corrupt the session (later steps still
  // complete warm), and the whole stream — including the warm-lane
  // iteration counts — must replay identically for the same seed.
  FaultSpec spec;
  spec.nranks = kRanks;
  spec.nfaults = 2;
  spec.max_seq = 60;
  spec.delay_seconds = 1e-4;
  spec.stall_seconds = 5e-3;

  const auto run_stream = [&](std::uint64_t seed) {
    const FaultPlan plan = FaultPlan::generate(seed, spec);
    FaultInjector inj(plan);
    svc::Service service(chaos_service_config(&inj, 5));
    service.register_operator("k", s.part, s.poly);
    const svc::SessionId sid = service.open_session("k");
    EXPECT_NE(sid, svc::kNoSession);
    std::vector<int> iters;  // -1 marks a typed comm failure
    for (int t = 0; t < 4; ++t) {
      svc::SolveRequest req;
      req.operator_key = "k";
      req.session = sid;
      Vector f = s.prob.load;
      for (real_t& v : f) v *= 1.0 + 0.01 * t;
      req.rhs = {std::move(f)};
      const svc::Outcome out = service.submit(std::move(req)).outcome.get();
      if (svc::ok(out)) {
        iters.push_back(
            std::get<svc::Completed>(out).result.items.at(0).iterations);
      } else {
        EXPECT_TRUE(std::holds_alternative<svc::Failed>(out))
            << "seed " << seed << "\n" << plan.describe();
        if (const auto* fl = std::get_if<svc::Failed>(&out)) {
          EXPECT_TRUE(fl->comm) << "seed " << seed;
        }
        iters.push_back(-1);
      }
    }
    service.shutdown(/*drain=*/true);
    return iters;
  };

  int completed = 0;
  for (std::uint64_t seed = 201; seed <= 208; ++seed) {
    watchdog.note("session seed " + std::to_string(seed));
    const std::vector<int> a = run_stream(seed);
    const std::vector<int> b = run_stream(seed);
    EXPECT_EQ(a, b) << "seed " << seed;  // warm lanes replay exactly
    for (const int it : a) completed += it >= 0 ? 1 : 0;
  }
  // The invariants are vacuous if nothing ever completes.
  EXPECT_GE(completed, 8);
}

}  // namespace
}  // namespace pfem
