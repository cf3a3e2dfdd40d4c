// Seeded chaos harness for the fault-injection tests (test_fault.cpp).
//
// A chaos case is: generate a FaultPlan from a seed, arm it (plus a
// channel timeout) on a fresh 4-rank team, build the operator and run
// one batch solve on a small cantilever, and record what happened —
// converged, typed comm error, or (the bug we hunt) anything else.
// The whole sweep runs under a GlobalWatchdog so a hang becomes a loud
// process abort with the offending seed printed, never a stuck CI job.
//
// Determinism contract asserted by the sweep (see DESIGN.md §9): with
// at_most_one_aborting plans, a replay of the same seed reproduces
//   - the identical full fault-event sequence when no aborting fault
//     fired (and the identical residual history), and
//   - the identical event prefix of the aborting rank up to and
//     including the aborting fault otherwise (event logs of *other*
//     ranks after the abort flag trips are timing-dependent by design).
#pragma once

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/edd_batch.hpp"
#include "exp/experiments.hpp"
#include "fault/fault.hpp"
#include "fem/families.hpp"
#include "fem/problems.hpp"
#include "net/transport.hpp"
#include "par/comm.hpp"

namespace pfem::chaos {

inline constexpr int kRanks = 4;

/// Hard backstop for the whole test binary: if anything hangs past the
/// deadline, print a diagnostic and _Exit non-zero (no unwinding — a
/// deadlocked team cannot be joined anyway).  Exit code 86 marks a
/// watchdog kill apart from ordinary test failures.
class GlobalWatchdog {
 public:
  explicit GlobalWatchdog(double seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock lock(m_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr,
                     "chaos watchdog: no completion within %.1f s while "
                     "running '%s' — aborting the process\n",
                     seconds, note_.c_str());
        std::fflush(stderr);
        std::_Exit(86);
      }
    });
  }

  GlobalWatchdog(const GlobalWatchdog&) = delete;
  GlobalWatchdog& operator=(const GlobalWatchdog&) = delete;

  ~GlobalWatchdog() {
    {
      std::scoped_lock lock(m_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  /// Name the work in flight, so a kill message says which seed hung.
  void note(std::string what) {
    std::scoped_lock lock(m_);
    note_ = std::move(what);
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::string note_;
  std::thread thread_;
};

/// The shared model every chaos case solves: a small cantilever whose
/// EDD partition matches kRanks.  Built once — plan generation varies
/// per seed, the physics does not need to.
struct Scene {
  fem::CantileverProblem prob;
  std::shared_ptr<const partition::EddPartition> part;
  core::PolySpec poly;
  /// Optional two-level deflation baked into the case's operator build
  /// (the family scenes use the jump-aware coarse space; the default
  /// scene runs one-level).
  core::DeflationOptions deflation;
};

inline const Scene& scene() {
  static const Scene s = [] {
    fem::CantileverSpec spec;
    spec.nx = 10;
    spec.ny = 4;
    fem::CantileverProblem prob = fem::make_cantilever(spec);
    auto part = std::make_shared<const partition::EddPartition>(
        exp::make_edd(prob, kRanks));
    core::PolySpec poly;
    poly.kind = core::PolyKind::Gls;
    poly.degree = 4;
    return Scene{std::move(prob), std::move(part), poly, {}};
  }();
  return s;
}

/// A problem-family scene (fem/families.hpp) with a 1e4 coefficient
/// jump misaligned with the partition and the matching jump-aware
/// deflation baked in: the chaos contract must hold on heterogeneous
/// operators and two-level builds too (the coarse assembly adds an
/// allreduce + redundant factorization to the fault surface).  Built
/// once per family.
inline const Scene& family_scene(const std::string& family) {
  static std::mutex m;
  static std::map<std::string, Scene> scenes;
  std::scoped_lock lock(m);
  auto it = scenes.find(family);
  if (it == scenes.end()) {
    fem::ProblemSpec spec = fem::default_spec(family);
    spec.jump = 1.0e4;
    spec.aligned = false;
    spec.checker = 3;
    fem::FamilyProblem fp = fem::make_problem(spec);
    auto part = std::make_shared<const partition::EddPartition>(
        exp::make_edd(fp, kRanks));
    core::PolySpec poly;
    poly.kind = core::PolyKind::Gls;
    poly.degree = 4;
    core::DeflationOptions deflation =
        exp::family_deflation(fp, /*jump_aware=*/true);
    it = scenes
             .emplace(family, Scene{std::move(fp.prob), std::move(part), poly,
                                    std::move(deflation)})
             .first;
  }
  return it->second;
}

/// What one chaos case produced.  The invariant every case must satisfy:
/// converged XOR typed_error (never a hang — the watchdog enforces that
/// side — and never an untyped escape).
struct ChaosRun {
  bool converged = false;
  bool typed_error = false;
  std::string error;               ///< CommError text when typed_error
  double true_relres = -1.0;       ///< ‖K x − f‖/‖f‖ when converged
  std::vector<real_t> history;     ///< residual history when converged
  std::string signature;           ///< event_signature(all fired events)
  std::vector<std::vector<fault::FaultEvent>> rank_events;  ///< per rank
};

/// Optional channel substrate for a chaos case: given kRanks, build the
/// net::Transport the team should run on (the socket loopback).  Null
/// means the default in-process rings.  Fault injection sits above the
/// transport seam, so every substrate must satisfy the same chaos
/// contract.
using TransportFactory =
    std::function<std::shared_ptr<net::Transport>(int nranks)>;

/// Build + solve on a fresh team with `inj` armed.  Every outcome is
/// captured; only a non-Comm exception escapes (and fails the test).
/// `kernels` selects the rank-kernel format under chaos — the fault
/// sites and replay contract must be kernel-independent.
/// `sc` selects the scene (null = the default cantilever).
inline ChaosRun run_case(fault::FaultInjector& inj, double timeout_seconds,
                         const TransportFactory& transport_factory = {},
                         const core::KernelOptions& kernels = {},
                         const Scene* sc = nullptr) {
  const Scene& s = sc != nullptr ? *sc : scene();
  ChaosRun out;
  {
    par::TeamConfig tc;
    tc.nranks = kRanks;
    if (transport_factory) tc.transport = transport_factory(kRanks);
    par::Team team(tc);
    team.set_comm_timeout(timeout_seconds);
    team.set_fault_injector(&inj);
    try {
      const core::EddOperatorState op =
          core::build_edd_operator(team, *s.part, s.poly, nullptr, nullptr,
                                   kernels, s.deflation);
      const std::vector<Vector> rhs{s.prob.load};
      const core::BatchSolveResult r =
          core::solve_edd_batch(team, *s.part, op, rhs);
      if (r.comm_failed()) {
        out.typed_error = true;
        out.error = r.comm_error;
      } else {
        out.converged = r.items.at(0).converged;
        out.history = r.items.at(0).history;
        if (out.converged) {
          // Verify against ground truth: the solver's own residual
          // recurrence could be fooled by a corrupted exchange; the
          // assembled stiffness cannot.
          const Vector& x = r.x.at(0);
          Vector kx(x.size(), 0.0);
          s.prob.stiffness.spmv(x, kx);
          real_t num = 0.0;
          real_t den = 0.0;
          for (std::size_t i = 0; i < x.size(); ++i) {
            const real_t d = kx[i] - s.prob.load[i];
            num += d * d;
            den += s.prob.load[i] * s.prob.load[i];
          }
          out.true_relres = std::sqrt(num / den);
        }
      }
    } catch (const par::CommError& e) {
      out.typed_error = true;  // the operator build died on the wire
      out.error = e.what();
    }
  }  // team joined: the injector's logs are safe to read
  for (int r = 0; r < kRanks; ++r) out.rank_events.push_back(inj.events(r));
  out.signature = fault::event_signature(inj.all_events());
  return out;
}

[[nodiscard]] inline bool is_aborting(const fault::FaultEvent& e) {
  return e.action.type == fault::FaultType::Drop ||
         e.action.type == fault::FaultType::Crash;
}

/// The deterministic part of a run's fault record: the full event
/// sequence when no aborting fault fired; otherwise the aborting rank's
/// own log up to and including its aborting event.  Nothing else is
/// replayable by contract — other ranks proceed normally until the
/// abort flag trips them at a timing-dependent point, so their log
/// lengths may differ across replays (see DESIGN.md §9).  With
/// at_most_one_aborting plans the aborting rank is unique.
[[nodiscard]] inline std::string deterministic_signature(const ChaosRun& run) {
  for (const auto& evts : run.rank_events)
    for (const auto& e : evts)
      if (is_aborting(e)) {
        std::vector<fault::FaultEvent> prefix;
        for (const auto& p : evts) {
          prefix.push_back(p);
          if (is_aborting(p)) break;
        }
        return fault::event_signature(prefix);
      }
  return run.signature;
}

}  // namespace pfem::chaos
