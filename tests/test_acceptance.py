"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with -s (or read the captured output) to see the per-criterion lines.
Criterion 9 needs an externally acquired dataset and is skipped as
non-blocking; full benchmark-table replication is deliberately not a gate
and has no test here.
"""

import math
import time

import numpy as np
import pytest

from nol.conditioners import (
    ComparatorBall,
    EnclosingBox,
    SQRT2,
    hindsight_conditioner,
    lemma2_bound,
    project,
)
from nol.core import SparseExample, get_loss
from nol.data import synth_figure1, synth_scaled
from nol.errors import NumericFault
from nol.evaluate import default_eta_grid
from nol.learners import LearnerConfig, run_stream
from nol.regret import (
    apply_scaling,
    best_in_hindsight,
    conditioned_run,
    corollary1_montecarlo,
    corollary1_tau,
    lemma1_check,
    random_instance,
    theorem1_check,
    theorem2_check,
    theorem2_components,
)
from oracles import grid_minimize

LOSSES = ("squared", "hinge", "logistic")


def report(number, name, ok, detail):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def ex(feats, y=1.0):
    return SparseExample(tuple(sorted(feats.items())), y)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a))


class TestAcceptance:
    def test_criterion_1_scale_invariance(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        invariant_bad = 0
        baseline_failures = {"adagrad": 0, "sgd": 0}
        n_pairs = 0
        for k in range(20):
            loss = get_loss(LOSSES[k % 3])
            d = int(rng.integers(2, 21))
            stream = random_instance(9000 + k, d=d, T=2000,
                                     classification=loss.kind != "squared")
            scalings = [
                {i: float(2.0 ** int(p))
                 for i, p in enumerate(rng.integers(-8, 9, size=d))}
                for _ in range(5)
            ]
            base = {}
            for kind in ("ng", "nag", "snag", "adagrad", "sgd"):
                if kind in baseline_failures and baseline_failures[kind] > 0:
                    continue  # already demonstrated non-invariance
                try:
                    base[kind] = run_stream(LearnerConfig(kind, 0.5), loss, stream)
                except NumericFault:
                    if kind in baseline_failures:
                        baseline_failures[kind] += 1
                        continue
                    raise
            for D in scalings:
                scaled = list(apply_scaling(stream, D))
                for kind in ("ng", "nag", "snag"):
                    n_pairs += 1
                    r2 = run_stream(LearnerConfig(kind, 0.5), loss, scaled)
                    for a, b in zip(base[kind].predictions, r2.predictions):
                        if abs(a - b) > 1e-9 * max(1.0, abs(a)):
                            invariant_bad += 1
                            break
                for kind in ("adagrad", "sgd"):
                    if baseline_failures[kind] > 0 or kind not in base:
                        continue
                    try:
                        r2 = run_stream(LearnerConfig(kind, 0.5), loss, scaled)
                    except NumericFault:
                        baseline_failures[kind] += 1
                        continue
                    if any(abs(a - b) > 1e-9 * max(1.0, abs(a))
                           for a, b in zip(base[kind].predictions, r2.predictions)):
                        baseline_failures[kind] += 1
        elapsed = time.perf_counter() - t0
        ok = (invariant_bad == 0
              and all(v >= 1 for v in baseline_failures.values())
              and elapsed < 30.0)
        report(1, "scale invariance", ok,
               f"{n_pairs} invariant pairs, {invariant_bad} mismatches; "
               f"baseline failures {baseline_failures}; {elapsed:.1f}s (< 30s)")

    def test_criterion_2_figure1_reproduction(self):
        t0 = time.perf_counter()
        loss = get_loss("hinge")
        T, seed = 1000, 42
        scales = [10.0 ** k for k in range(-3, 4)]
        base_stream = synth_figure1(1.0, T, seed=seed)

        tuned = {}
        for kind in ("nag", "adagrad"):
            best = None
            for eta in default_eta_grid():
                try:
                    avg = run_stream(LearnerConfig(kind, eta), loss,
                                     base_stream).average_loss
                except NumericFault:
                    continue
                if best is None or avg < best[1]:
                    best = (eta, avg)
            tuned[kind] = best[0]

        losses = {}
        for kind in ("nag", "adagrad"):
            losses[kind] = {}
            for s in scales:
                stream = synth_figure1(s, T, seed=seed)
                try:
                    losses[kind][s] = run_stream(
                        LearnerConfig(kind, tuned[kind]), loss, stream).average_loss
                except NumericFault:
                    losses[kind][s] = math.inf

        nag = losses["nag"]
        nag_var = (max(nag.values()) - min(nag.values())) / nag[1.0]
        ada = losses["adagrad"]
        ada_lo = ada[1e-3] / ada[1.0] - 1.0
        ada_hi = ada[1e3] / ada[1.0] - 1.0
        elapsed = time.perf_counter() - t0
        ok = nag_var < 0.02 and ada_lo >= 0.5 and ada_hi >= 0.5 and elapsed < 60.0
        report(2, "scaled-feature stream", ok,
               f"nag variation {nag_var:.2%} (< 2%); adagrad worse by "
               f"{ada_lo:+.0%} at s=1e-3 and {ada_hi:+.0%} at s=1e+3 "
               f"(>= +50%); {elapsed:.1f}s (< 1min)")

    def test_criterion_3_bound_suites(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(123)
        sq = get_loss("squared")
        min_slack = math.inf
        failures = 0

        for k in range(100):
            d = int(rng.integers(1, 6))
            T = int(rng.integers(20, 500))
            stream = random_instance(1000 + k, d=d, T=T, classification=False)
            ledger = conditioned_run(stream, sq, C=1.0, recipe="streaming",
                                     projection=False)
            ball = ComparatorBall(ledger.box, C=1.0, q=1)
            coords = sorted(ball.box.m)
            u = rng.uniform(-1, 1, size=len(coords))
            u *= 1.0 / max(1.0, np.abs(u).sum())
            w = {i: u[j] / ball.box.m[i] for j, i in enumerate(coords)}
            for comparator in ({}, w):
                rep = lemma1_check(ledger, sq, comparator)
                min_slack = min(min_slack, rep.slack)
                failures += 0 if rep.passed else 1

        for check, base_seed in ((theorem1_check, 300), (theorem2_check, 400)):
            for k in range(50):
                loss = get_loss("hinge" if k % 2 == 0 else "squared")
                stream = random_instance(base_seed + k, d=3, T=150,
                                         classification=loss.kind == "hinge")
                rep = check(stream, loss, C=1.0)
                min_slack = min(min_slack, rep.slack)
                failures += 0 if rep.passed else 1

        # constant per-coordinate magnitudes: every Delta_i = 1 and the
        # one-pass bound collapses to the two-pass 2*sqrt(2) form
        sign_rng = np.random.default_rng(7)
        const = [ex({0: 2.0 * s0, 1: 0.5 * s1}, 1.0 if s0 > 0 else -1.0)
                 for s0, s1 in sign_rng.choice([-1.0, 1.0], size=(60, 2))]
        ledger = conditioned_run(const, sq, C=1.0, recipe="streaming")
        closed = 2.0 * SQRT2 * lemma2_bound(ledger.sum_g2, ledger.box, 1.0)
        got = sum(theorem2_components(ledger).values())
        delta1_ok = rel_close(got, closed, 1e-9)

        elapsed = time.perf_counter() - t0
        ok = (min_slack >= -1e-6 and failures == 0 and delta1_ok
              and elapsed < 300.0)
        report(3, "bound suites", ok,
               f"200 lemma checks + 100 theorem checks, min slack "
               f"{min_slack:.3e} (>= -1e-6), {failures} failures; "
               f"constant-scale reduction within 1e-9: {delta1_ok}; "
               f"{elapsed:.1f}s (< 5min)")

    def test_criterion_4_quantile_bound(self):
        t0 = time.perf_counter()
        tau = corollary1_tau(10, 0.1, 0.5)
        examples = random_instance(0, d=10, T=400)
        mc = corollary1_montecarlo(examples, d=10, delta=0.1, nu=0.5,
                                   n_permutations=500, seed=0)
        elapsed = time.perf_counter() - t0
        ok = tau == 10 and mc["passed"] and elapsed < 60.0
        report(4, "warmup quantile bound", ok,
               f"tau = {tau} (= 10); violation fraction "
               f"{mc['violation_fraction']:.3f} <= {mc['threshold']:.3f} over "
               f"{mc['n_permutations']} permutations; {elapsed:.1f}s (< 1min)")

    def test_criterion_5_projection_oracle(self):
        t0 = time.perf_counter()
        worst_gap = 0.0
        worst_drift = 0.0
        worst_excess = 0.0
        for q in (1, 2):
            rng = np.random.default_rng(31 if q == 1 else 32)
            for _ in range(100):
                d = int(rng.integers(1, 4))
                A = {i: float(10 ** rng.uniform(-1, 1)) for i in range(d)}
                m = {i: float(10 ** rng.uniform(-1, 1)) for i in range(d)}
                C = float(10 ** rng.uniform(-0.5, 0.5))
                ball = ComparatorBall(EnclosingBox(m), C, q)
                w = {i: float(rng.uniform(-3, 3)) for i in range(d)}
                p = project(w, A, ball)
                worst_excess = max(worst_excess, ball.norm(p) - C)

                dist = sum(A[i] * (p.get(i, 0.0) - w[i]) ** 2 for i in range(d))
                u0 = np.array([w[i] * m[i] for i in range(d)])
                dm = np.array([A[i] / m[i] ** 2 for i in range(d)])
                _, f_star = grid_minimize(lambda P: (P - u0) ** 2 @ dm, d, C, q)
                worst_gap = max(worst_gap,
                                abs(dist - f_star) / max(1.0, f_star))
                p2 = project(p, A, ball)
                worst_drift = max(worst_drift,
                                  max(abs(p2[i] - p[i]) for i in range(d)))
        elapsed = time.perf_counter() - t0
        ok = worst_gap <= 1e-6 and worst_drift <= 1e-9 and worst_excess <= 1e-9
        report(5, "projection oracle equivalence", ok,
               f"200 instances, worst oracle gap {worst_gap:.2e} (<= 1e-6), "
               f"worst idempotence drift {worst_drift:.2e} (<= 1e-9), "
               f"worst norm past C {worst_excess:.2e} (<= 1e-9); {elapsed:.1f}s")

    def test_criterion_6_hindsight_optimality(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        perturbation_ok = True
        invariance_ok = True
        for _ in range(100):
            d = int(rng.integers(1, 5))
            g2 = {i: float(rng.uniform(0.1, 20)) for i in range(d)}
            m = {i: float(rng.uniform(0.1, 5)) for i in range(d)}
            C = float(rng.uniform(0.5, 3))
            box = EnclosingBox(m)
            astar = hindsight_conditioner(g2, box, C)

            def objective(a):
                return 0.5 * sum(
                    a[i] * C * C * box.s_ii(i) + g2[i] / a[i] for i in range(d))

            base_obj = objective(astar)
            for i in range(d):
                for fac in (0.9, 1.1):
                    pert = dict(astar)
                    pert[i] = astar[i] * fac
                    if objective(pert) <= base_obj:
                        perturbation_ok = False

            scale = {i: float(10 ** rng.uniform(-3, 3)) for i in range(d)}
            base = lemma2_bound(g2, box, C)
            scaled = lemma2_bound(
                {i: g2[i] * scale[i] ** 2 for i in range(d)},
                EnclosingBox({i: m[i] * scale[i] for i in range(d)}), C)
            if abs(scaled - base) > 1e-12 * max(1.0, abs(base)):
                invariance_ok = False
        elapsed = time.perf_counter() - t0
        ok = perturbation_ok and invariance_ok
        report(6, "hindsight optimality", ok,
               f"100 gradient logs: +-10% perturbations never improve "
               f"({perturbation_ok}), bound rescaling-invariant to 1e-12 "
               f"({invariance_ok}); {elapsed:.1f}s")

    def test_criterion_7_gradient_checks(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(21)
        h = 1e-6
        worst = 0.0
        checked = 0
        for kind in LOSSES:
            loss = get_loss(kind)
            for _ in range(1000):
                p = float(rng.uniform(-5, 5))
                if kind == "squared":
                    y = float(rng.uniform(-5, 5))
                else:
                    y = 1.0 if rng.random() < 0.5 else -1.0
                if kind == "hinge" and abs(1.0 - y * p) < 10 * h:
                    continue  # no two-sided derivative at the kink
                num = (loss.value(p + h, y) - loss.value(p - h, y)) / (2 * h)
                _, der = loss.value_and_derivative(p, y)
                worst = max(worst, abs(num - der) / max(1.0, abs(der)))
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-6
        report(7, "gradient checks", ok,
               f"{checked} finite-difference probes, worst relative error "
               f"{worst:.2e} (<= 1e-6); {elapsed:.1f}s")

    def test_criterion_8_eta_star_range(self):
        t0 = time.perf_counter()
        loss = get_loss("hinge")
        regimes = [(-3.5, -2.5, 1), (-0.5, 0.5, 2), (2.5, 3.5, 3)]
        grid = default_eta_grid()
        eta_star = {"nag": [], "adagrad": []}
        for lo, hi, seed in regimes:
            stream = synth_scaled(4, 1500, seed=seed, log10_scale_lo=lo,
                                  log10_scale_hi=hi)
            for kind in eta_star:
                best = None
                for eta in grid:
                    try:
                        avg = run_stream(LearnerConfig(kind, eta), loss,
                                         stream).average_loss
                    except NumericFault:
                        continue
                    if best is None or avg < best[1]:
                        best = (eta, avg)
                eta_star[kind].append(best[0])
        nag_in_range = all(0.01 <= e <= 16.0 for e in eta_star["nag"])
        ada = eta_star["adagrad"]
        ada_span = math.log10(max(ada) / min(ada))
        elapsed = time.perf_counter() - t0
        ok = nag_in_range and ada_span >= 4.0
        report(8, "optimal learning-rate range", ok,
               f"nag eta* {eta_star['nag']} all in [0.01, 16] "
               f"({nag_in_range}); adagrad eta* {ada} spans "
               f"{ada_span:.2f} orders (>= 4); {elapsed:.1f}s")

    def test_criterion_9_shuttle_optional(self):
        pytest.skip("criterion 9 (external benchmark dataset): optional and "
                    "non-blocking; dataset acquisition is out of scope")
