"""The acceptance suite: eight verifiable gates over the whole package.

Each criterion function is self-contained, deterministic (fixed seeds), and
returns a CriterionResult with a human-readable detail string; the suite
runner prints one PASS/FAIL line per criterion. Numeric gates compare
simulation output or float sequence tables against exact comparators at
explicitly stated tolerances; the exact-arithmetic gates require residuals
to vanish identically.

A note on normalization: all large-n gates rescale return probabilities by
the diffusive scale (2 pi n / d)^{d/2}. The walks here pick one of the d
axes uniformly per jump, so the per-axis variance is 1/d and that scale is
the one on which the rescaled sequences actually converge (to 2 along even n
for the parity-bound SRW, to 1 +- oscillation for the perturbed walk); the
d=1 case, where no choice arises, fixes the convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .asymptotics import alpha_return_total, oscillation_amplitude
from .kernels import avg_difference_kernel, srw_kernel
from .series import (
    DEFAULT_ORDERS,
    verify_closed_form_d1,
    verify_gf_relations,
    verify_potlach_relation,
)
from .simulate import ExperimentConfig, simulate
from .stats import clt_statistic, simulation_records
from .walks import (
    first_passage_sequences,
    poissonized_return,
    potlach_contrast,
    return_sequence,
    sphere_first_return_sequence,
    srw_return_sequence_float,
)

DEFAULT_SEED = 20260825

#: overridable numeric gates (--tol.<name> on the command line)
DEFAULT_TOLERANCES = {
    "c4-d1": 0.01,          # |rescaled - 1| at d=1, n=1e4
    "c4-d2": 0.1,           # |rescaled - 1| at d=2, n=4096
    "c4-d3-gap": 0.30,      # relative error of the even/odd gap vs 2/(4a-1)^2
    "alpha-lo": 1.50,
    "alpha-hi": 1.53,
    "c5-lo": 0.97,          # window for the rescaled Poissonized return
    "c5-hi": 1.03,
    "c5-diff": 0.05,        # coefficient of t^{-1/2} bounding the excess
    "c6-z": 3.0,            # standard errors for the two-norm match
    "c6-mf-se": 4.0,        # per-site standard errors for the mean field
    "c6-mf-frac": 0.95,     # fraction of sites that must sit inside
    "c6-conservation": 1e-12,
    "c7-window": 0.05,      # |statistic - e^{-1/2}| window
    "c7-frac": 0.95,        # fraction of trials inside the window
    "c8-lo": 1.8,           # Poissonized coupled/independent ratio window
    "c8-hi": 2.2,
}


def merged_tolerances(overrides: dict | None) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    if overrides:
        unknown = set(overrides) - set(tol)
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        tol.update(overrides)
    return tol


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def csv_row(self) -> tuple:
        return (self.number, self.name, "pass" if self.passed else "fail", self.detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number} ({self.name}): {self.detail}"


@lru_cache(maxsize=None)
def _perturbed_float(d: int, n: int):
    return return_sequence(avg_difference_kernel(d), n, mode="float")


# ---------------------------------------------------------------------------


def criterion_1_identities(quick: bool = False, **_) -> CriterionResult:
    """All ten exact series identities, d in {1,2} at order 64, d=3 at 32."""
    orders = {1: 24, 2: 16, 3: 12} if quick else dict(DEFAULT_ORDERS)
    failures = []
    checked = 0
    for d, n in orders.items():
        for rep in verify_gf_relations(d, n):
            checked += 1
            if not rep.ok:
                failures.append(rep.summary())
    detail = (f"{checked} residual series over d={sorted(orders)}, orders "
              f"{orders}, all identically zero" if not failures
              else "; ".join(failures))
    return CriterionResult(1, "exact identity suite", not failures, detail)


def criterion_2_closed_form(quick: bool = False, **_) -> CriterionResult:
    """d=1 SRW return sequence equals the central binomial numbers exactly."""
    n = 32 if quick else 64
    reps = verify_closed_form_d1(n)
    ok = all(r.ok for r in reps)
    detail = (f"p_n == C(n, n/2)/2^n at even n <= {n}, 0 at odd n, exact"
              if ok else "; ".join(r.summary() for r in reps if not r.ok))
    return CriterionResult(2, "d=1 closed form", ok, detail)


def criterion_3_first_passage(quick: bool = False, **_) -> CriterionResult:
    """Structural first-passage facts, exactly, for d in {1,2,3}."""
    n_max = 16 if quick else 48
    problems = []
    for d in (1, 2, 3):
        qt, rt, st = first_passage_sequences(avg_difference_kernel(d), n_max)
        s = sphere_first_return_sequence(srw_kernel(d), n_max)
        if qt[1] != Fraction(1, 2):
            problems.append(f"d={d}: q~_1 = {qt[1]} != 1/2")
        if st[1] != Fraction(1, 4 * d):
            problems.append(f"d={d}: s~_1 = {st[1]} != 1/(4d)")
        if s[1] != 0:
            problems.append(f"d={d}: s_1 = {s[1]} != 0")
        for n in range(2, n_max + 1):
            if qt[n] != rt[n - 2] / (8 * d):
                problems.append(f"d={d}: q~_{n} != r~_{n-2}/(8d)")
                break
        for n in range(2, n_max + 1):
            if st[n] != s[n]:
                problems.append(f"d={d}: s~_{n} != s_{n}")
                break
    ok = not problems
    detail = (f"q~_1, s~_1, s_1 and the shift identities exact for n <= {n_max}, d in (1,2,3)"
              if ok else "; ".join(problems))
    return CriterionResult(3, "first-passage structure", ok, detail)


def criterion_4_asymptotics(quick: bool = False, tolerances: dict | None = None, **_) -> CriterionResult:
    """Rescaled perturbed return sequence: limits, oscillation, alpha_3."""
    tol = merged_tolerances(tolerances)
    problems, notes = [], []

    n1 = 2500 if quick else 10_000
    p1 = _perturbed_float(1, n1)
    v1 = p1[n1] * math.sqrt(2 * math.pi * n1)
    notes.append(f"d=1 n={n1}: rescaled={v1:.5f}")
    if abs(v1 - 1.0) > tol["c4-d1"]:
        problems.append(f"d=1: |{v1:.5f} - 1| > {tol['c4-d1']}")

    n2 = 1024 if quick else 4096
    p2 = _perturbed_float(2, n2)
    v2 = p2[n2] * (2 * math.pi * n2 / 2.0)
    notes.append(f"d=2 n={n2}: rescaled={v2:.5f}")
    if abs(v2 - 1.0) > tol["c4-d2"]:
        problems.append(f"d=2: |{v2:.5f} - 1| > {tol['c4-d2']}")

    n3 = 150 if quick else 400
    alpha = alpha_return_total(3, 4000 if quick else 20_000)
    if not tol["alpha-lo"] <= alpha.value <= tol["alpha-hi"]:
        problems.append(f"alpha_3 = {alpha.value:.5f} outside "
                        f"[{tol['alpha-lo']}, {tol['alpha-hi']}]")
    p3 = _perturbed_float(3, n3)
    scale = lambda n: (2 * math.pi * n / 3.0) ** 1.5
    odd, even = p3[n3 - 1] * scale(n3 - 1), p3[n3] * scale(n3)
    gap, want = even - odd, 2.0 * oscillation_amplitude(alpha.value)
    notes.append(f"d=3 n={n3 - 1},{n3}: odd={odd:.4f} even={even:.4f} "
                 f"gap={gap:.4f} (model {want:.4f}), alpha_3={alpha.value:.4f}+-{alpha.error:.1e}")
    if not odd < 1.0 < even:
        problems.append(f"d=3: rescaled values {odd:.4f}, {even:.4f} do not bracket 1")
    if abs(gap - want) > tol["c4-d3-gap"] * want:
        problems.append(f"d=3: gap {gap:.4f} vs {want:.4f} off by more than "
                        f"{tol['c4-d3-gap']:.0%}")
    ok = not problems
    return CriterionResult(4, "large-n asymptotics", ok,
                           "; ".join(notes if ok else problems))


def criterion_5_poissonized(quick: bool = False, tolerances: dict | None = None, **_) -> CriterionResult:
    """Continuous-time return probabilities on the diffusive scale."""
    tol = merged_tolerances(tolerances)
    problems, notes = [], []

    t1 = 500.0 if quick else 2000.0
    p1 = _perturbed_float(1, 2500 if quick else 10_000)
    v1, _ = poissonized_return(p1, 1.0, t1)
    r1 = v1 * math.sqrt(2 * math.pi * t1)
    notes.append(f"d=1 t={t1:g}: rescaled={r1:.5f}")
    if not tol["c5-lo"] <= r1 <= tol["c5-hi"]:
        problems.append(f"d=1: {r1:.5f} outside [{tol['c5-lo']}, {tol['c5-hi']}]")

    t2 = 500.0 if quick else 1000.0
    p2 = _perturbed_float(2, 1024 if quick else 4096)
    v2, _ = poissonized_return(p2, 1.0, t2)
    r2 = v2 * (2 * math.pi * t2 / 2.0)
    notes.append(f"d=2 t={t2:g}: rescaled={r2:.5f}")
    if not tol["c5-lo"] <= r2 <= tol["c5-hi"]:
        problems.append(f"d=2: {r2:.5f} outside [{tol['c5-lo']}, {tol['c5-hi']}]")

    td = 400.0 if quick else 1000.0
    ps = srw_return_sequence_float(1, 2500 if quick else 10_000)
    a, _ = poissonized_return(p1, 1.0, td)
    b, _ = poissonized_return(ps, 1.0, td)
    diff, cap = a - b, tol["c5-diff"] / math.sqrt(td)
    notes.append(f"d=1 t={td:g}: excess={diff:.3e} (cap {cap:.3e})")
    if not 0.0 < diff <= cap:
        problems.append(f"d=1 excess {diff:.3e} not in (0, {cap:.3e}]")
    ok = not problems
    return CriterionResult(5, "Poissonized local limit", ok,
                           "; ".join(notes if ok else problems))


def criterion_6_simulation(quick: bool = False, tolerances: dict | None = None,
                           seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Simulated field vs dual-walk exact values at d=1, t=64."""
    tol = merged_tolerances(tolerances)
    trials = 1000 if quick else 10_000
    cfg = ExperimentConfig(dimension=1, t=64.0, trials=trials, seed=seed)
    res = simulate(cfg)
    records = simulation_records(res, tol["c6-mf-se"])
    two = records["two-norm-sq"]
    frac = records["mean-field-fraction"].value
    defect = records["conservation-defect"].value
    problems, notes = [], []
    notes.append(f"E||eta||^2 = {two.value:.6f} vs {two.target:.6f} (z={two.z:+.2f})")
    if abs(two.z) > tol["c6-z"]:
        problems.append(f"two-norm z = {two.z:+.2f} beyond {tol['c6-z']}")
    notes.append(f"mean field: {frac:.1%} of B(2 sqrt t) within {tol['c6-mf-se']:g} SE")
    if frac < tol["c6-mf-frac"]:
        problems.append(f"mean-field fraction {frac:.3f} < {tol['c6-mf-frac']}")
    notes.append(f"conservation defect {defect:.2e} over {trials} trials")
    notes.append(f"torus radius {res.box.radius}, wrap bound {cfg.wrap_bound:.1e}")
    if defect > tol["c6-conservation"]:
        problems.append(f"conservation defect {defect:.2e} > {tol['c6-conservation']:g}")
    ok = not problems
    return CriterionResult(6, "simulation vs duality", ok,
                           "; ".join(notes if ok else problems))


def criterion_7_clt(quick: bool = False, tolerances: dict | None = None,
                    seed: int = DEFAULT_SEED, **_) -> CriterionResult:
    """Rescaled cosine statistic concentrates on e^{-1/2} at d=1, t=400."""
    tol = merged_tolerances(tolerances)
    trials = 100 if quick else 400
    r400 = simulate(ExperimentConfig(dimension=1, t=400.0, trials=trials, seed=seed + 1))
    r100 = simulate(ExperimentConfig(dimension=1, t=100.0, trials=trials, seed=seed + 2))
    c400 = clt_statistic(r400, "cos", 1.0, tolerance=tol["c7-window"])
    c100 = clt_statistic(r100, "cos", 1.0, tolerance=tol["c7-window"])
    sd400 = float(c400.values.std(ddof=1))
    sd100 = float(c100.values.std(ddof=1))
    problems, notes = [], []
    notes.append(f"{c400.fraction_within:.1%} of {trials} trials within "
                 f"{tol['c7-window']:g} of e^-1/2")
    if c400.fraction_within < tol["c7-frac"]:
        problems.append(f"fraction {c400.fraction_within:.3f} < {tol['c7-frac']}")
    notes.append(f"sd(t=400)={sd400:.4f} < sd(t=100)={sd100:.4f}")
    if not sd400 < sd100:
        problems.append(f"sd(t=400)={sd400:.4f} not below sd(t=100)={sd100:.4f}")
    ok = not problems
    return CriterionResult(7, "Gaussian statistic", ok,
                           "; ".join(notes if ok else problems))


def criterion_8_potlach(quick: bool = False, tolerances: dict | None = None, **_) -> CriterionResult:
    """Vertex-redistribution dynamics: series relation and factor-2 contrast.

    The coupled and independent pair walks jump at rate 2, so continuous
    times t in [100, 200] probe the event-count window [200, 400]. The
    coincidence ratio of the two Poissonized sequences carries the factor
    2 + o(1); the raw even-n entry ratio tends to 1 instead (the independent
    walk is parity-bound while the coupled one is not) and is reported for
    context only.
    """
    tol = merged_tolerances(tolerances)
    n_rel = 24 if quick else 48
    rep = verify_potlach_relation(1, n_rel)
    problems, notes = [], []
    if not rep.ok:
        problems.append(rep.summary())
    else:
        notes.append(f"coupling relation residual zero through z^{n_rel}")

    n_f = 420 if quick else 600
    ts = (60.0, 120.0) if quick else (100.0, 150.0, 200.0)
    pc, pi, ratios = potlach_contrast(1, n_f, ts)
    for t, ratio in zip(ts, ratios):
        if not tol["c8-lo"] <= ratio <= tol["c8-hi"]:
            problems.append(f"t={t:g}: ratio {ratio:.4f} outside "
                            f"[{tol['c8-lo']}, {tol['c8-hi']}]")
    notes.append("coincidence ratio " +
                 ", ".join(f"{r:.3f}" for r in ratios) +
                 f" at rate-2 event counts {[int(2 * t) for t in ts]}")
    notes.append(f"(raw even-n entry ratio at n=200: {pc[200] / pi[200]:.3f}, "
                 "tending to 1 as expected)")
    ok = not problems
    return CriterionResult(8, "vertex-redistribution contrast", ok,
                           "; ".join(notes if ok else problems))


CRITERIA = [
    criterion_1_identities,
    criterion_2_closed_form,
    criterion_3_first_passage,
    criterion_4_asymptotics,
    criterion_5_poissonized,
    criterion_6_simulation,
    criterion_7_clt,
    criterion_8_potlach,
]


def run_acceptance(quick: bool = False, tolerances: dict | None = None,
                   seed: int = DEFAULT_SEED, echo=print) -> list[CriterionResult]:
    """Run all eight criteria, printing one PASS/FAIL line per criterion."""
    tol = merged_tolerances(tolerances)
    results = []
    for fn in CRITERIA:
        res = fn(quick=quick, tolerances=tol, seed=seed)
        if echo is not None:
            echo(res.line())
        results.append(res)
    return results
