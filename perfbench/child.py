"""Run one avgproc benchmark workload in this (fresh) interpreter.

Started by ``run.py``; it prints one JSON line holding the monotonic clock
reading at which the imports were done, the wall time of the workload body,
the peak RSS of this process, every correctness check and, with
``--trace 1``, the per-layer metrics. ``--probe`` stops after the imports.

Every call goes through the public API by module attribute (``cli.run``,
``acceptance.criterion_4_asymptotics``, ...), so that ``spans.Probe`` can
rebind it. The program gets the seed only through the criteria's ``seed``
argument, which goes into ``ExperimentConfig``, or through ``--seed``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction

from avgproc import acceptance, cli, kernels

READY = time.monotonic()

import spans  # noqa: E402  (benchmark code; not part of the set-up being timed)

TOL = acceptance.DEFAULT_TOLERANCES

# Values behind the lines criteria 4, 5 and 8 print, recorded at the commit
# that added this benchmark. The relative tolerance admits the ~3e-11 an
# equivalent float route differs by and rejects any wrong table entry.
PIN_RTOL = 1e-9
PINS = {
    "c4 p~(d=1)[10000]": 0.003989746977186372,
    "c4 p~(d=2)[4096]": 7.817734538625277e-05,
    "c4 p~(d=3)[399]": 4.0020022446439936e-05,
    "c4 p~(d=3)[400]": 4.30832766359701e-05,
    "c4 alpha_3": 1.515219650314679,
    "c5 p~ d=1 t=2000": 0.008925644450177421,
    "c5 p~ d=2 t=1000": 0.00031911172435603296,
    "c5 p~ d=1 t=1000": 0.012629889339908386,
    "c5 p d=1 t=1000": 0.012617240455885371,
    "c8 coupled t=100": 0.05659670064023567,
    "c8 independent t=100": 0.02822715994910886,
    "c8 coupled t=150": 0.04616237583989171,
    "c8 independent t=150": 0.023042558415083837,
    "c8 coupled t=200": 0.03995681508493818,
    "c8 independent t=200": 0.01995335628193809,
}
# poissonized_return calls of criteria 5 and 8, in call order
POISSONIZED = [name for name in PINS if name.startswith(("c5", "c8"))]


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _stat_value(rows: list[dict], name: str) -> float:
    return float(next((r["value"] for r in rows if r["name"] == name), "nan"))


# ---------------------------------------------------------------------------
# Workload bodies (timed) and their checks on the outputs (untimed)
# ---------------------------------------------------------------------------


def exact_identities(seed, tmp, check):
    for criterion in (acceptance.criterion_1_identities,
                      acceptance.criterion_2_closed_form,
                      acceptance.criterion_3_first_passage):
        res = criterion()
        check(f"criterion {res.number} passed", res.passed)
    dp_csv, sim_csv = os.path.join(tmp, "walk-dp.csv"), os.path.join(tmp, "simulate.csv")
    check("walk-dp exit 0", cli.run(["walk-dp", "--mode", "exact", "--d", "2", "--steps", "64",
                                     "--tables", "p,q,r,s", "--out", dp_csv]) == 0)
    check("simulate exit 0", cli.run(["simulate", "--mode", "exact", "--d", "1", "--t", "64",
                                      "--trials", "100", "--seed", str(seed),
                                      "--out", sim_csv]) == 0)
    return dp_csv, sim_csv


def check_exact_identities(state, probe, check):
    reports = [r for key in ("verify_gf_relations", "verify_closed_form_d1")
               for result in probe.captured[key] for r in result]
    check("32 identity reports (30 from criterion 1, 2 from criterion 2)", len(reports) == 32)
    for rep in reports:
        check(f"identity {rep.name} d={rep.dimension} ok", rep.ok)

    dp_csv, sim_csv = state
    tables: dict[str, dict[int, Fraction]] = {}
    for row in _csv_rows(dp_csv):
        tables.setdefault(row["name"], {})[int(row["n"])] = Fraction(
            int(row["numerator"]), int(row["denominator"]))
    sizes = {name: len(t) for name, t in tables.items()}
    check("walk-dp tables p~ 0..64, q~ 1..64, r~ 0..64, s~ 1..64",
          sizes == {"p_tilde": 65, "q_tilde": 64, "r_tilde": 65, "s_tilde": 64})
    pt, qt = tables.get("p_tilde", {}), tables.get("q_tilde", {})
    check("walk-dp p~_2 == 5/16", pt.get(2) == Fraction(5, 16))
    check("walk-dp renewal p~_n == sum_k q~_k p~_(n-k), n <= 64",
          len(pt) == 65 and len(qt) == 64 and all(
              pt[n] == sum(qt[k] * pt[n - k] for k in range(1, n + 1)) for n in range(1, 65)))

    defect = _stat_value(_csv_rows(sim_csv), "conservation-defect")
    check(f"exact simulate conservation defect <= {TOL['c6-conservation']:g}",
          defect <= TOL["c6-conservation"])


def float_asymptotics(seed, tmp, check):
    for criterion in (acceptance.criterion_4_asymptotics,
                      acceptance.criterion_5_poissonized,
                      acceptance.criterion_8_potlach):
        res = criterion()
        check(f"criterion {res.number} passed", res.passed)


def float_values(probe) -> dict[str, float]:
    """The full-precision values behind criteria 4, 5 and 8's printed lines."""
    p = {d: acceptance._perturbed_float(d, n) for d, n in ((1, 10_000), (2, 4096), (3, 400))}
    out = {"c4 p~(d=1)[10000]": p[1][10_000], "c4 p~(d=2)[4096]": p[2][4096],
           "c4 p~(d=3)[399]": p[3][399], "c4 p~(d=3)[400]": p[3][400]}
    out.update({"c4 alpha_3": a.value for a in probe.captured["alpha_return_total"]})
    out.update(zip(POISSONIZED, (v.value for v in probe.captured["poissonized_return"])))
    return out


def check_float_asymptotics(state, probe, check):
    reports = probe.captured["verify_potlach_relation"]
    check("one potlach relation report, ok", len(reports) == 1 and reports[0].ok)
    check("one alpha_3 and ten Poissonized values",
          len(probe.captured["alpha_return_total"]) == 1
          and len(probe.captured["poissonized_return"]) == len(POISSONIZED))
    values = float_values(probe)
    for name, want in PINS.items():
        got = values.get(name, math.nan)
        check(f"pinned {name}", math.isclose(got, want, rel_tol=PIN_RTOL, abs_tol=0.0))


def mc_d1_many_trials(seed, tmp, check):
    res = acceptance.criterion_6_simulation(seed=seed)
    check("criterion 6 passed", res.passed)
    res = acceptance.criterion_7_clt(seed=seed)
    check("criterion 7 passed", res.passed)
    out = os.path.join(tmp, "potlach.csv")
    check("simulate potlach exit 0", cli.run(
        ["simulate", "--dynamics", "potlach", "--d", "1", "--t", "64", "--trials", "2000",
         "--seed", str(seed), "--out", out]) == 0)
    return out


def check_mc_d1_many_trials(out, probe, check):
    defect = _stat_value(_csv_rows(out), "conservation-defect")
    check(f"potlach conservation defect <= {TOL['c6-conservation']:g}",
          defect <= TOL["c6-conservation"])


WORKLOADS = {
    "exact-identities": (exact_identities, check_exact_identities),
    "float-asymptotics": (float_asymptotics, check_float_asymptotics),
    "mc-d1-many-trials": (mc_d1_many_trials, check_mc_d1_many_trials),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the spans here (with --trace 1)")
    ap.add_argument("--workdir", required=True, help="scratch directory for CLI outputs")
    ap.add_argument("--probe", action="store_true", help="stop after the imports")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    # Every repetition starts cold: no cached DP table or kernel from earlier work.
    cached = [acceptance._perturbed_float, kernels.srw_kernel,
              kernels.avg_difference_kernel, kernels.potlach_kernels]
    warm = [f.__name__ for f in cached if f.cache_info().currsize]
    if warm:
        raise SystemExit(f"caches not cold before the body: {warm}")

    probe = spans.Probe(timed=bool(args.trace))
    probe.install()
    body, verify = WORKLOADS[args.workload]
    check = Checks()
    tmp = tempfile.mkdtemp(dir=args.workdir)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        state = body(args.seed, tmp, check)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verify(state, probe, check)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = {"ready": READY, "seed": args.seed, "wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb": peak_kb / 1024.0, "checks": check.results}
    if args.trace:
        out["layers"] = {name: {"value": value, "unit": spans.LAYER_UNITS[name]}
                         for name, value in probe.layer_metrics().items()}
        out["computed_metrics"] = list(spans.COMPUTED)
        if args.spans:
            probe.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
