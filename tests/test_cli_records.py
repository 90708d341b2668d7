"""Digests of the records the CLI writes.

Each case runs one command with ``--out`` and ``--json-summary`` and hashes
the CSV, the JSON summary line and, where written, the field dump. How a
record is produced may change; what the user receives may not, unless a
digest here is updated openly.
"""
import hashlib

import pytest

from avgproc.cli import run

# walk-dp, series-verify and potlach draw no random numbers and take no --seed:
# their headers read seed= empty and hash a config without it; every other line is unchanged
# the simulate records' two-norm targets come from tables sized by required_poisson_order
# (simulate-*: 51, 35 and 79 steps, was 117, 101 and 147): each moved by at most 6.7e-14,
# within its stated error of at least 4.2e-13, and the z-scores with them.
# h_t is the cycle kernels' truncated cosine sum, not the truncated Poisson mixture, which
# was short of mass by up to 1.1e-12: in simulate-* only the centered-two-norm-sq and
# centered-one-norm rows moved, their targets by at most 7.9e-14, values by at most
# 1.4e-13, standard errors by at most 3.0e-14 and z by at most 4.9e-11
CASES = {
    "simulate-float-d1": (["simulate", "--d", "1", "--t", "16", "--trials", "40",
                           "--seed", "3", "--dump-field", "{field}"], "519d648456b5d8d7"),
    "simulate-exact-d1": (["simulate", "--mode", "exact", "--d", "1", "--t", "8",
                           "--trials", "20", "--seed", "3"], "0919205805d38894"),
    # the potlach records carry exact targets and the averaging records' set: the
    # two-norm-sq value is unchanged, its target and z are filled in, and the
    # centered norms, the mean-field fraction and the summary's z and fraction join
    "simulate-potlach-d1": (["simulate", "--dynamics", "potlach", "--d", "1", "--t", "16",
                             "--trials", "40", "--seed", "3"], "1c413f422147cc6d"),
    "clt-d1": (["clt", "--d", "1", "--t", "16", "--trials", "20", "--seed", "3"],
               "c8a7191aa37e4163"),
    # the ratio tables end at the index required_poisson_order gives at t=200
    # (548, written in the order column), not at a --steps of 600. Their 549 coefficients
    # take Newton rounds past 512 by middle products: the three coincidence ratios moved
    # in their last 1-3 ulps (2.0050441044113074 -> ...065 at t=100)
    "potlach-order-24": (["potlach", "--order", "24"], "9ca997e8714fa258"),
    "series-verify-d1": (["series-verify", "--d", "1"], "7f71a167de1c220d"),
    "series-verify-d3-order-20": (["series-verify", "--d", "3", "--order", "20"],
                                  "031cdac4ce09258c"),
    "walk-dp-potlach-coup-d2": (["walk-dp", "--kernel", "potlach-coup", "--d", "2",
                                 "--steps", "24", "--tables", "p,q,r,s"], "bee024a6e53df2ca"),
    "walk-dp-avg-diff-d3": (["walk-dp", "--kernel", "avg-diff", "--d", "3", "--steps", "24",
                             "--tables", "p,q,r,s"], "f02c7eebc37bee49"),
    # q~ comes from the lumped chain as a z + beta z Ns/Dr, not as 1 - 1/p~: 11 entries
    # moved by at most 3.5e-18, and its error bound fell from 7.2e-15 to 4.5e-16. The d=3
    # closed form's rho now counts its own roundings (a factor 1 + 8u where 1 + u was 1.0):
    # only the two error bounds moved, 1.4359e-14 -> 1.4507e-14 and 4.526e-16 -> 6.253e-16.
    # The closed form's last two bound steps now round up: only q~'s error bound moved,
    # 6.252714395631973e-16 -> ...976e-16, in the CSV header and the JSON summary
    "walk-dp-float-potlach-coup-d3": (["walk-dp", "--kernel", "potlach-coup", "--mode", "float",
                                       "--d", "3", "--steps", "24", "--tables", "p,q"],
                                      "cf8d325687e29604"),
}


def _digest(texts) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_outputs_pinned(case, tmp_path, capsys):
    argv, want = CASES[case]
    out, field = tmp_path / "out.csv", tmp_path / "field.csv"
    argv = [a.format(field=field) for a in argv] + ["--out", str(out), "--json-summary"]
    assert run(argv) == 0
    texts = [out.read_text(), capsys.readouterr().out]
    if field.exists():
        texts.append(field.read_text())
    assert _digest(texts) == want


def test_accept_quick_details_pinned(tmp_path, capsys):
    out = tmp_path / "accept.csv"
    assert run(["accept", "--quick", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digest([out.read_text()]) == "19233209e9af099a"
