"""The four benchmark workloads: fixed item lists with hand-written verdicts.

An item is one user-visible request (one or two CLI calls, or one library
call).  ``run`` returns what the program printed; ``check`` compares it
with ``expected``, which is written here by hand from the paper and the
acceptance criteria, never copied from a run.  Every size and seed is
passed explicitly, so a changed CLI default cannot change the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

#: verify sizes shared by the two verify workloads
VERIFY_SIZES = {"cap": 100_000, "n_points": 10_000, "burn_in": 200, "grid": 40}
#: at n = 2e6, sqrt(n) * 3e-3 = 4.2 lies far in the Kolmogorov tail, so the KS
#: bound does not fail by chance; the size also balances KS against Birkhoff
MEASURES_POINTS = 2_000_000
#: 8e5 steps put the 1e-2 Birkhoff tolerance at about 4.4 standard
#: deviations of the time average of -2 log|x| (0.0037 at 3e5 steps)
BIRKHOFF_STEPS = 800_000


@dataclass
class Item:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict, dict], list[str]]
    expected: dict


@dataclass
class Workload:
    items: list[Item]
    #: a small call of the workload's first kind, run before timing
    warmup_argv: list[str]


def cli(argv: list[str]) -> tuple[int, dict]:
    """Run ``abcf.cli.main(argv)`` in-process; return (exit status, JSON)."""
    from abcf import cli as abcf_cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = abcf_cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    text = out.getvalue()
    payload = json.loads(text) if text.strip() else {"stderr": err.getvalue()}
    return status, payload


def _verify_argv(a: str, b: str, seed: int, sizes: dict) -> list[str]:
    return [
        "verify", "--a", a, "--b", b, "--suite", "all",
        "--cap", str(sizes["cap"]), "--seed", str(seed),
        "--n-points", str(sizes["n_points"]), "--burn-in", str(sizes["burn_in"]),
        "--grid", str(sizes["grid"]),
    ]  # fmt: skip


# -- checks ----------------------------------------------------------------


def _mismatch(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def check_verify(obs: dict, exp: dict) -> list[str]:
    out = obs["payload"]
    problems = _mismatch("exit status", obs["status"], exp["status"])
    problems += _mismatch("ok", out.get("ok"), exp["ok"])
    problems += _mismatch("finite", out.get("finiteness", {}).get("finite"), exp["finite"])
    for corner in ("x_a", "x_b"):
        if corner in exp:
            problems += _mismatch(corner, out.get(corner), exp[corner])
    return problems


def check_exceptional(obs: dict, exp: dict) -> list[str]:
    enc, ver = obs["enclosure"], obs["verify"]
    problems = _mismatch("exceptional exit status", obs["status"], 0)
    if not enc["base_length"] < exp["target_width"]:
        problems.append(f"base length {enc['base_length']} not below {exp['target_width']}")
    if not enc["b_lo"] <= float(Fraction(enc["b"])) <= enc["b_hi"]:
        problems.append("b outside its enclosure")
    if "generations" in exp:
        problems += _mismatch("generations", enc["generations"], exp["generations"])
    problems += _mismatch("verify exit status", obs["verify_status"], exp["verify_status"])
    problems += _mismatch("finite", ver.get("finiteness", {}).get("finite"), exp["finite"])
    return problems


def _closed_entropy(a: Fraction, b: Fraction) -> float:
    """pi^2 / (3 log((1 - a)(1 + b))), the paper's closed form."""
    return math.pi**2 / (3.0 * math.log((1 - float(a)) * (1 + float(b))))


def check_measures(obs: dict, exp: dict) -> list[str]:
    out = obs["payload"]
    problems = _mismatch("exit status", obs["status"], 0)
    if obs["status"] != 0:
        return problems
    h = _closed_entropy(exp["a"], exp["b"])
    if not out["ks_stat"] <= exp["ks_max"]:
        problems.append(f"KS {out['ks_stat']} above {exp['ks_max']}")
    if not abs(out["h_rokhlin"] - h) <= exp["entropy_tol"]:
        problems.append(f"h_rokhlin {out['h_rokhlin']} vs closed form {h}")
    for mass in ("nu_mass", "mu_mass"):
        if not abs(out[mass] - 1.0) <= exp["mass_tol"]:
            problems.append(f"{mass} {out[mass]} not within {exp['mass_tol']} of 1")
    return problems


def check_birkhoff(obs: dict, exp: dict) -> list[str]:
    h = _closed_entropy(exp["a"], exp["b"])
    if abs(obs["average"] - h) <= exp["entropy_tol"]:
        return []
    return [f"Birkhoff average {obs['average']} vs closed form {h}"]


# -- items -----------------------------------------------------------------


def verify_item(a: str, b: str, seed: int, sizes: dict, corners: tuple | None = None) -> Item:
    argv = _verify_argv(a, b, seed, sizes)

    def run() -> dict:
        status, payload = cli(argv)
        return {"status": status, "payload": payload}

    expected = {"status": 0, "ok": True, "finite": True}
    if corners is not None:
        expected["x_a"], expected["x_b"] = corners
    return Item(f"verify({a},{b})", run, check_verify, expected)


def exceptional_item(plan: str, width: str, seed: int, sizes: dict, generations: int | None) -> Item:
    """`exceptional --plan`, then `verify --cap 1000` on the returned b."""

    def run() -> dict:
        status, enc = cli(["exceptional", "--plan", plan, "--target-width", width])
        b = Fraction(enc["b"])
        verify_status, ver = cli(_verify_argv(str(b - 1), str(b), seed, {**sizes, "cap": 1_000}))
        return {"status": status, "enclosure": enc, "verify_status": verify_status, "verify": ver}

    expected = {"target_width": float(width), "verify_status": 2, "finite": False}
    if generations is not None:
        expected["generations"] = generations
    return Item(f"exceptional({plan},{width})", run, check_exceptional, expected)


def measures_item(a: str, b: str, seed: int, n_points: int) -> Item:
    argv = ["measures", "--a", a, "--b", b, "--n-points", str(n_points), "--seed", str(seed)]

    def run() -> dict:
        status, payload = cli(argv)
        return {"status": status, "payload": payload}

    expected = {
        "a": Fraction(a), "b": Fraction(b),
        "ks_max": 3e-3, "entropy_tol": 1e-5, "mass_tol": 1e-8,
    }  # fmt: skip
    return Item(f"measures({a},{b})", run, check_measures, expected)


def birkhoff_item(a: str, b: str, seed: int, n_steps: int) -> Item:
    """Time average of -2 log|x|, whose space average is the entropy."""

    def run() -> dict:
        from abcf import measures
        from abcf.params import Params

        avg = measures.birkhoff_average(
            Params.make(a, b), lambda xs: -2.0 * np.log(np.abs(xs)), n_steps, seed
        )
        return {"average": avg}

    expected = {"a": Fraction(a), "b": Fraction(b), "entropy_tol": 1e-2}
    return Item(f"birkhoff({a},{b})", run, check_birkhoff, expected)


# -- workloads -------------------------------------------------------------

#: the classical, Zagier and criterion-6 both-strong pairs, with the exact
#: corners (x_a, x_b) that acceptance criterion 4 states
SHORT_PAIRS = [
    ("-1", "1", None),
    ("-1/2", "1/2", None),
    ("-7/10", "4/5", (1.0, -1.0)),
    ("-4/5", "2/5", (2.0, -1.0)),
    ("-3/4", "4/7", None),
    ("-6/5", "1/3", (2.0, -1.0)),
    ("-5/6", "3/5", None),
]
#: boundary-line pairs (1/k - 1, 1/k) with 134, 246 and 422 levels; k = 87
#: (694 levels, about 5 s alone) is left out so a run holds several passes
BOUNDARY_KS = [17, 31, 53]
#: (plan, target width, generation count reached where it is known)
EXCEPTIONAL_PLANS = [
    ("m=3;1x2,1x2,1x3,1x2,1x2,1x2,1x3,1x2", "1e-200", 7),
    ("m=3;2x1,2x2,2x1,2x1,2x2,2x1,2x1", "1e-250", None),
]
MEASURES_PAIRS = [("-7/10", "4/5"), ("-1", "1"), ("-3/5", "3/4")]
#: a small verify call that reaches every suite (scipy's KD-tree included)
WARMUP_VERIFY = _verify_argv("-4/5", "2/5", 1, {"cap": 100_000, "n_points": 1_000, "burn_in": 200, "grid": 6})


def build(name: str, seed: int) -> Workload:
    """The item list of one workload."""
    if name == "verify-short":
        from abcf.params import interior_rational_params

        items = [verify_item(a, b, seed, VERIFY_SIZES, c) for a, b, c in SHORT_PAIRS]
        drawn = interior_rational_params(np.random.default_rng(seed), 10)
        items += [verify_item(str(p.a), str(p.b), seed, VERIFY_SIZES) for p in drawn]
        return Workload(items, WARMUP_VERIFY)
    if name == "verify-boundary":
        items = [verify_item(f"{1 - k}/{k}", f"1/{k}", seed, VERIFY_SIZES) for k in BOUNDARY_KS]
        return Workload(items, WARMUP_VERIFY)
    if name == "exceptional-deep":
        items = [exceptional_item(p, w, seed, VERIFY_SIZES, g) for p, w, g in EXCEPTIONAL_PLANS]
        return Workload(items, ["exceptional", "--plan", "m=3;1x2,1x2", "--target-width", "1e-3"])
    if name == "measures":
        items = [measures_item(a, b, seed, MEASURES_POINTS) for a, b in MEASURES_PAIRS]
        items.append(birkhoff_item(*MEASURES_PAIRS[0], seed, BIRKHOFF_STEPS))
        warm = ["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "1000", "--seed", "1"]
        return Workload(items, warm)
    raise KeyError(name)


WORKLOADS = ["verify-short", "verify-boundary", "exceptional-deep", "measures"]
