"""Orbits of the discontinuity points and their cycle structure.

Each endpoint carries two forward orbits: for a, the upper orbit starts
at -1/a and the lower at a+1; for b, the lower orbit starts at -1/b and
the upper at b-1.  When an orbit lands exactly on a or b it is rerouted
according to its own side: lower orbits take the branch from just below
(T at a, S at b), upper orbits the branch from just above (S at a,
T^-1 at b).  The two orbits of one endpoint either meet (a cycle, strong
when the composed word over the cycle acts as the identity), are both
eventually periodic without meeting, or remain unresolved at the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from .cf import state_key
from .mobius import Mobius, S, T, T_INV
from .natext import rho
from .params import Params
from .scalars import ExtReal, as_float, format_scalar

SeedKind = Literal["a_lower", "a_upper", "b_lower", "b_upper"]

_SEEDS: dict[SeedKind, Mobius] = {
    "a_lower": T,
    "a_upper": S,
    "b_lower": S,
    "b_upper": T_INV,
}

#: generator names for reported words; -S is S in PSL(2,Z)
_NAMES = {T: "T", T_INV: "T'", S: "S", S.inverse(): "S"}


@dataclass
class OrbitRecord:
    """One truncated forward orbit: gens[i] maps values[i] to values[i+1]."""

    values: list[ExtReal]
    gens: list[Mobius] = field(default_factory=list)
    repeated_at: Optional[int] = None  # index whose value re-occurred


def _transport(seed_map: Mobius, gens: list[Mobius], n: int) -> list[Mobius]:
    """Words carrying the endpoint to the first n >= 1 orbit values."""
    words = [seed_map]
    for g in gens[: n - 1]:
        words.append(g @ words[-1])
    return words


def orbit(params: Params, seed: SeedKind, cap: int = 100_000) -> OrbitRecord:
    """Iterate f from the seed, stopping at cap or at a state repeat."""
    if cap < 1:
        raise ValueError("cap >= 1")
    endpoint = params.a if seed.startswith("a") else params.b
    rec = OrbitRecord([_SEEDS[seed].apply(endpoint)])
    seen = {state_key(rec.values[0]): 0}
    lower = seed.endswith("lower")
    for _ in range(cap):
        v = rec.values[-1]
        g = rho(v, params, from_below=lower)
        nxt = g.apply(v)
        rec.gens.append(g)
        rec.values.append(nxt)
        k = state_key(nxt)
        if k in seen:
            rec.repeated_at = seen[k]
            rec.values.pop()  # truncate at first repeat
            rec.gens.pop()
            return rec
        seen[k] = len(rec.values) - 1
    return rec


Classification = Literal["strong", "weak", "periodic_no_cycle", "undetermined"]


@dataclass
class CycleResult:
    which: Literal["a", "b"]
    classification: Classification
    end: Optional[ExtReal] = None
    upper_steps: Optional[int] = None  # m in the (m, k) of the cycle
    lower_steps: Optional[int] = None
    upper_side: list[ExtReal] = field(default_factory=list)
    lower_side: list[ExtReal] = field(default_factory=list)
    upper_words: list[Mobius] = field(default_factory=list)
    lower_words: list[Mobius] = field(default_factory=list)
    end_word_upper: Optional[Mobius] = None
    end_word_lower: Optional[Mobius] = None
    cycle_word: Optional[Mobius] = None
    approximate: bool = False
    upper_orbit: Optional[OrbitRecord] = None
    lower_orbit: Optional[OrbitRecord] = None

    def word_names(self) -> str:
        """The cycle word in application order: the upper transport, then
        the inverse of the lower one; T' is T^-1."""
        up = [_SEEDS[f"{self.which}_upper"], *self.upper_orbit.gens[: self.upper_steps]]
        lo = [_SEEDS[f"{self.which}_lower"], *self.lower_orbit.gens[: self.lower_steps]]
        names = [_NAMES[g] for g in up] + [_NAMES[g.inverse()] for g in reversed(lo)]
        return " ".join(names)

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "classification": self.classification,
            "end_value": None if self.end is None else format_scalar(self.end),
            "end_float": None if self.end is None else as_float(self.end),
            "side_lengths": [self.upper_steps, self.lower_steps],
            "word": self.word_names() if self.cycle_word else None,
            "approximate": self.approximate,
        }


def cycle_strength(upper_word: Mobius, lower_word: Mobius) -> Classification:
    """Strong iff the two transported words agree as transformations."""
    return "strong" if upper_word.psl_eq(lower_word) else "weak"


def detect_cycle(params: Params, which: Literal["a", "b"], cap: int = 100_000) -> CycleResult:
    """Run both orbits of one endpoint to a repeat (or the cap), then take
    the meeting that minimizes the longer side; without a meeting the
    endpoint is periodic (both orbits closed up) or undetermined.  The
    record starts undetermined and is filled in as far as its case reaches."""
    if cap < 1:
        raise ValueError("cap >= 1")
    lo = orbit(params, f"{which}_lower", cap)
    up = orbit(params, f"{which}_upper", cap)
    res = CycleResult(
        which, "undetermined", approximate=not params.exact, upper_orbit=up, lower_orbit=lo
    )
    lo_index = {state_key(v): i for i, v in enumerate(lo.values)}
    meets = [(j, lo_index[k]) for j, v in enumerate(up.values) if (k := state_key(v)) in lo_index]
    if meets:
        j, i = min(meets, key=max)  # (upper index, lower index); the first on a tie
        res.end, res.upper_steps, res.lower_steps = up.values[j], j, i
        res.upper_side, res.lower_side = up.values[:j], lo.values[:i]
    elif lo.repeated_at is not None and up.repeated_at is not None:
        res.classification = "periodic_no_cycle"
        res.upper_side, res.lower_side = up.values, lo.values
    else:
        return res
    met = res.end is not None  # then the words run on to the end value
    res.upper_words = _transport(_SEEDS[f"{which}_upper"], up.gens, len(res.upper_side) + met)
    res.lower_words = _transport(_SEEDS[f"{which}_lower"], lo.gens, len(res.lower_side) + met)
    if met:
        res.end_word_upper, res.end_word_lower = res.upper_words.pop(), res.lower_words.pop()
        res.cycle_word = res.end_word_lower.inverse() @ res.end_word_upper
        if params.exact:
            res.classification = cycle_strength(res.end_word_upper, res.end_word_lower)
    return res


@dataclass
class TruncatedOrbits:
    """The level data (value, transport word) of the four truncated orbits."""

    la: list[tuple[ExtReal, Mobius]]
    ua: list[tuple[ExtReal, Mobius]]
    lb: list[tuple[ExtReal, Mobius]]
    ub: list[tuple[ExtReal, Mobius]]
    finite: bool
    cycle_a: CycleResult
    cycle_b: CycleResult


def _truncate_side(
    res: CycleResult, side: Literal["upper", "lower"]
) -> list[tuple[ExtReal, Mobius]]:
    values = res.upper_side if side == "upper" else res.lower_side
    words = res.upper_words if side == "upper" else res.lower_words
    out = list(zip(values, words))
    if res.classification == "weak":
        end_word = res.end_word_upper if side == "upper" else res.end_word_lower
        out.append((res.end, end_word))  # weak cycles end at 0; keep it
    return out


def truncated_orbits(params: Params, cap: int = 100_000) -> TruncatedOrbits:
    """Cycle sides (plus 0 for weak cycles), or eventually periodic orbits
    truncated at the first repeat; finiteness fails when a cycle is
    unresolved at the cap (its sides are then empty)."""
    ca = detect_cycle(params, "a", cap)
    cb = detect_cycle(params, "b", cap)
    finite = ca.classification != "undetermined" and cb.classification != "undetermined"
    return TruncatedOrbits(
        la=_truncate_side(ca, "lower"),
        ua=_truncate_side(ca, "upper"),
        lb=_truncate_side(cb, "lower"),
        ub=_truncate_side(cb, "upper"),
        finite=finite,
        cycle_a=ca,
        cycle_b=cb,
    )
