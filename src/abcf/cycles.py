"""Orbits of the discontinuity points and their cycle structure.

Each endpoint carries two forward orbits: for a, the upper orbit starts
at -1/a and the lower at a+1; for b, the lower orbit starts at -1/b and
the upper at b-1.  When an orbit lands exactly on a or b it is rerouted
according to its own side: lower orbits take the branch from just below
(T at a, S at b), upper orbits the branch from just above (S at a,
T^-1 at b).  The two orbits of one endpoint either meet (a cycle, strong
when the composed word over the cycle acts as the identity), are both
eventually periodic without meeting, or remain unresolved at the cap.
They are walked in lockstep and stop where this is decided: at the first
meeting, once both have closed on a repeat, or at the cap.  Each side
keeps one transport word per value it walked.  The four truncated orbits
(La, Ua of a; Lb, Ub of b) come as Level records, value and word with
their chain and position: the staircase levels of the attractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from .cf import state_key
from .mobius import Mobius, S, T, T_INV
from .natext import rho
from .params import Params
from .scalars import ExtReal, as_float, format_scalar

#: the maps carrying each endpoint to the first (upper, lower) orbit values
_SEEDS = {"a": (S, T), "b": (T_INV, S)}

#: generator names for reported words; -S is S in PSL(2,Z)
_NAMES = {T: "T", T_INV: "T'", S: "S", S.inverse(): "S"}


@dataclass
class OrbitRecord:
    """One truncated forward orbit: gens[i] maps values[i] to values[i+1].
    It is closed once its next value would repeat one of its own."""

    values: list[ExtReal]
    gens: list[Mobius] = field(default_factory=list)
    closed: bool = False


def _transport(seed_map: Mobius, gens: list[Mobius], n: int) -> list[Mobius]:
    """Words carrying the endpoint to the first n >= 1 orbit values."""
    words = [seed_map]
    for g in gens[: n - 1]:
        words.append(g @ words[-1])
    return words


def _step(rec: OrbitRecord, index: dict, params: Params, from_below: bool):
    """Extend the orbit by one value, indexed under its state key; returns
    the key, or None (closing the orbit) when the value repeats."""
    g = rho(rec.values[-1], params, from_below=from_below)
    nxt = g.apply(rec.values[-1])
    k = state_key(nxt)
    if k in index:
        rec.closed = True
        return None
    index[k] = len(rec.values)
    rec.values.append(nxt)
    rec.gens.append(g)
    return k


Classification = Literal["strong", "weak", "periodic_no_cycle", "undetermined"]


@dataclass
class CycleResult:
    """One endpoint's cycle record: upper_words[i] carries the endpoint to
    upper_orbit.values[i], and likewise lower (see detect_cycle)."""

    which: Literal["a", "b"]
    classification: Classification
    end: Optional[ExtReal] = None
    upper_steps: Optional[int] = None  # m in the (m, k) of the cycle
    lower_steps: Optional[int] = None
    upper_words: list[Mobius] = field(default_factory=list)
    lower_words: list[Mobius] = field(default_factory=list)
    approximate: bool = False
    upper_orbit: Optional[OrbitRecord] = None
    lower_orbit: Optional[OrbitRecord] = None

    def word_names(self) -> str:
        """The cycle word in application order: the upper transport, then
        the inverse of the lower one; T' is T^-1."""
        up_seed, lo_seed = _SEEDS[self.which]
        up = [up_seed, *self.upper_orbit.gens[: self.upper_steps]]
        lo = [lo_seed, *self.lower_orbit.gens[: self.lower_steps]]
        names = [_NAMES[g] for g in up] + [_NAMES[g.inverse()] for g in reversed(lo)]
        return " ".join(names)

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "classification": self.classification,
            "end_value": None if self.end is None else format_scalar(self.end),
            "end_float": None if self.end is None else as_float(self.end),
            "side_lengths": [self.upper_steps, self.lower_steps],
            "word": self.word_names() if self.end is not None else None,
            "approximate": self.approximate,
        }


def detect_cycle(params: Params, which: Literal["a", "b"], cap: int = 100_000) -> CycleResult:
    """Walk both orbits of one endpoint in lockstep, one step each, until
    they meet, both close on a repeat, or cap steps are made.  At step n
    the new lower value is looked up among the upper values first: of the
    meetings (j, i) with max(j, i) = n that finds the least j, so the
    meeting taken minimizes the longer side, then the upper side.
    Without a meeting the endpoint is periodic (both orbits closed) or
    undetermined.  The record starts undetermined and is filled in as far
    as its case reaches; each side's words end at the meeting value, or
    cover its closed orbit."""
    if cap < 1:
        raise ValueError("cap >= 1")
    endpoint = params.a if which == "a" else params.b
    up, lo = (OrbitRecord([seed.apply(endpoint)]) for seed in _SEEDS[which])
    res = CycleResult(
        which, "undetermined", approximate=not params.exact, upper_orbit=up, lower_orbit=lo
    )
    ku, kl = state_key(up.values[0]), state_key(lo.values[0])
    up_index, lo_index = {ku: 0}, {kl: 0}
    for n in range(cap + 1):  # a closed orbit's key is None, which no index holds
        if kl in up_index or ku in lo_index:
            j, i = (up_index[kl], n) if kl in up_index else (n, lo_index[ku])
            res.end, res.upper_steps, res.lower_steps = up.values[j], j, i
            n_up, n_lo = j + 1, i + 1  # the words run on to the end value
            break
        if up.closed and lo.closed:
            res.classification = "periodic_no_cycle"
            n_up, n_lo = len(up.values), len(lo.values)
            break
        if n == cap:
            return res
        ku = None if up.closed else _step(up, up_index, params, from_below=False)
        kl = None if lo.closed else _step(lo, lo_index, params, from_below=True)
    up_seed, lo_seed = _SEEDS[which]
    res.upper_words = _transport(up_seed, up.gens, n_up)
    res.lower_words = _transport(lo_seed, lo.gens, n_lo)
    if res.end is not None and params.exact:  # strong iff the end words agree in PSL(2,Z)
        strong = res.upper_words[-1].psl_eq(res.lower_words[-1])
        res.classification = "strong" if strong else "weak"
    return res


Chain = Literal["La", "Lb", "Ua", "Ub"]


@dataclass(frozen=True)
class Level:
    """One staircase level: the value at position pos of a truncated orbit
    (lower or upper, of a or b), and the word carrying the endpoint there."""

    value: ExtReal
    word: Mobius
    chain: Chain
    pos: int

    @property
    def a_anchored(self) -> bool:
        return self.chain in ("La", "Ua")

    @property
    def origin(self) -> str:
        return f"{self.chain}[{self.pos}]"


@dataclass
class TruncatedOrbits:
    """The levels of the four truncated orbits.  If a's cycle is
    unresolved, b is not walked and cycle_b has no orbits."""

    la: list[Level]
    ua: list[Level]
    lb: list[Level]
    ub: list[Level]
    finite: bool
    cycle_a: CycleResult
    cycle_b: CycleResult


def _truncate_side(res: CycleResult, chain: Chain) -> list[Level]:
    """One side's levels: its closed orbit whole, or its cycle side up to the
    end, which a weak cycle keeps, as the one object res.end."""
    lower = chain[0] == "L"
    words = res.lower_words if lower else res.upper_words
    if not words:  # undetermined
        return []
    orbit = res.lower_orbit if lower else res.upper_orbit
    values = orbit.values[: len(words) - (res.end is not None)]
    if res.classification == "weak":
        values.append(res.end)  # weak cycles end at 0; keep it
    return [Level(v, w, chain, i) for i, (v, w) in enumerate(zip(values, words))]


def truncated_orbits(params: Params, cap: int = 100_000) -> TruncatedOrbits:
    """Cycle sides (plus the end 0 of a weak cycle, one object on both
    sides), or eventually periodic orbits truncated at the first repeat;
    finiteness fails when a cycle is unresolved at the cap (its sides are
    then empty).  Only the first unresolved endpoint is reported, so b is
    walked only if a resolves."""
    ca = detect_cycle(params, "a", cap)
    a_resolved = ca.classification != "undetermined"
    cb = detect_cycle(params, "b", cap) if a_resolved else CycleResult("b", "undetermined")
    finite = a_resolved and cb.classification != "undetermined"
    return TruncatedOrbits(
        la=_truncate_side(ca, "La"),
        ua=_truncate_side(ca, "Ua"),
        lb=_truncate_side(cb, "Lb"),
        ub=_truncate_side(cb, "Ub"),
        finite=finite,
        cycle_a=ca,
        cycle_b=cb,
    )
