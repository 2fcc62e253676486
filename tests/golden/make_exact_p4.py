"""Write exact_p4.sha256: for each of the 146 pairs (a, b) of P with
denominators <= 4 (a = -x and b = y, x and y in [0, 4]), the sha256 of the
stdout of `abcf attractor` followed by that of `abcf verify --suite
bijectivity`.  tests/test_cli.py compares the package against the file.

    PYTHONPATH=src python tests/golden/make_exact_p4.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction
from pathlib import Path

from abcf.cli import main
from abcf.params import ParamError, Params

GOLDEN = Path(__file__).with_name("exact_p4.sha256")


def pairs() -> list[tuple[Fraction, Fraction]]:
    vals = sorted({Fraction(n, d) for d in range(1, 5) for n in range(4 * d + 1)})
    out = []
    for x in vals:
        for y in vals:
            try:
                Params(-x, y)
            except ParamError:
                continue
            out.append((-x, y))
    return out


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def digests() -> list[str]:
    """One line "a b sha256" per pair."""
    lines = []
    for a, b in pairs():
        ab = ["--a", str(a), "--b", str(b)]
        out = _stdout(["attractor", *ab]) + _stdout(["verify", *ab, "--suite", "bijectivity"])
        lines.append(f"{a} {b} {hashlib.sha256(out.encode()).hexdigest()}")
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(digests()) + "\n")
