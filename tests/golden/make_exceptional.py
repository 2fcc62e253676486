"""Write exceptional.sha256: the sha256 of the stdout of `abcf exceptional`
for the two `exceptional-deep` benchmark plans and the near-exceptional
plan of CI's tiling step, and of `abcf verify --suite all --cap 1000` (the
benchmark's verify sizes, seed 1) on each deep plan's (b - 1, b).
tests/test_exceptional.py compares the package against the file.

    PYTHONPATH=src python tests/golden/make_exceptional.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from abcf.cli import main

GOLDEN = Path(__file__).with_name("exceptional.sha256")

#: (plan, target width, whether to verify the returned b)
PLANS = [
    ("m=3;1x2,1x2,1x3,1x2,1x2,1x2,1x3,1x2", "1e-200", True),
    ("m=3;2x1,2x2,2x1,2x1,2x2,2x1,2x1", "1e-250", True),
    ("m=3;1x2,1x3,1x2,1x2,1x3,1x2,1x2,1x3", "1e-60", False),
]
VERIFY_SIZES = ["--cap", "1000", "--seed", "1", "--n-points", "10000", "--burn-in", "200", "--grid", "40"]


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> list[str]:
    """One line "command plan width sha256" per output."""
    lines = []
    for plan, width, verify in PLANS:
        out = _stdout(["exceptional", "--plan", plan, "--target-width", width])
        lines.append(f"exceptional {plan} {width} {_digest(out)}")
        if verify:
            b = Fraction(json.loads(out)["b"])
            ab = ["--a", str(b - 1), "--b", str(b)]
            out = _stdout(["verify", *ab, "--suite", "all", *VERIFY_SIZES])
            lines.append(f"verify {plan} {width} {_digest(out)}")
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(digests()) + "\n")
