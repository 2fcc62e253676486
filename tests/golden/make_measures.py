"""Write measures.sha256: the sha256 of the stdout of `abcf measures
--n-points 200000` at seeds 7 and 3 on six pairs: the three of the
`measures` benchmark workload, README's (-4/5, 2/5), (-1, 1/2), whose 49.4 %
acceptance forces the sampler into a second round, and the 19-box
boundary-line pair (-16/17, 1/17).  200k points take several of the
sampler's chunks.  tests/test_measures.py compares the package against the
file.

    PYTHONPATH=src python tests/golden/make_measures.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from abcf.cli import main

GOLDEN = Path(__file__).with_name("measures.sha256")
PAIRS = [("-7/10", "4/5"), ("-1", "1"), ("-3/5", "3/4"), ("-4/5", "2/5"), ("-1", "1/2"), ("-16/17", "1/17")]
SEEDS = [7, 3]
N_POINTS = 200_000


def digests() -> list[str]:
    """One line "a b seed sha256" per pair and seed."""
    lines = []
    for a, b in PAIRS:
        for seed in SEEDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(["measures", "--a", a, "--b", b, "--n-points", str(N_POINTS), "--seed", str(seed)])
            lines.append(f"{a} {b} {seed} {hashlib.sha256(buf.getvalue().encode()).hexdigest()}")
    return lines


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(digests()) + "\n")
