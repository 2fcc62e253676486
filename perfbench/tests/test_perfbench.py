"""Fast checks of the benchmark harness itself: tiny items, one pass."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import bench_workloads  # noqa: E402
import run  # noqa: E402

TINY = {"cap": 100_000, "n_points": 1_000, "burn_in": 200, "grid": 6}


def tiny_workload(items) -> bench_workloads.Workload:
    return bench_workloads.Workload(items, bench_workloads.WARMUP_VERIFY)


def declared_units(kind: str) -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module", autouse=True)
def program():
    run.import_program()


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_emits_the_declared_metrics(trace, kind):
    item = bench_workloads.verify_item("-4/5", "2/5", 1, TINY, (2.0, -1.0))
    details, result = run.bench(tiny_workload([item]), seconds=0, trace=trace, setup_samples=1)
    assert result["correct"] and result["failed"] == 0 and details["fail_frac"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared_units(kind)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    work = details["passes"][0]["items"][0]["work"]
    assert work["levels"] > 0 and work["orbit_steps"] > 0 and work["sampled_points"] == TINY["n_points"]


def test_wrong_verdicts_and_exceptions_count_as_failures():
    items = [
        bench_workloads.verify_item("-4/5", "2/5", 1, TINY, (3.0, -1.0)),  # corner is (2, -1)
        bench_workloads.exceptional_item("m=2;1x2", "1e-3", 1, TINY, None),  # m < 3 raises
        bench_workloads.verify_item("-7/10", "4/5", 1, TINY, (1.0, -1.0)),
    ]
    details, result = run.bench(tiny_workload(items), seconds=0, trace=False, setup_samples=1)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
    assert details["fail_frac"] == pytest.approx(2 / 3)
    assert [r["ok"] for r in details["passes"][0]["items"]] == [False, False, True]


def test_refuses_to_start_while_abcf_seed_is_set(monkeypatch, capsys):
    monkeypatch.setenv("ABCF_SEED", "3")
    assert run.main(["--workload", "measures", "--seed", "1", "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_workload_inputs_follow_the_seed():
    def names(seed):
        return [i.name for i in bench_workloads.build("verify-short", seed).items]

    assert names(4) == names(4) and names(4) != names(5)
