import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from abcf.attractor import build_attractor
from abcf.cf import evaluate_minus_cf
from abcf.cli import main
from abcf.params import Params
from abcf.scalars import parse_scalar
from abcf.svg import render_svg

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_expand_command(capsys):
    code, out = run_cli(["expand", "--a", "-1/2", "--b", "1/2", "--x", "2/5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == [0, -2, 2]
    assert payload["terminated"] is True
    assert payload["config"]["a"] == "-1/2"


def test_expand_command_periodic(capsys):
    # the golden mean repeats its state after one digit: its JSON is the
    # (preperiod, period) pair, whose value is x again
    x = "(1+1*sqrt(5))/2"
    code, out = run_cli(["expand", "--a", "-1/2", "--b", "1/2", "--x", x], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == {"preperiod": [2], "period": [3]}
    assert payload["terminated"] is False and payload["approximate"] is False
    assert evaluate_minus_cf([2], [3]) == parse_scalar(x)


def test_cycle_command(capsys):
    code, out = run_cli(["cycle", "--a", "-4/5", "--b", "2/5", "--which", "b"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "strong"
    assert payload["end_value"] == "2"


def test_attractor_command_json(capsys):
    code, out = run_cli(["attractor", "--a", "-1", "--b", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["x_a"] == "1" and payload["x_b"] == "-1"
    assert len(payload["upper"]) == 2 and len(payload["lower"]) == 2


def test_invalid_params_usage_error(capsys):
    code = main(["attractor", "--a", "1/2", "--b", "1/2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "a <= 0" in err


@pytest.mark.parametrize("a, b", [("-1e-400", "1e400"), ("-1e400", "0.0")])
def test_non_finite_float_params_usage_error(a, b, capsys):
    # -1e-400 and 1e400 parse to -0.0 and inf, where -a*b is nan
    code = main(["verify", "--a", a, "--b", b])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


def test_verify_command_exit_codes(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--a",
            "-4/5",
            "--b",
            "2/5",
            "--suite",
            "bijectivity",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["ok"] and payload["bijectivity"]["overlap_cells"] == 0


def test_oracle_text_deterministic(tmp_path):
    f1, f2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    args = ["oracle", "--a", "-4/5", "--b", "2/5", "--n-points", "500",
            "--burn-in", "50", "--seed", "9"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    f1, f2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    args = ["oracle", "--a", "-4/5", "--b", "2/5", "--n-points", "200",
            "--burn-in", "50", "--seed", "1"]
    monkeypatch.setenv("ABCF_SEED", "77")
    assert main(args + ["--out", str(f1)]) == 0
    monkeypatch.delenv("ABCF_SEED")
    assert main(args + ["--seed", "77", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["oracle", "--a", "-4/5", "--b", "2/5", "--n-points", "200", "--burn-in", "50", "--format", "json"],
    ["verify", "--a", "-4/5", "--b", "2/5", "--suite", "oracle", "--n-points", "500"],
])
def test_env_seed_is_the_echoed_seed(argv, monkeypatch, capsys):
    # the artifact reproduces itself: under ABCF_SEED=77 the run prints what
    # --seed 77 prints without it, its config echo included
    monkeypatch.setenv("ABCF_SEED", "77")
    with_env = run_cli(argv, capsys)
    monkeypatch.delenv("ABCF_SEED")
    assert with_env == run_cli([*argv, "--seed", "77"], capsys)
    assert json.loads(with_env[1])["config"]["seed"] == 77


def test_exact_outputs_match_the_golden_hashes():
    # `attractor` and `verify --suite bijectivity` on the 146 pairs of P with
    # denominators <= 4 print byte for byte what they printed when
    # golden/exact_p4.sha256 was written by golden/make_exact_p4.py
    got = runpy.run_path(str(GOLDEN / "make_exact_p4.py"))["digests"]()
    want = (GOLDEN / "exact_p4.sha256").read_text().splitlines()
    assert len(got) == len(want) == 146
    assert [g for g, w in zip(got, want) if g != w] == []


def test_exceptional_command(capsys):
    code, out = run_cli(
        ["exceptional", "--plan", "m=3;1x2,1x3,1x2", "--target-width", "1e-6"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b_lo"] <= float(payload["b_float"]) <= payload["b_hi"]
    assert payload["width"] < 1e-6
    assert payload["digits_prefix"][:3] == [3, 3, 4]


def test_measures_command(capsys):
    code, out = run_cli(
        ["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "20000"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["nu_mass"] - 1) < 1e-10
    assert abs(payload["h_closed"] - payload["h_rokhlin"]) < 1e-5


def test_bad_eps_is_a_usage_error(capsys):
    # "-1e-3" is no negative number to argparse, which would take it for a flag
    for eps in ("-1", "-1e-3", "nan", "inf"):
        code = main(["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "1000",
                     "--eps", eps])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "eps must be finite and >= 0" in captured.err


def test_eps_from_one_half_is_a_usage_error(capsys):
    # under eps 0.75 digit_float gave the digit 0 at x = 0.1, where rho takes T^-1
    code = main(["expand", "--a", "-0.25", "--b", "0.75", "--eps", "0.75", "--x", "0.1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "< 1/2" in captured.err


@pytest.mark.parametrize("ab,status,error", [
    (("-1", "0"), 1, "ValueError"),
    (("0", "1"), 1, "ValueError"),
    (("0", "3/2"), 1, "ValueError"),
    (("-0.7", "0.8"), 2, "ConstructionError"),
], ids=["-1,0", "0,1", "0,3/2", "-0.7,0.8"])
def test_measures_rejects_infinite_and_float_pairs(ab, status, error, capsys):
    code = main(["measures", "--a", ab[0], "--b", ab[1], "--n-points", "1000"])
    assert code == status
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == error
    if status == 1:
        assert payload["message"] == "the invariant measure is infinite when a = 0 or b = 0"


def test_measures_refuses_the_float_pair_before_and_after_the_exact_pair(capsys):
    # Params(-0.5, 0.5) == Params(-1/2, 1/2) with equal hashes, so a domain
    # cached by pair answered the float pair once the exact one was measured
    float_pair = ["measures", "--a", "-0.5", "--b", "0.5", "--n-points", "1000"]
    _assert_json_error(capsys, float_pair, 2, "ConstructionError")
    code, out = run_cli(["measures", "--a", "-1/2", "--b", "1/2", "--n-points", "1000"], capsys)
    assert code == 0 and json.loads(out)["config"]["a"] == "-1/2"
    _assert_json_error(capsys, float_pair, 2, "ConstructionError")


def test_levels_beyond_float_range_print_null(capsys):
    # (-1/10^400, 10^400) lies in P (-ab = 1); its b-cycle has the level
    # 10^400 - 1.  Its orbits meet within a few steps but never repeat
    big = 10**400
    code = main(["attractor", "--a", f"-1/{big}", "--b", str(big)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    steps = json.loads(captured.out)["upper"]
    assert [s["y_float"] for s in steps if s["y"] == str(big - 1)] == [None, None]
    code = main(["verify", "--a", f"-1/{big}", "--b", str(big), "--n-points", "500", "--grid", "8"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and json.loads(captured.out)["ok"] is True


@pytest.mark.parametrize("e", [20, 400])
def test_measures_refuses_a_gauss_domain_beyond_floats(e, capsys):
    # at 10^20 the strip box [1, oo) x [-10^-20, 1 - 10^-20] has y1 = 1.0 in
    # floats, so its Gauss-map corner (1.0, -1.0) sits on the pole 1 + xy = 0;
    # at 10^400 a corner is infinite
    big = 10**e
    code = main(["measures", "--a", f"-1/{big}", "--b", str(big), "--n-points", "1000"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    payload = json.loads(captured.out)
    assert payload["error"] == "ValueError" and "Gauss-map domain" in payload["message"]


@pytest.mark.parametrize("ab", [("-4/5", "2/5"), ("-1/2", "1/2"), ("-16/17", "1/17")], ids=",".join)
def test_measures_off_the_simple_case(ab, capsys):
    code, out = run_cli(["measures", "--a", ab[0], "--b", ab[1], "--n-points", "20000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["nu_mass"] - 1) <= 1e-12 and abs(payload["mu_mass"] - 1) <= 1e-12
    assert abs(payload["h_closed"] - payload["h_rokhlin"]) <= 1e-12
    assert abs(payload["h_closed"] - math.pi**2 / (3 * payload["C"])) <= 1e-12


def test_config_echo_reproduces(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["expand", "--a", "-4/5", "--b", "2/5", "--x", "7/3", "--out", str(out1)]) == 0
    cfg = json.loads(out1.read_text())["config"]
    args = ["expand", "--a", cfg["a"], "--b", cfg["b"], "--x", cfg["x"],
            "--max-digits", str(cfg["max_digits"]), "--out", str(out2)]
    assert main(args) == 0
    p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    p1["config"].pop("out"), p2["config"].pop("out")
    assert p1 == p2


def test_plot_byte_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["plot", "--a", "-4/5", "--b", "2/5", "--with-cloud", "--n-points", "2000",
            "--burn-in", "60", "--seed", "4"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_infinite_svg_window_exits_1(tmp_path, capsys):
    # the extent 2 * 1e308 overflows to inf, like the window inf itself
    out = str(tmp_path / "x.svg")
    for argv in (["plot", "--window", "inf"], ["plot", "--window", "1e308"]):
        _assert_json_error(capsys, [*argv, "--a", "-4/5", "--b", "2/5", "--out", out], 1, "ValueError")
    assert not (tmp_path / "x.svg").exists()


def test_negative_float_window_reaches_the_extent_check(tmp_path, capsys):
    out = str(tmp_path / "x.svg")
    argv = ["plot", "--a", "-4/5", "--b", "2/5", "--window", "-1e-3", "--out", out]
    code, printed = run_cli(argv, capsys)
    assert code == 1
    assert json.loads(printed) == {"error": "ValueError", "message": "window must have positive, finite extent"}
    assert not (tmp_path / "x.svg").exists()


def test_negative_float_target_width_reaches_the_plan_check(capsys):
    code, out = run_cli(["exceptional", "--plan", "m=3;1x2", "--target-width", "-1e-3"], capsys)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": "target width -0.001 not reached within the plan"}


def test_unwritable_out_exits_1(tmp_path, capsys):
    _assert_json_error(capsys, ["plot", "--a", "-1/2", "--b", "1/2",
                                "--out", str(tmp_path / "missing" / "x.svg")],
                       1, "FileNotFoundError")


#: a fresh interpreter runs every command, then lists the scipy modules
#: loaded; with BLOCK, importing scipy raises ImportError
_COLD_IMPORT = """
import contextlib, io, json, sys
if "BLOCK" in sys.argv:
    sys.modules["scipy"] = None
import abcf, abcf.cli
pair = ["--a", "-4/5", "--b", "2/5"]
runs = [
    ["expand", *pair, "--x", "7/3"],
    ["cycle", *pair, "--which", "b"],
    ["attractor", *pair, "--format", "json"],
    ["oracle", *pair, "--n-points", "200", "--burn-in", "20"],
    ["exceptional", "--plan", "m=3;1x2,1x2", "--target-width", "1e-3"],
    ["verify", *pair, "--suite", "bijectivity"],
    ["verify", *pair, "--suite", "all", "--n-points", "1000", "--burn-in", "200", "--grid", "6"],
    ["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "1000"],
    ["plot", *pair, "--with-cloud", "--n-points", "200", "--burn-in", "20", "--out", sys.argv[1]],
]
with contextlib.redirect_stdout(io.StringIO()):
    status = [abcf.cli.main(argv) for argv in runs]
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
print(json.dumps({"status": status, "scipy": loaded}))
"""


def _run_every_command(tmp_path, *flags):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", _COLD_IMPORT, str(tmp_path / "p.svg"), *flags]
    report = json.loads(subprocess.run(argv, capture_output=True, text=True, env=env,
                                       check=True).stdout)
    assert report["status"] == [0] * 9
    assert report["scipy"] == []


def test_exact_commands_do_not_load_scipy(tmp_path):
    _run_every_command(tmp_path)


def test_every_command_runs_without_scipy(tmp_path):
    _run_every_command(tmp_path, "BLOCK")


#: a fresh interpreter runs every exact command, each a JSON record of its
#: status, stdout and written file; with BLOCK, importing numpy raises
#: ImportError
_EXACT_COMMANDS = """
import contextlib, io, json, os, sys
if "BLOCK" in sys.argv:
    sys.modules["numpy"] = None
import abcf, abcf.cli
report = {"numpy_after_import": "numpy" in sys.modules, "runs": []}
svg = os.path.join(sys.argv[1], "p.svg")
pair = ["--a", "-4/5", "--b", "2/5"]
runs = [
    ["cycle", *pair, "--which", "a"],
    ["cycle", *pair, "--which", "b"],
    ["attractor", *pair],
    ["attractor", "--a", "-1/2", "--b", "golden", "--format", "text"],
    ["attractor", "--a", "-1.0", "--b", "1.0"],
    ["attractor", "--a", "-0.5", "--b", "0.6"],
    ["expand", *pair, "--x", "7/3"],
    ["expand", *pair, "--x", "0.3"],
    ["exceptional", "--plan", "m=3;1x2,1x3,1x2,1x2", "--target-width", "1e-6"],
    ["plot", *pair, "--out", svg],
    ["verify", *pair, "--suite", "connectivity"],
    ["verify", *pair, "--suite", "bijectivity"],
    ["verify", "--a", "-1.0", "--b", "1.0", "--suite", "bijectivity"],
]
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = abcf.cli.main(argv)
    written = open(svg).read() if argv[0] == "plot" else None
    report["runs"].append([argv, status, out.getvalue(), written])
report["numpy_after_runs"] = "numpy" in sys.modules
print(json.dumps(report))
"""


def _run_exact_commands(tmp_path, *flags):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", _EXACT_COMMANDS, str(tmp_path), *flags]
    return json.loads(subprocess.run(argv, capture_output=True, text=True, env=env,
                                     check=True).stdout)


def test_exact_commands_run_without_numpy(tmp_path):
    plain = _run_exact_commands(tmp_path)
    blocked = _run_exact_commands(tmp_path, "BLOCK")
    assert plain["numpy_after_import"] is False and plain["numpy_after_runs"] is False
    # exit status, stdout and the plot's SVG, byte for byte
    assert blocked["runs"] == plain["runs"]
    assert [status for _, status, _, _ in plain["runs"]] == [0] * 5 + [2] + [0] * 7


def test_the_package_is_only_its_version():
    code = (
        "import json, sys, abcf; "
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'abcf'), "
        "[n for n in dir(abcf) if not n.startswith('_')], abcf.__version__]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    loaded, public, version = json.loads(out)
    # no submodule loads with the package, and it names nothing but __version__
    assert loaded == ["abcf"] and public == [] and version


def _reject_constant(name):
    raise ValueError(f"invalid JSON constant {name}")


@pytest.mark.parametrize("args,section,key", [
    (["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "0"], None, "ks_stat"),
    (["verify", "--a", "-4/5", "--b", "2/5", "--suite", "reduction", "--grid", "0"],
     "reduction", "coverage"),
])
def test_undefined_statistics_print_as_null(args, section, key, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert (payload[section] if section else payload)[key] is None


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: a usage error (status 1) and
    # --version leave it fit for the next calls, which echo the same keys
    from abcf.cli import _parser

    for argv, status in ((["verify", "--a", "-4/5"], 1), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
    capsys.readouterr()
    for argv, keys in (
        (["expand", "--a", "-1/2", "--b", "1/2", "--x", "2/5"], ["x", "max_digits", "out"]),
        (["verify", "--a", "-1", "--b", "1", "--suite", "connectivity"],
         ["suite", "cap", "seed", "n_points", "burn_in", "grid", "out"]),
    ):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert list(json.loads(out)["config"]) == ["command", "a", "b", "eps", *keys]
    assert _parser() is _parser()


def test_console_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "abcf.cli", "--version"], capture_output=True, text=True
    )
    assert res.returncode == 0


def test_attractor_svg_output(tmp_path, capsys):
    # plot without a cloud draws the domain alone; attractor draws nothing
    # and takes no window
    out = tmp_path / "dom.svg"
    assert main(["plot", "--a", "-4/5", "--b", "2/5", "--out", str(out)]) == 0
    want = render_svg(build_attractor(Params.make("-4/5", "2/5")), None, (-4, 4, -4, 4))
    assert out.read_text() == want
    for flags in (["--format", "svg"], ["--window", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(["attractor", "--a", "-4/5", "--b", "2/5", *flags, "--out", str(out)])
        assert exc.value.code == 1
    capsys.readouterr()


def _shadowing_pair() -> tuple[str, str]:
    """A rational pair shadowing an exceptional point beyond cap 600."""
    from abcf.exceptional import run_plan
    from abcf.scalars import midpoint_rational

    plan = [("case1", 2), ("case1", 3), ("case1", 2), ("case1", 2), ("case1", 3)]
    tri = run_plan(3, plan)[-1].triangle()
    b = midpoint_rational(tri.b_lo, tri.b_hi)
    return str(b - 1), str(b)


def test_verify_exit_2_on_finiteness_failure(tmp_path, capsys):
    a, b = _shadowing_pair()
    code = main(["verify", f"--a={a}", f"--b={b}", "--suite", "connectivity",
                 "--cap", "600"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["finiteness"]["finite"] is False


@pytest.mark.parametrize("pair, suite, calls", [
    (("-4/5", "2/5"), "all", 1),
    (None, "connectivity", 1),  # the shadowing pair, at cap 600
    (("-1", "1"), "all", 0),
    (("0", "3/2"), "all", 0),
])
def test_verify_runs_the_orbits_at_most_once(pair, suite, calls, monkeypatch, capsys):
    # the construction is the finiteness test: one orbit pass for an exact
    # pair, none for the explicit domains of the degenerate ones, and no
    # digit expansion at all
    import abcf.attractor
    import abcf.cycles

    real, seen = abcf.cycles.truncated_orbits, []

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    def no_expand(*args, **kwargs):
        raise AssertionError("verify expanded a number")

    for module in (abcf.attractor, abcf.cycles):
        monkeypatch.setattr(module, "truncated_orbits", counted)
    monkeypatch.setattr("abcf.cf.expand", no_expand)
    a, b = pair or _shadowing_pair()
    code, out = run_cli(["verify", f"--a={a}", f"--b={b}", "--suite", suite,
                         "--cap", "100000" if pair else "600", "--n-points", "2000"], capsys)
    payload = json.loads(out)
    assert len(seen) == calls
    if pair:
        assert code == 0 and payload["ok"]
        assert payload["finiteness"] == {"finite": True, "failed_endpoint": None}
    else:
        assert code == 2
        assert list(payload) == ["config", "finiteness", "ok"]
        assert payload["finiteness"] == {"finite": False, "failed_endpoint": "a"}
        assert payload["ok"] is False


def test_verify_names_b_when_only_b_is_unresolved(capsys):
    # a's cycle sides are at most 2 steps, b's reach 27: at cap 10 the
    # construction fails on b, and verify reports it without a domain
    code, out = run_cli(["verify", "--a", "-16/17", "--b", "1/10", "--suite", "bijectivity",
                         "--cap", "10"], capsys)
    payload = json.loads(out)
    assert code == 2 and list(payload) == ["config", "finiteness", "ok"]
    assert payload["finiteness"] == {"finite": False, "failed_endpoint": "b"}
    assert payload["ok"] is False


@pytest.mark.parametrize("pair, calls, degenerate", [
    (("-16/17", "1/17"), 2, False),  # a rejected corner candidate, then the accepted one
    (("-1", "1"), 1, True),
    (("0", "3/2"), 1, True),
])
def test_verify_runs_the_connectivity_predicate_once_per_domain(pair, calls, degenerate, monkeypatch, capsys):
    # solve_corners runs the predicate once on each corner candidate it
    # assembles, rejected ones first, and verify reuses its verdict on the
    # accepted one; an explicit degenerate domain is checked by verify
    import abcf.attractor

    real, seen = abcf.attractor._disconnections, []

    def counted(dom):
        seen.append(dom)
        return real(dom)

    monkeypatch.setattr(abcf.attractor, "_disconnections", counted)
    a, b = pair
    code, out = run_cli(["verify", f"--a={a}", f"--b={b}", "--n-points", "2000"], capsys)
    assert code == 0 and json.loads(out)["connectivity"] == {"ok": True, "failures": []}
    assert len(seen) == calls == len({id(dom) for dom in seen})
    assert [next(real(dom), None) is None for dom in seen] == [False] * (calls - 1) + [True]
    assert all(dom.degenerate == degenerate for dom in seen)


def test_verify_float_pair_fails_before_any_orbit(monkeypatch, capsys):
    def no_orbit(*args, **kwargs):
        raise AssertionError("an orbit ran")

    monkeypatch.setattr("abcf.attractor.truncated_orbits", no_orbit)
    monkeypatch.setattr("abcf.cycles.detect_cycle", no_orbit)
    code, out = run_cli(["verify", "--a", "-0.7", "--b", "0.8"], capsys)
    assert code == 2
    assert json.loads(out) == {"error": "ConstructionError",
                               "message": "attractor construction requires exact parameters"}


@pytest.mark.parametrize("a, b", [("-1.0", "1.0"), ("0.0", "2.0"), ("-3.0", "0.0")])
def test_verify_float_degenerate_pairs(a, b, capsys):
    # the explicit domain, as for `attractor`; every suite passes on it
    code, out = run_cli(["verify", "--a", a, "--b", b, "--suite", "all",
                         "--n-points", "2000", "--grid", "10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["finiteness"] == {"finite": True, "failed_endpoint": None}
    assert payload["connectivity"]["ok"] and payload["bijectivity"]["ok"]
    assert payload["oracle"]["inside_fraction"] >= 0.999
    assert payload["reduction"]["coverage"] == 1.0
    assert payload["ok"]


def _assert_json_error(capsys, args, status, error):
    code, out = run_cli(args, capsys)
    assert code == status
    payload = json.loads(out)  # a single JSON object, no traceback
    assert set(payload) == {"error", "message"} and payload["error"] == error


def test_construction_failure_at_cap_exits_2(capsys):
    _assert_json_error(capsys, ["attractor", "--a", "-4/5", "--b", "2/5", "--cap", "1"],
                   2, "ConstructionError")


def test_attractor_float_params_exit_2(capsys):
    _assert_json_error(capsys, ["attractor", "--a", "-0.5", "--b", "0.6"], 2, "ConstructionError")


def test_oracle_bad_burn_in_exits_1(capsys):
    _assert_json_error(capsys, ["oracle", "--a", "-4/5", "--b", "2/5", "--burn-in", "0"],
                   1, "ValueError")


def test_expand_zero_denominator_exits_1(capsys):
    _assert_json_error(capsys, ["expand", "--a", "-1/2", "--b", "1/2", "--x", "1/0"],
                       1, "ValueError")


def test_cycle_zero_denominator_param_exits_1(capsys):
    _assert_json_error(capsys, ["cycle", "--a", "1/0", "--b", "1/2", "--which", "a"],
                       1, "ValueError")


def test_expand_zero_denominator_surd_exits_1(capsys):
    _assert_json_error(capsys, ["expand", "--a", "-1/2", "--b", "1/2",
                                "--x", "(1+1*sqrt(5))/0"], 1, "ValueError")


def test_mixed_field_params_usage_error(capsys):
    code = main(["cycle", "--a", "-golden", "--b", "(1+1*sqrt(3))/2", "--which", "a"])
    assert code == 1
    assert "different quadratic fields" in capsys.readouterr().err
    # sqrt(5*1009**2) is a rational multiple of sqrt(5): one field, so it works
    twin = "(-1009+1*sqrt(5090405))/2018"  # golden over a radicand the sieve keeps
    floats = []
    for b in ("golden", twin):
        code, out = run_cli(["attractor", "--a", "-golden", "--b", b], capsys)
        assert code == 0
        payload = json.loads(out)
        steps = payload["upper"] + payload["lower"]
        floats.append([payload["x_a_float"], payload["x_b_float"]]
                      + [s[k] for s in steps for k in s if k.endswith("_float")])
    assert floats[0] == floats[1]


def test_expand_mixed_field_x_exits_1(capsys):
    _assert_json_error(capsys, ["expand", "--a", "-1/2", "--b", "golden",
                                "--x", "(1+1*sqrt(3))/2"], 1, "MixedFieldError")


def test_expand_float_x_under_surd_pair(capsys):
    code, out = run_cli(["expand", "--a", "-1/2", "--b", "golden", "--x", "0.618"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["approximate"] is True
    assert payload["digits"][:3] == [0, -2, -3]


@pytest.mark.parametrize("x", ["1e999", "-1e999", "5e-324", "-5e-324"])
def test_expand_non_finite_x_exits_1(x, capsys):
    # 1e999 parses to inf, which has no digit; with eps 0, the first step
    # takes 5e-324 to -1/5e-324, which overflows to -inf
    eps = ["--eps", "0"] if "e-" in x else []
    _assert_json_error(capsys, ["expand", "--a", "-1/2", "--b", "1/2", "--x", x, *eps], 1, "ValueError")


@pytest.mark.parametrize("args,message", [
    (["oracle", "--a", "-4/5", "--b", "2/5", "--n-points", "-1"], "n_points >= 0"),
    (["verify", "--a", "-4/5", "--b", "2/5", "--suite", "oracle", "--n-points", "-1"],
     "n_points >= 0"),
    (["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "-5"], "n_points >= 0"),
    (["verify", "--a", "-4/5", "--b", "2/5", "--suite", "reduction", "--grid", "-3"],
     "grid >= 0"),
])
def test_negative_sizes_exit_1(args, message, capsys):
    code, out = run_cli(args, capsys)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message}


def test_x_takes_the_presets(capsys):
    # the golden mean under (-golden, golden): one digit 1, then 3 repeating
    code, out = run_cli(["expand", "--a", "-golden", "--b", "golden", "--x", "golden"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == {"preperiod": [1], "period": [3]}
    assert payload["config"]["x"] == "golden"


#: every output form of every command: (argv, status, text result); OUT
#: stands for a file in the test's tmp_path
_PAIR = ["--a", "-4/5", "--b", "2/5"]
_CLOUD = ["--n-points", "200", "--burn-in", "20"]
_OUTPUT_RUNS = [
    pytest.param(["expand", *_PAIR, "--x", "7/3"], 0, False, id="expand"),
    pytest.param(["expand", *_PAIR, "--x", "7/3", "--out", "OUT"], 0, False, id="expand-out"),
    pytest.param(["cycle", *_PAIR, "--which", "b"], 0, False, id="cycle"),
    pytest.param(["attractor", *_PAIR], 0, False, id="attractor-json"),
    pytest.param(["attractor", *_PAIR, "--format", "text"], 0, True, id="attractor-text"),
    pytest.param(["oracle", *_PAIR, *_CLOUD, "--format", "json"], 0, False, id="oracle-json"),
    pytest.param(["oracle", *_PAIR, *_CLOUD], 0, True, id="oracle-text"),
    pytest.param(["verify", *_PAIR, "--suite", "all", "--n-points", "1000", "--grid", "6"],
                 0, False, id="verify-all"),
    pytest.param(["verify", "--a", "-16/17", "--b", "1/10", "--suite", "bijectivity",
                  "--cap", "10"], 2, False, id="verify-finiteness"),
    pytest.param(["exceptional", "--plan", "m=3;1x2,1x2", "--target-width", "1e-3"],
                 0, False, id="exceptional"),
    pytest.param(["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "1000"],
                 0, False, id="measures"),
    pytest.param(["plot", *_PAIR, "--out", "OUT"], 0, True, id="plot"),
    pytest.param(["plot", *_PAIR, "--with-cloud", *_CLOUD, "--out", "OUT"],
                 0, True, id="plot-cloud"),
]


def _with_out(argv, tmp_path):
    return [str(tmp_path / "out") if tok == "OUT" else tok for tok in argv]


@pytest.mark.parametrize("argv, status, text", _OUTPUT_RUNS)
def test_each_run_prints_once_through_emit(argv, status, text, tmp_path, monkeypatch, capsys):
    # main hands the handler's result to _emit, the one writer: one call
    # per run, and stdout (or the --out file) holds exactly what it wrote
    import abcf.cli

    real, written = abcf.cli._emit, []

    def emit(result, args):
        inner = io.StringIO()
        with contextlib.redirect_stdout(inner):
            real(result, args)
        written.append(Path(args.out).read_text() if args.out else inner.getvalue())
        sys.stdout.write(inner.getvalue())

    monkeypatch.setattr(abcf.cli, "_emit", emit)
    argv = _with_out(argv, tmp_path)
    code, out = run_cli(argv, capsys)
    assert code == status and len(written) == 1
    if "--out" in argv:
        assert out == "" and (tmp_path / "out").read_text() == written[0]
    else:
        assert out == written[0]
    if not text:
        assert next(iter(json.loads(written[0]))) == "config"


def test_an_error_run_makes_no_emit_call(monkeypatch, capsys):
    import abcf.cli

    calls = []
    monkeypatch.setattr(abcf.cli, "_emit", lambda result, args: calls.append(result))
    code, out = run_cli(["attractor", *_PAIR, "--cap", "1"], capsys)
    assert code == 2 and calls == []
    assert json.loads(out)["error"] == "ConstructionError"


@pytest.mark.parametrize("argv, status, text", _OUTPUT_RUNS)
def test_handlers_return_their_result_and_write_nothing(argv, status, text, tmp_path, capsys):
    from abcf.cli import _join_negative_values, _parser

    args = _parser().parse_args(_join_negative_values(_with_out(argv, tmp_path)))
    code, result = args.func(args)
    assert capsys.readouterr().out == "" and not (tmp_path / "out").exists()
    assert type(code) is int and code == status
    # text for attractor and oracle as text and for plot's SVG; otherwise
    # the JSON payload, whose config echo _emit adds
    if text:
        assert isinstance(result, str)
    else:
        assert isinstance(result, dict) and "config" not in result
