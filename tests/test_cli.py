import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abcf.cli import main

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
    for eps in ("-1", "nan", "inf"):
        code = main(["measures", "--a", "-7/10", "--b", "4/5", "--n-points", "1000",
                     "--eps", eps])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "eps must be finite and >= 0" in captured.err


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
#: ImportError, and without it the measures names still resolve lazily
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
if "BLOCK" not in sys.argv:
    from abcf import entropy_closed, invariance_check
    from abcf import measures
    report["lazy_names"] = [entropy_closed is measures.entropy_closed,
                            invariance_check is measures.invariance_check]
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
    assert plain["lazy_names"] == [True, True]
    # exit status, stdout and the plot's SVG, byte for byte
    assert blocked["runs"] == plain["runs"]
    assert [status for _, status, _, _ in plain["runs"]] == [0] * 5 + [2] + [0] * 7


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


def test_attractor_svg_output(tmp_path):
    out = tmp_path / "dom.svg"
    assert main(["attractor", "--a", "-4/5", "--b", "2/5", "--format", "svg",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg ")


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


@pytest.mark.parametrize("x", ["1e999", "-1e999"])
def test_expand_non_finite_x_exits_1(x, capsys):
    # the decimal parses to +-inf, which has no digit
    _assert_json_error(capsys, ["expand", "--a", "-1/2", "--b", "1/2", "--x", x], 1, "ValueError")


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
