import argparse
import base64
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eqstate
from eqstate import cli
from eqstate.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_pressure_constant_one(capsys):
    code, out, err = run(capsys, "thermo", "pressure", "--counts", "constant_one",
                         "--tol", "1e-10")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["h"] == pytest.approx(0.693147180559945, abs=1e-10)
    assert "0.69314718055994" in err
    man = doc["manifest"]
    assert man["command"] == "thermo pressure"
    assert man["version"]
    assert man["params"]["tol"] == 1e-10


def test_pressure_gouezel(capsys):
    code, out, _ = run(capsys, "thermo", "pressure", "--counts", "gouezel",
                       "--q", "1", "--tol", "1e-10")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["h"] == pytest.approx(2.995732273553991, abs=1e-10)


def test_scheme_build_not_markov_exit1(capsys):
    code, out, err = run(capsys, "scheme", "build", "--map", "doubling",
                         "--base", "0.1,0.7", "--nmax", "3")
    assert code == 1
    assert "NotMarkovCompatible" in err


def test_usage_error_exit2(capsys):
    code, _, _ = run(capsys, "thermo", "nonsense")
    assert code == 2
    code2, _, _ = run(capsys, "bogus")
    assert code2 == 2


def test_maps_list(capsys):
    code, out, _ = run(capsys, "maps", "list")
    assert code == 0
    doc = json.loads(out)
    assert "lsv" in doc["result"]["builtins"]


def test_scheme_build_and_thermo_pipeline(tmp_path, capsys):
    scheme = tmp_path / "s.json"
    code, out, _ = run(capsys, "scheme", "build", "--map", "lsv", "--alpha", "0.6",
                       "--base", "0.5,1", "--nmax", "12", "--out", str(scheme))
    assert code == 0
    assert scheme.exists()
    code, out, _ = run(capsys, "thermo", "pressure", "--scheme", str(scheme),
                       "--tol", "1e-12")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["h"] == pytest.approx(math.log(2), abs=1e-3)
    assert doc["manifest"]["input_digests"][str(scheme)]

    csvp = tmp_path / "mme.csv"
    code, out, _ = run(capsys, "thermo", "mme", "--scheme", str(scheme),
                       "--csv", str(csvp))
    assert code == 0
    body = csvp.read_text()
    assert body.splitlines()[0] == "n,count,weight,level_mass"
    assert (tmp_path / "mme.csv.manifest.json").exists()

    code, out, _ = run(capsys, "thermo", "equilibrium", "--scheme", str(scheme),
                       "--potential", "geometric:t=0.5")
    assert code == 0
    doc = json.loads(out)
    assert math.isfinite(doc["result"]["pressure"])


def test_curve_csv_determinism(tmp_path, capsys):
    scheme = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--map", "doubling", "--base", "0,1",
        "--nmax", "3", "--out", str(scheme))
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    for out in (out1, out2):
        code, _, _ = run(capsys, "analysis", "pressure-curve", "--scheme", str(scheme),
                         "--potential", "geometric:t=1", "--t", "0:2:0.5",
                         "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, first = out1.read_text().splitlines()[:2]
    assert header == "t,P,err,left_slope,right_slope"
    assert first.startswith("0,0.69314718055994")


def test_zooming_frequency_cli(capsys):
    code, out, _ = run(capsys, "zooming", "frequency", "--map", "doubling",
                       "--x", "0.3141", "--N", "50",
                       "--lambda", "0.6931471", "--delta", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["frequency"] == 1.0
    assert doc["result"]["params"]["delta"] == 0.2


def test_analysis_ce_cli(capsys):
    code, out, _ = run(capsys, "analysis", "ce", "--c", "-2", "--N", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["liminf_estimate"] == pytest.approx(math.log(4), abs=1e-6)
    # escaping orbit is a domain error -> exit 1
    code, _, err = run(capsys, "analysis", "ce", "--c", "0.3", "--N", "200")
    assert code == 1 and "OrbitEscaped" in err


@pytest.mark.parametrize("N", ["0", "-5"])
def test_analysis_ce_horizon_below_one_exit1(capsys, N):
    code, out, err = run(capsys, "analysis", "ce", "--c", "-2", "--N", N)
    assert code == 1 and out == ""
    assert "OutOfRange" in err


# nan printed "liminf_estimate": "nan" with exit 0; inf reported OrbitEscaped
@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_analysis_ce_non_finite_c_exit1(capsys, c):
    # "--c -inf" would read -inf as an option: argparse's usage error
    code, out, err = run(capsys, "analysis", "ce", f"--c={c}", "--N", "100")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "OutOfRange" in err and "c must be finite" in err


# numpy refuses both sizes before it allocates anything; a traceback ended
# the run (ValueError: array is too big / maximum allowed dimension exceeded)
@pytest.mark.parametrize("N", [2 ** 62, 10 ** 23])
def test_analysis_ce_unallocatable_horizon_exit1(capsys, N):
    code, out, err = run(capsys, "analysis", "ce", "--c", "-2", "--N", str(N))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "OutOfRange" in err and f"N={N}" in err


def _no_constants(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_cli_json_is_strict(capsys, tmp_path):
    # the exponents of c = 0 are -inf; json.dumps wrote bare -Infinity tokens
    code, out, _ = run(capsys, "analysis", "ce", "--c", "0", "--N", "5")
    assert code == 0
    res = json.loads(out, parse_constant=_no_constants)["result"]
    assert res["liminf_estimate"] == "-inf"
    assert res["exponents"] == [[n, "-inf"] for n in (1.0, 2.0, 3.0, 4.0, 5.0)]
    # a CSV manifest goes through the same writer, numpy values included
    from eqstate.cli import _write_csv
    path = str(tmp_path / "t.csv")
    _write_csv(path, ["a"], [(1.5,)], {"x": math.nan, "y": np.float64(math.inf),
                                        "z": np.array([-math.inf, 0.25]), "w": (1, 2.5)})
    with open(path + ".manifest.json") as fh:
        man = json.load(fh, parse_constant=_no_constants)
    assert man == {"x": "nan", "y": "inf", "z": ["-inf", 0.25], "w": [1, 2.5]}


@pytest.mark.parametrize("flag,value", [("--x", "nan"), ("--x", "inf"), ("--delta", "nan"),
                                        ("--lambda", "nan")])
def test_non_finite_zooming_arguments_are_domain_errors(capsys, flag, value):
    # --x nan exited 0 and wrote "x": NaN into its JSON
    argv = {"--x": "0.377", "--N": "50", "--lambda": "0.2", "--delta": "0.1", flag: value}
    code, out, err = run(capsys, "zooming", "frequency", "--map", "lsv", "--alpha", "0.6",
                         *(v for kv in argv.items() for v in kv))
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange:")


def _ints(doc, key):
    return np.frombuffer(base64.b64decode(doc[key]), dtype="<i8").copy()


def _put(doc, key, a, dtype="<i8"):
    doc[key] = base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode()


def _built_scheme(capsys, path, nmax="3", map_args=("lsv", "--alpha", "0.6", "--base", "0.5,1")):
    assert run(capsys, "scheme", "build", "--map", *map_args, "--nmax", nmax,
               "--out", str(path))[0] == 0
    return json.loads(path.read_text())


def test_scheme_file_with_a_wrong_structure_is_a_usage_error(capsys, tmp_path):
    # a node hung below a node of its own depth: no chain reads off it
    path = tmp_path / "s.json"
    doc = _built_scheme(capsys, path)
    parent = _ints(doc, "parent")
    parent[-1] = doc["at"][-2]
    _put(doc, "parent", parent)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "thermo", "pressure", "--scheme", str(path))
    assert code == 2 and out == ""
    assert "malformed scheme file" in err and "a parent that is not one depth above" in err


def test_scheme_file_with_a_non_integer_symbol_is_a_usage_error(capsys, tmp_path):
    # symbols written as float64 0.5 read as an int64 that names no branch
    path = tmp_path / "s.json"
    doc = _built_scheme(capsys, path)
    symbols = _ints(doc, "symbols").astype(float)
    symbols[0] = 0.5
    _put(doc, "symbols", symbols, "<f8")
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "thermo", "pressure", "--scheme", str(path))
    assert code == 2 and out == ""
    assert "malformed scheme file" in err and "names a branch that the map does not have" in err


def _node_rows(doc):
    return np.frombuffer(base64.b64decode(doc["values"]), dtype="<f8").reshape(-1, 5).copy()


def _move_end(doc):
    # branch 0's upper cylinder end, its leaf's last value, 1e-9 into the base
    rows = _node_rows(doc)
    rows[_ints(doc, "leaf")[0] - 1, 4] -= 1e-9
    _put(doc, "values", rows, "<f8")


def test_scheme_file_failing_the_certificate_is_a_domain_error(capsys, tmp_path):
    # a node value moved by 1e-9 passes the structural checks; equilibrium
    # and the curve read the table and fail its certificate on every call
    path = tmp_path / "s.json"
    doc = _built_scheme(capsys, path)
    _move_end(doc)
    path.write_text(json.dumps(doc))
    for argv in (["thermo", "equilibrium", "--potential", "geometric:t=0.8"],
                 ["analysis", "pressure-curve", "--potential", "geometric", "--t", "0:1:0.5",
                  "--out", str(tmp_path / "curve.csv")]):
        code, out, err = run(capsys, *argv, "--scheme", str(path))
        assert code == 1 and out == ""
        assert err.startswith("ToleranceFailure:") and "branch 0 (R=1)" in err
    # thermo pressure reads the level counts only: the structure is sound
    assert run(capsys, "thermo", "pressure", "--scheme", str(path))[0] == 0


def _mirror_samples(doc):
    # the last node is a leaf (the deepest level); x^2 - 2 takes -x where it
    # takes x, so its mirrored samples pass the edge check
    rows = _node_rows(doc)
    rows[-1, 1:4] *= -1.0
    _put(doc, "values", rows, "<f8")


def _move_sample(doc):
    rows = _node_rows(doc)
    rows[-1, 2] += 1e-9
    _put(doc, "values", rows, "<f8")


@pytest.mark.parametrize("map_args,edit,code,msg", [
    (["quadratic", "--c", "-2", "--base", "1,2"], _mirror_samples, 1, "ToleranceFailure:"),
    (["lsv", "--alpha", "1.5", "--base", "0.5,1"], _move_sample, 1, "ToleranceFailure:"),
    # one row fewer than the trie has nodes: malformed at load
    (["lsv", "--alpha", "1.5", "--base", "0.5,1"],
     lambda d: _put(d, "values", _node_rows(d)[:-1], "<f8"), 2, "malformed scheme file"),
    (["lsv", "--alpha", "1.5", "--base", "0.5,1"], lambda d: d.update(values=d["values"][:-5]),
     2, "malformed scheme file"),
    (["lsv", "--alpha", "1.5", "--base", "0.5,1"], lambda d: d.update(values=[0.5]),
     2, "malformed scheme file"),
], ids=["mirrored", "moved", "count", "truncated", "not-a-string"])
def test_scheme_file_with_bad_nodes_exits_with_a_code(capsys, tmp_path, map_args, edit, code, msg):
    path = tmp_path / "s.json"
    doc = _built_scheme(capsys, path, "12", map_args)
    edit(doc)
    path.write_text(json.dumps(doc))
    for argv in (["thermo", "equilibrium", "--potential", "geometric:t=0.8"],
                 ["analysis", "pressure-curve", "--potential", "geometric", "--t", "0:1:0.5",
                  "--out", str(tmp_path / "curve.csv")]):
        got, out, err = run(capsys, *argv, "--scheme", str(path))
        assert got == code and out == ""
        assert msg in err and "Traceback" not in err


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e300], ids=["nan", "inf", "1e300"])
def test_non_finite_or_huge_node_values_fail_the_certificate_quietly(capsys, tmp_path, value):
    # the load lifts children off the bad node and the certificate maps it
    # forward: the one error line and exit 1, with no numpy warning
    path = tmp_path / "s.json"
    doc = _built_scheme(capsys, path, "12", ("lsv", "--alpha", "1.5", "--base", "0.5,1"))
    rows = _node_rows(doc)
    rows[_ints(doc, "parent")[-1] - 1] = value  # a node with a child
    _put(doc, "values", rows, "<f8")
    path.write_text(json.dumps(doc))
    for argv in (["thermo", "equilibrium", "--potential", "geometric:t=0.8"],
                 ["analysis", "pressure-curve", "--potential", "geometric", "--t", "0:1:0.5",
                  "--out", str(tmp_path / "curve.csv")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--scheme", str(path))
        assert [str(w.message) for w in caught] == []
        assert code == 1 and out == ""
        assert err.startswith("ToleranceFailure:") and err.count("\n") == 1


def test_analysis_verify_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "analysis", "verify", "--quick", "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed" in err


def test_analysis_verify_quick(capsys):
    code, out, _ = run(capsys, "analysis", "verify", "--quick")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["violations"] == []


def test_user_table_counts(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"table": {"1": 2}, "complete": True}))
    code, out, _ = run(capsys, "thermo", "pressure", "--counts", "user_table",
                       "--table", str(table))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["h"] == pytest.approx(math.log(2), abs=1e-10)
    assert doc["manifest"]["input_digests"]


@pytest.mark.parametrize("count", ["NaN", "Infinity", "1.5"])
def test_user_table_count_not_an_integer_is_domain_error(tmp_path, capsys, count):
    table = tmp_path / "t.json"
    table.write_text('{"table": {"1": %s}}' % count)
    code, out, err = run(capsys, "thermo", "pressure", "--counts", "user_table",
                         "--table", str(table))
    assert code == 1 and out == ""
    assert err.startswith("UnknownGenerator:")


@pytest.mark.parametrize("keys", [("1", "01"), ("1", " 1")])
def test_user_table_naming_a_level_twice_is_a_usage_error(tmp_path, capsys, keys):
    # {"1": 2, "01": 3} was read as {1: 3}: exit 0 with h = log 3
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"table": dict(zip(keys, (2, 3)))}))
    code, out, err = run(capsys, "thermo", "pressure", "--counts", "user_table",
                         "--table", str(table))
    assert code == 2 and out == "" and "malformed table file" in err and "Traceback" not in err


@pytest.mark.parametrize("level", [0, -1, 10 ** 30])
def test_user_table_level_out_of_range_is_domain_error(tmp_path, capsys, level):
    # level 0 warned and read "no positive level weight", -1 read "divergent
    # weights", 10^30 ended in an OverflowError traceback
    table = tmp_path / "t.json"
    table.write_text('{"table": {"%d": 1, "1": 1}}' % level)
    for command in ("pressure", "mme"):
        code, out, err = run(capsys, "thermo", command, "--counts", "user_table",
                             "--table", str(table))
        assert code == 1 and out == ""
        assert err.startswith("UnknownGenerator:") and str(level) in err
        assert len(err.splitlines()) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(level=st.integers(-2 ** 70, 2 ** 70), complete=st.booleans())
def test_user_table_level_set_to_any_int_exits_with_a_code(tmp_path_factory, level, complete):
    # one level of a valid table set to any integer: the solve and the
    # level arrays end in a code, never a traceback
    table = tmp_path_factory.mktemp("levels") / "t.json"
    table.write_text(json.dumps({"table": {"1": 2, "3": 5, str(level): 4}, "complete": complete}))
    for command in ("pressure", "mme"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert dispatch(["thermo", command, "--counts", "user_table",
                             "--table", str(table)]) in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


def test_curve_map_mismatch_exit1(tmp_path, capsys):
    scheme = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--map", "doubling", "--base", "0,1",
        "--nmax", "3", "--out", str(scheme))
    code, _, err = run(capsys, "analysis", "pressure-curve", "--map", "lsv",
                       "--alpha", "0.6", "--scheme", str(scheme),
                       "--potential", "geometric", "--t", "0:1:0.5",
                       "--out", str(tmp_path / "c.csv"))
    assert code == 1 and "does not match" in err


def test_curve_map_of_the_same_name_is_checked_by_its_branches(tmp_path, capsys):
    # lsv(1.5000001) is named lsv(alpha=1.5), and a map file may take a
    # built-in's name: both passed a name check against an lsv(1.5) scheme
    scheme = tmp_path / "s.json"
    doc = _built_scheme(capsys, scheme, "5", ("lsv", "--alpha", "1.5", "--base", "0.5,1"))
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    same.write_text(json.dumps(doc["map"]))
    doc["map"]["branches"][0]["params"]["alpha"] = 0.6
    other.write_text(json.dumps(doc["map"]))
    for map_args, want in ((["--map", "lsv", "--alpha", "1.5"], 0),
                           (["--map-json", str(same)], 0),
                           (["--map", "lsv", "--alpha", "1.5000001"], 1),
                           (["--map-json", str(other)], 1)):
        code, _, err = run(capsys, "analysis", "pressure-curve", *map_args,
                           "--scheme", str(scheme), "--potential", "geometric",
                           "--t", "0:1:0.5", "--out", str(tmp_path / "c.csv"))
        assert code == want
        assert ("does not match the scheme's map lsv(alpha=1.5)" in err) == (want == 1)


def test_json_potential_file(tmp_path, capsys):
    scheme = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--map", "doubling", "--base", "0,1",
        "--nmax", "3", "--out", str(scheme))
    pot = tmp_path / "phi.json"
    pot.write_text(json.dumps({"kind": "constant", "c": 0.25}))
    code, out, _ = run(capsys, "thermo", "equilibrium", "--scheme", str(scheme),
                       "--potential", f"json:{pot}")
    assert code == 0
    doc = json.loads(out)
    # p = log(2 e^{0.25}) = log 2 + 0.25
    assert abs(doc["result"]["pressure"] - (math.log(2) + 0.25)) < 1e-10


def _run_module(*argv):
    """`python -m eqstate.cli argv` in a child process that imports the
    eqstate under test (also when it is not installed)."""
    path = [str(Path(eqstate.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-m", "eqstate.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})


def test_console_entry_point():
    out = _run_module("thermo", "pressure", "--counts", "two_at_one")
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"]["h"] == pytest.approx(math.log(2), abs=1e-10)
    bad = _run_module("scheme", "build", "--map", "doubling", "--base", "0.1,0.7", "--nmax", "2")
    assert bad.returncode == 1 and "NotMarkovCompatible" in bad.stderr
    # the full parser (help, an unknown command) and one command's own
    assert _run_module("--help").returncode == 0
    out = _run_module("thermo", "pressure", "--counts", "constant_one")
    assert out.returncode == 0 and json.loads(out.stdout)["result"]["h"] == pytest.approx(math.log(2))
    unknown = _run_module("nonsense")
    assert unknown.returncode == 2 and "invalid choice: 'nonsense'" in unknown.stderr


def test_zooming_horizon_zero_is_a_domain_error():
    out = _run_module("zooming", "frequency", "--map", "lsv", "--alpha", "0.6", "--x", "0.377",
                      "--N", "0", "--lambda", "0.2", "--delta", "0.1")
    assert out.returncode == 1
    assert "OutOfRange" in out.stderr and "Traceback" not in out.stderr


# bad inputs end in a usage error (exit 2) or a named domain error (exit 1)


def test_scheme_build_base_without_comma_is_usage_error(capsys):
    code, out, err = run(capsys, "scheme", "build", "--map", "lsv", "--alpha", "0.6",
                         "--base", "0.5", "--nmax", "5")
    assert code == 2 and out == ""
    assert "--base" in err and "Traceback" not in err


def test_negative_alpha_is_domain_error(capsys):
    code, out, err = run(capsys, "scheme", "build", "--map", "lsv", "--alpha", "-1",
                         "--base", "0.5,1", "--nmax", "5")
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange:")


def test_a_curve_with_overflowing_points_writes_the_others(tmp_path, capsys):
    # lsv(1.5)'s level weights overflow at t = -1000: those points read
    # nan +- inf, and the rest of the curve is written
    scheme, out_csv = tmp_path / "s.json", tmp_path / "c.csv"
    run(capsys, "scheme", "build", "--map", "lsv", "--alpha", "1.5", "--base", "0.5,1",
        "--nmax", "40", "--out", str(scheme))
    code, _, err = run(capsys, "analysis", "pressure-curve", "--scheme", str(scheme),
                       "--potential", "geometric", "--t=-1000:1:0.5", "--out", str(out_csv))
    assert code == 0, err
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 2003 and rows[0][:3] == ["-1000", "nan", "inf"]
    assert rows[-1][0] == "1" and math.isfinite(float(rows[-1][1]))


def _curve_csv_and_status(capsys, tmp_path, build_args, grid):
    scheme, out_csv = tmp_path / "s.json", tmp_path / "c.csv"
    code, _, err = run(capsys, "scheme", "build", *build_args, "--out", str(scheme))
    assert code == 0, err
    code, _, err = run(capsys, "analysis", "pressure-curve", "--scheme", str(scheme),
                       "--potential", "geometric", f"--t={grid}", "--out", str(out_csv))
    assert code == 0, err
    man = json.loads(Path(str(out_csv) + ".manifest.json").read_text())
    return out_csv.read_text(), man["status"]


def test_curve_manifest_names_each_row_status_and_the_csv_is_all_numbers(tmp_path, capsys):
    # a truncated scheme with no branch has no root at any t
    text, status = _curve_csv_and_status(
        capsys, tmp_path, ["--map", "doubling", "--base", "0.25,0.5", "--nmax", "1"], "0.5:1:0.5")
    assert status == ["error:NoRoot"] * 2
    assert text.splitlines()[1:] == ["0.5,nan,inf,nan,nan", "1,nan,inf,nan,nan"]
    # lsv(1.5): the induced root below t = 1, the neutral point's Dirac mass above
    text, status = _curve_csv_and_status(
        capsys, tmp_path, ["--map", "lsv", "--alpha", "1.5", "--base", "0.5,1", "--nmax", "40"],
        "0.5:1.5:0.5")
    assert status == ["induced", "dirac", "dirac"]
    header, *rows = text.splitlines()
    assert header == "t,P,err,left_slope,right_slope" and len(rows) == len(status)
    s = eqstate.load_scheme(str(tmp_path / "s.json"))
    curve = eqstate.pressure_curve(s, eqstate.geometric_potential(1.0), [0.5, 1.0, 1.5], 1e-12)
    assert tuple(status) == curve.status
    for row, (t, v, e, ls, rs, _) in zip(rows, curve.rows()):
        assert row == ",".join(f"{x:.17g}" for x in (t, v, e, ls, rs))


def test_curve_zero_step_is_usage_error(tmp_path, capsys):
    scheme = tmp_path / "s.json"
    run(capsys, "scheme", "build", "--map", "doubling", "--base", "0,1",
        "--nmax", "3", "--out", str(scheme))
    out_csv = tmp_path / "c.csv"
    code, out, err = run(capsys, "analysis", "pressure-curve", "--scheme", str(scheme),
                         "--potential", "geometric", "--t", "0:1:0", "--out", str(out_csv))
    assert code == 2 and out == "" and not out_csv.exists()
    assert "grid" in err and "Traceback" not in err


def test_missing_scheme_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    code, out, err = run(capsys, "thermo", "pressure", "--scheme", str(missing))
    assert code == 2 and out == ""
    assert str(missing) in err and "Traceback" not in err


def test_mme_closed_form_reads_the_engine_levels(tmp_path, capsys):
    import eqstate as eq
    csvp = tmp_path / "levels.csv"
    code, out, _ = run(capsys, "thermo", "mme", "--counts", "gouezel", "--q", "3",
                       "--csv", str(csvp))
    assert code == 0
    counts = eq.analytic_counts("gouezel", q=3)
    h = eq.pressure_root(counts, 1e-12).h
    assert json.loads(out)["result"]["h"] == h
    rows = [line.split(",") for line in csvp.read_text().splitlines()[1:]]
    dist = eq.mme(counts, h)
    assert [int(r[0]) for r in rows] == list(range(1, len(dist.level_weights) + 1))
    assert [float(r[1]) for r in rows[:3]] == [4.0 ** 4, 4.0 ** 5, 4.0 ** 6]
    assert math.fsum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)


def test_mme_on_a_huge_count_writes_levels_not_branches(tmp_path, capsys):
    # a count of 1e15 is 1e15 branches: the mme holds one weight per level
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"table": {"1": 1e15, "2": 3}}))
    csvp = tmp_path / "levels.csv"
    code, out, err = run(capsys, "thermo", "mme", "--counts", "user_table",
                         "--table", str(table), "--csv", str(csvp))
    assert code == 0 and "Traceback" not in err
    result = json.loads(out)["result"]
    assert result["h"] == pytest.approx(34.5388, abs=1e-4) and "weights" not in result
    rows = [line.split(",") for line in csvp.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [1, 2] and float(rows[0][1]) == 1e15
    assert math.fsum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", ["0", "512"])
def test_gouezel_q_out_of_range_is_domain_error(capsys, q):
    code, out, err = run(capsys, "thermo", "pressure", "--counts", "gouezel", "--q", q)
    assert code == 1 and out == ""
    assert err.startswith("UnknownGenerator:")


# malformed input files and potential specs end in an exit code, never an exception


def test_overlong_circle_branch_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [{"lo": 0.0, "hi": 0.5, "kind": "affine", "params": {"a": 3.0, "b": 0.0}},
                     {"lo": 0.5, "hi": 1.0, "kind": "affine", "params": {"a": 2.0, "b": -1.0}}]}))
    code, out, err = run(capsys, "scheme", "build", "--map-json", str(path),
                         "--base", "0,0.5", "--nmax", "3")
    assert code == 2 and out == ""
    assert "malformed map file" in err and "longer than the circle" in err

_OTHER_TYPES = [None, True, "x", 1.5, 7, [], {}]  # one value of every JSON type


def _slots(doc):
    """(container, key) of every value nested in a JSON document."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else ()
    for k in keys:
        yield doc, k
        yield from _slots(doc[k])


def _mutate(data, text):
    """`text` cut at a random byte, or its JSON with one key deleted or one
    value swapped for a value of another type."""
    mode = data.draw(st.sampled_from(["truncate", "delete", "swap"]))
    if mode == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    parent, key = data.draw(st.sampled_from(list(_slots(doc))))
    if mode == "delete":
        del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from(
            [v for v in _OTHER_TYPES if type(v) is not type(parent[key])]))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    scheme = str(d / "scheme.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["scheme", "build", "--map", "lsv", "--alpha", "0.6",
                         "--base", "0.5,1", "--nmax", "3", "--out", scheme]) == 0
    with open(scheme) as fh:
        files = {"scheme": fh.read()}
    files["map"] = json.dumps(json.loads(files["scheme"])["map"])
    files["potential"] = json.dumps({"kind": "geometric", "t": 0.5})
    files["table"] = json.dumps({"table": {"1": 2, "3": 1}, "complete": True})
    return d, scheme, files


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_inputs_exit_with_a_code(good_inputs, data):
    d, scheme, files = good_inputs
    kind = data.draw(st.sampled_from(sorted(files) + ["spec"]))
    bad = str(d / "bad.json")
    if kind == "spec":
        spec = data.draw(st.from_regex(
            r"(geometric|constant|json|other)(:([tc]=[-0-9.a-z]{0,6},?){0,2})?", fullmatch=True))
    else:
        with open(bad, "w") as fh:
            fh.write(_mutate(data, files[kind]))
        spec = f"json:{bad}" if kind == "potential" else "geometric:t=0.5"
    argv = {
        "scheme": ["thermo", "equilibrium", "--scheme", bad, "--potential", spec],
        "map": ["scheme", "build", "--map-json", bad, "--base", "0.5,1", "--nmax", "3"],
        "potential": ["thermo", "equilibrium", "--scheme", scheme, "--potential", spec],
        "table": ["thermo", "pressure", "--counts", "user_table", "--table", bad],
        "spec": ["analysis", "pressure-curve", "--scheme", scheme, "--potential", spec,
                 "--t", "0:1:0.5", "--out", str(d / "curve.csv")],
    }[kind]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert dispatch(argv) in (0, 1, 2)


@pytest.mark.parametrize("alpha", ["1100", "1e308"])
def test_lsv_alpha_overflow_is_a_domain_error(capsys, alpha):
    # 2^alpha overflowed: an OverflowError traceback
    code, out, err = run(capsys, "scheme", "build", "--map", "lsv", "--alpha", alpha,
                         "--base", "0.5,1", "--nmax", "3")
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: lsv_left's 2^alpha overflows")


@pytest.mark.parametrize("alpha, command", [
    (-1.0, ["scheme", "build", "--base", "0.5,1", "--nmax", "3"]),
    (math.nan, ["zooming", "frequency", "--x", "0.3", "--N", "100", "--lambda", "0.2",
                "--delta", "0.1"])])
def test_bad_lsv_left_in_a_map_file_is_a_domain_error(capsys, tmp_path, alpha, command):
    # alpha = -1 raised ZeroDivisionError; alpha = nan gave frequency 0.0
    # and exit 0 on a map of nan images
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "space": {"lo": 0.0, "hi": 1.0, "circle": True},
        "branches": [{"lo": 0.0, "hi": 0.5, "kind": "lsv_left", "params": {"alpha": alpha}},
                     {"lo": 0.5, "hi": 1.0, "kind": "lsv_right"}]}))
    code, out, err = run(capsys, *command, "--map-json", str(path))
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: lsv_left needs a finite alpha > 0")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["scheme build", "thermo pressure", "thermo mme",
                                     "thermo equilibrium", "analysis pressure-curve"])
def test_bad_tol_is_a_domain_error(good_inputs, capsys, command, tol):
    # scheme build --tol nan exited 0 with no branches and "exhausted": true,
    # thermo pressure --tol nan exited 0, and --tol -1 raised NoRoot or
    # NotMarkovCompatible
    d, scheme, _ = good_inputs
    argv = {
        "scheme build": ["--map", "lsv", "--alpha", "1.5", "--base", "0.5,1", "--nmax", "10"],
        "thermo pressure": ["--scheme", scheme],
        "thermo mme": ["--counts", "constant_one"],
        "thermo equilibrium": ["--scheme", scheme, "--potential", "geometric:t=0.8"],
        "analysis pressure-curve": ["--scheme", scheme, "--potential", "geometric:t=1",
                                    "--t", "0:1:0.5", "--out", str(d / "tol.csv")],
    }[command]
    code, out, err = run(capsys, *command.split(), *argv, "--tol", tol)
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: tol must be finite and >= 0")


@pytest.fixture(scope="module")
def trie_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("tries")
    docs = {}
    for name, map_args in (("lsv", ["lsv", "--alpha", "0.6", "--base", "0.5,1"]),
                           ("quadratic", ["quadratic", "--c", "-2", "--base", "1,2"])):
        path = d / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(["scheme", "build", "--map", *map_args, "--nmax", "6",
                             "--out", str(path)]) == 0
        docs[name] = path.read_text()
    return d, docs


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_trie_entries_set_to_any_int64_exit_with_a_code(trie_files, data):
    # one entry of the trie's structure set to any int64, encoded as a
    # valid file: load, validation and the certificate end in a code
    d, docs = trie_files
    doc = json.loads(docs[data.draw(st.sampled_from(sorted(docs)))])
    key = data.draw(st.sampled_from(["at", "parent", "symbols", "leaf"]))
    a = doc[key] if key == "at" else _ints(doc, key)
    k = data.draw(st.integers(0, len(a) - 1))
    v = data.draw(st.one_of(st.integers(-2, 2 * len(a)), st.integers(-2 ** 63, 2 ** 63 - 1)))
    a[k] = v
    if key != "at":
        _put(doc, key, a)
    path = d / "fuzzed.json"
    path.write_text(json.dumps(doc))
    for argv in (["thermo", "pressure"],
                 ["thermo", "equilibrium", "--potential", "geometric:t=0.8"],
                 ["analysis", "pressure-curve", "--potential", "geometric", "--t", "0:1:0.5",
                  "--out", str(d / "curve.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert dispatch([*argv, "--scheme", str(path)]) in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# a call builds the parser of its own command only


def _parse(ap, argv):
    """What ap makes of argv: the namespace, or the exit code, with the
    text it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = ap.parse_args(argv)
        except SystemExit as e:
            got = e.code
    return got, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(key):
    full, one = cli.build_parser(), cli.build_parser(key)
    for extra in (["-h"], [], ["--no-such-option"], ["--out"]):
        argv = [*key, *extra]
        assert _parse(one, argv) == _parse(full, argv), argv
    assert _parse(one, [*key, "-h"])[1].startswith(f"usage: eqstate {' '.join(key)} [-h]")
    got, _, err = _parse(one, list(key))
    assert got != 2 or "error: the following arguments are required: --" in err


def test_dispatch_builds_the_full_parser_only_when_argv_names_no_command(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or build(only))
    for argv in (["maps", "list"], ["thermo", "pressure", "--counts", "constant_one"],
                 ["--help"], ["thermo"], ["thermo", "--help"], ["thermo", "nonsense"], ["bogus"]):
        dispatch(argv)
    assert built == [("maps", "list"), ("thermo", "pressure"), None, None, None, None, None]
    capsys.readouterr()
    # their messages, and the usage line of an unknown option, list every command
    err = run(capsys, "maps", "list", "--no-such-option")[2]
    assert err.startswith("usage: eqstate [-h] {maps,scheme,zooming,thermo,analysis} ...\n")
    for argv, names in ((["--help"], {c for c, _ in cli._COMMANDS}),
                        (["thermo"], {s for c, s in cli._COMMANDS if c == "thermo"}),
                        (["bogus"], {c for c, _ in cli._COMMANDS})):
        code, out, err = run(capsys, *argv)
        assert code == (0 if argv == ["--help"] else 2)
        assert all(name in out + err for name in names), argv


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_scheme_build_horizon_below_one_exit1(capsys, tmp_path, nmax):
    # both exited 0, and --nmax -3 wrote a file that no command could load
    out_file = tmp_path / "s.json"
    code, out, err = run(capsys, "scheme", "build", "--map", "lsv", "--alpha", "1.5",
                         "--base", "0.5,1", "--nmax", nmax, "--out", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err.startswith("OutOfRange: n_max must be an integer >= 1")


def test_scheme_build_beyond_the_memory_bound_exit1(capsys, tmp_path):
    # an in-process build at --nmax 1e20 grew until the process was killed
    out_file = tmp_path / "s.json"
    code, out, err = run(capsys, "scheme", "build", "--map", "lsv", "--alpha", "0.6",
                         "--base", "0.5,1", "--nmax", "1000000000", "--out", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err.startswith("OutOfRange: horizon 1000000000 is too long to build")


@pytest.mark.parametrize("value", [0, -3])
def test_scheme_file_with_complete_up_to_below_one_is_a_usage_error(capsys, tmp_path, value):
    path = tmp_path / "s.json"
    doc = _built_scheme(capsys, path)
    path.write_text(json.dumps({**doc, "complete_up_to": value}))
    code, _, err = run(capsys, "thermo", "pressure", "--scheme", str(path))
    assert code == 2 and f"complete_up_to={value} is not an integer >= 1" in err


def test_scheme_file_with_a_negative_tol_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "s.json"
    _built_scheme(capsys, path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "tol": -1e-9}))
    code, _, err = run(capsys, "thermo", "pressure", "--scheme", str(path))
    assert code == 2 and "tol finite and >= 0" in err


@pytest.mark.parametrize("spec,want", [
    ("0:1:0.6", [0.0, 0.6]),
    ("0:1:0.5", [0.0, 0.5, 1.0]),
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
    ("1:1:0.25", [1.0]),
    ("0:0.99:0.33", [0.0, 0.33, 0.66, 0.99]),
    # rounding to 12 decimals made these 0.0 five times, and 101 values 1001 times
    ("1e-13:5e-13:1e-13", [k / 1e13 for k in range(1, 6)]),
    ("0:1e-10:1e-13", [k / 1e13 for k in range(1001)]),
    # the steps were counted on the doubles, whose rounding dropped the last
    # one: 300 points ending at 13.6500000000299, and 1 000 points
    ("13.65:13.65000000003:1e-13", [min(13.65 + k * 1e-13, 13.65000000003) for k in range(301)]),
    ("100:100.00000001:1e-11", [min(100 + k * 1e-11, 100.00000001) for k in range(1001)]),
])
def test_curve_grid_stops_at_its_upper_end(spec, want):
    # the point count was rounded, so 0:1:0.6 gave 0, 0.6 and 1.2
    assert cli._parse_grid(spec) == want


@pytest.mark.parametrize("spec", ["1:1.000000000000001:1e-16", "1e16:1.0000000000000004e16:1"])
def test_curve_grid_without_distinct_points_is_usage_error(tmp_path, capsys, spec):
    # the doubles near lo are farther apart than the step
    with pytest.raises(argparse.ArgumentTypeError, match="too fine"):
        cli._parse_grid(spec)
    scheme = tmp_path / "s.json"
    _built_scheme(capsys, scheme)
    code, out, err = run(capsys, "analysis", "pressure-curve", "--scheme", str(scheme),
                         "--potential", "geometric", "--t", spec,
                         "--out", str(tmp_path / "c.csv"))
    assert code == 2 and out == "" and "too fine" in err and "Traceback" not in err


def test_curve_grid_has_no_point_above_hi():
    grid = cli._parse_grid("0.5:1.5:0.01")
    assert len(grid) == 101 and grid[-1] == 1.5
    assert grid == [round(0.5 + k * 0.01, 12) for k in range(101)]
    for k in range(1, 40):
        for step in (0.1, 0.3, 0.07, 1 / 3, 1e-13):
            lo, hi = -0.35 * k, 0.45 * k
            hi = lo + 300 * step if step < 1e-3 else hi
            grid = cli._parse_grid(f"{lo!r}:{hi!r}:{step!r}")
            assert max(grid) <= hi and hi - grid[-1] < step * (1 + 1e-9)
            # rounding lo to 12 decimals put -1.05 below lo = -0.35 * 3
            assert lo <= grid[0] and all(a < b for a, b in zip(grid, grid[1:]))


def test_cli_makes_no_scheme_branches(monkeypatch, capsys, tmp_path):
    # the five commands of the lsv(1.5) phase transition read the trie alone
    calls = []
    make = eqstate.inducing._branches
    monkeypatch.setattr(eqstate.inducing, "_branches", lambda T: calls.append(1) or make(T))
    S = str(tmp_path / "lsv15.json")
    for argv in (["scheme", "build", "--map", "lsv", "--alpha", "1.5", "--base", "0.5,1",
                  "--nmax", "200", "--out", S],
                 ["thermo", "pressure", "--scheme", S],
                 ["thermo", "mme", "--scheme", S, "--out", str(tmp_path / "mme.json")],
                 ["thermo", "equilibrium", "--scheme", S, "--potential", "geometric:t=0.8",
                  "--out", str(tmp_path / "eq.json"), "--csv", str(tmp_path / "eq.csv")],
                 ["analysis", "pressure-curve", "--scheme", S, "--potential", "geometric",
                  "--t", "0.5:1.5:0.01", "--out", str(tmp_path / "curve.csv")]):
        assert run(capsys, *argv)[0] == 0, argv
    assert calls == []
