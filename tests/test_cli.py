import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chiralbv
from chiralbv.cli import run

# the subprocess imports the same chiralbv as this test process
SRC = str(Path(chiralbv.__file__).resolve().parent.parent)


def run_cli(*argv):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "chiralbv.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


def test_fedosov_solve_report(tmp_path):
    out = tmp_path / "j.json"
    assert run(["fedosov", "solve", "--tmax", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "1"
    assert rep["pass"] is True
    assert {c["name"] for c in rep["checks"]} >= {
        "mc-residual-zero",
        "delta-inv-zero",
        "reflection-invariant",
        "closed-form-dz-free",
    }
    assert rep["residual_report"] == {"0": True, "1": True, "2": True}
    assert "terms" in rep["expression"]


def test_w_commute(tmp_path):
    out = tmp_path / "w.json"
    assert run(["w-commute", "--jmax", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and len(rep["checks"]) == 6


def test_bcov_verify(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bcov", "verify", "--tmax", "2", "--degmax", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"]
    names = {c["name"] for c in rep["checks"]}
    assert "classical-limit" in names and "quantum-mc-central-repair" in names


def test_psm_check_pass_and_fail(tmp_path):
    so3 = {
        "dim": 3,
        "entries": [
            {"i": 0, "j": 1, "exps": [0, 0, 1], "num": 1, "den": 1},
            {"i": 0, "j": 2, "exps": [0, 1, 0], "num": -1, "den": 1},
            {"i": 1, "j": 2, "exps": [1, 0, 0], "num": 1, "den": 1},
        ],
    }
    p = tmp_path / "so3.json"
    p.write_text(json.dumps(so3))
    assert run(["psm", "check", "--poisson", str(p), "--degmax", "4"]) == 0

    bad = {
        "dim": 3,
        "entries": [
            {"i": 0, "j": 1, "exps": [1, 0, 0], "num": 1, "den": 1},
            {"i": 0, "j": 2, "exps": [0, 1, 0], "num": 1, "den": 1},
        ],
    }
    q = tmp_path / "bad.json"
    q.write_text(json.dumps(bad))
    out = tmp_path / "bad-report.json"
    # residual-zero-iff-jacobi still holds (both false), so this passes
    assert run(["psm", "check", "--poisson", str(q), "--degmax", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    detail = next(c for c in rep["checks"] if c["name"] == "residual-zero-iff-jacobi")["detail"]
    assert detail == {"jacobi": False, "residual_zero": False}


def test_psm_check_perturbed_log_canonical_degmax_3(tmp_path):
    """At D = 3 the interaction carries only the linear perturbation, which
    is Poisson on its own; the degree-2 obstruction of the full bivector
    is beyond the truncation, so the zero residual is correct."""
    P = {
        "dim": 3,
        "entries": [
            {"i": 0, "j": 1, "exps": [1, 1, 0], "num": 1, "den": 1},
            {"i": 0, "j": 1, "exps": [0, 0, 1], "num": 1, "den": 1},
            {"i": 0, "j": 2, "exps": [1, 0, 1], "num": 2, "den": 1},
            {"i": 1, "j": 2, "exps": [0, 1, 1], "num": 3, "den": 1},
        ],
    }
    p = tmp_path / "lc.json"
    p.write_text(json.dumps(P))
    out = tmp_path / "lc-report.json"
    assert run(["psm", "check", "--poisson", str(p), "--degmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["residual-zero-iff-jacobi"]["detail"] == {"jacobi": True, "residual_zero": True}
    assert checks["residual-equals-obstruction"]["pass"]
    # at D = 4 the degree-2 obstruction is carried and the residual shows it
    assert run(["psm", "check", "--poisson", str(p), "--degmax", "4", "--out", str(out)]) == 0
    detail = next(c for c in json.loads(out.read_text())["checks"]
                  if c["name"] == "residual-zero-iff-jacobi")["detail"]
    assert detail == {"jacobi": False, "residual_zero": False}


def _assert_input_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


def test_malformed_json_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    _assert_input_error(run_cli("phi", "--in", str(bad)))
    _assert_input_error(run_cli("psm", "check", "--poisson", str(bad), "--degmax", "3"))
    # a fractional derivative order or coefficient is rejected, not truncated
    for mono, coef in [({"gen": "et", "k": 0, "dz": 1.7}, {"num": 1, "den": 1, "lam": 0}),
                       ({"gen": "et", "k": 0}, {"num": 1, "den": 1, "lam": 0.5})]:
        bad.write_text(json.dumps({"terms": [{"mono": [mono], "coef": coef}]}))
        _assert_input_error(run_cli("phi", "--in", str(bad)))


@pytest.mark.parametrize("bivector", [
    {"dim": 2, "entries": [{"i": 0, "j": 1, "exps": [0, 0], "num": 1, "den": 0}]},
    {"dim": 2, "entries": [{"i": 1, "j": 0, "exps": [0, 0], "num": 1, "den": 1}]},
    {"dim": 3, "entries": [{"i": 0, "j": 1, "exps": [0, 0, -1], "num": 1, "den": 1}]},
    {"dim": -2, "entries": []},
    # fractional and boolean numbers are rejected, not truncated to another bivector
    {"dim": 3, "entries": [{"i": 0, "j": 1, "exps": [1, 0, 0], "num": 1, "den": 1},
                           {"i": 0, "j": 2, "exps": [0, 1, 0], "num": 0.5, "den": 1}]},
    {"dim": 3.9, "entries": [{"i": 0, "j": 1, "exps": [0, 0, 1], "num": 1, "den": 1}]},
    {"dim": 3, "entries": [{"i": 0, "j": 1, "exps": [0, 0, 1.9], "num": 1, "den": 1}]},
    {"dim": 3, "entries": [{"i": 0, "j": 1, "exps": [0, 0, 1], "num": True, "den": 1}]},
], ids=["zero-den", "lower-triangle", "negative-exponent", "negative-dim",
        "fractional-num", "fractional-dim", "fractional-exponent", "boolean-num"])
def test_psm_check_malformed_bivector_exit_2(tmp_path, bivector):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(bivector))
    _assert_input_error(run_cli("psm", "check", "--poisson", str(p), "--degmax", "3"))


def test_undeclared_generator_input_exit_2(tmp_path):
    expr = {"terms": [{"mono": [{"gen": "zz", "k": 0}], "coef": {"num": 1, "den": 1, "lam": 0}}]}
    infile = tmp_path / "zz.json"
    infile.write_text(json.dumps(expr))
    proc = run_cli("phi", "--in", str(infile))
    _assert_input_error(proc)
    assert "undeclared generator zz0" in proc.stderr


def test_renorm_ucheck(tmp_path):
    out = tmp_path / "r.json"
    assert run(["renorm", "ucheck", "--m", "1", "--k", "0,0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ratio"] == "2"
    assert rep["pass"]


def _solution_expression(tmp_path, tmax):
    """The expression of ``fedosov solve --tmax tmax``, written as phi's input file."""
    jfile = tmp_path / "j.json"
    assert run(["fedosov", "solve", "--tmax", str(tmax), "--out", str(jfile)]) == 0
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(json.loads(jfile.read_text())["expression"]))
    return infile


def test_phi_roundtrip(tmp_path):
    infile = _solution_expression(tmp_path, 1)
    out = tmp_path / "modes.json"
    assert run(["phi", "--in", str(infile), "--bg-kmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["modes"]["parts"][0]["zpow"] == 0


def test_phi_budget_overflow_exit_3(tmp_path):
    infile = _solution_expression(tmp_path, 1)
    assert run(["phi", "--in", str(infile), "--bg-kmax", "3", "--kmax", "0"]) == 3


def test_phi_wmax_reports_on_t4_solution(tmp_path):
    """Unwindowed, this input grows past gigabytes; the window keeps it small."""
    infile = _solution_expression(tmp_path, 4)
    out = tmp_path / "modes.json"
    assert run(["phi", "--in", str(infile), "--bg-kmax", "4", "--wmax", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["parameters"]["wmax"] == 2 and rep["modes"]["parts"]


def test_phi_wmax_equals_restricted_unwindowed_modes(tmp_path):
    from chiralbv.correspondence import restrict_index_weight
    from chiralbv.vertex import ModeElement, make_bcov

    infile = _solution_expression(tmp_path, 1)
    system, _ = make_bcov(3)

    def modes(*extra):
        out = tmp_path / "modes.json"
        assert run(["phi", "--in", str(infile), "--bg-kmax", "3", "--out", str(out), *extra]) == 0
        return json.loads(out.read_text())["modes"]

    full = ModeElement.from_obj(system, modes()).part(0)
    kept = 0
    for w in range(5):
        expect = ModeElement.zero_mode(restrict_index_weight(full, w)).to_obj()
        assert modes("--wmax", str(w)) == expect
        kept += bool(expect["parts"])
    assert kept >= 3


def test_usage_error_exit_2(capsys, monkeypatch):
    proc = run_cli("fedosov", "solve")  # missing --tmax
    assert proc.returncode == 2
    proc = run_cli("no-such-command")
    assert proc.returncode == 2
    proc = run_cli("fedosov", "solve", "--tmax", "-1")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr

    def usage_error(argv) -> str:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        return capsys.readouterr().err.strip().splitlines()[-1]

    # out-of-range numbers are rejected while parsing, naming the argument
    for argv, name in [
        (["bcov", "verify", "--tmax", "-1", "--degmax", "4"], "--tmax"),
        (["bcov", "verify", "--tmax", "1", "--degmax", "2"], "--degmax"),
        (["renorm", "ucheck", "--m", "1", "--k", "0,x"], "--k"),
        (["renorm", "ucheck", "--m", "2", "--k", "0,0"], "--k"),
        (["renorm", "ucheck", "--m", "9", "--k", "0,0"], "--m"),
        (["renorm", "ucheck", "--m", "1", "--k", "0,9"], "--k"),
        (["psm", "check", "--poisson", "p.json", "--degmax", "1"], "--degmax"),
        (["psm", "check", "--poisson", "p.json", "--degmax", "-2"], "--degmax"),
        (["w-commute", "--jmax", "1"], "--jmax"),
        (["props", "--cases", "-1"], "--cases"),
        (["--threads", "0", "props", "--cases", "1"], "--threads"),
        (["phi", "--in", "j.json", "--bg-kmax", "-1"], "--bg-kmax"),
        (["phi", "--in", "j.json", "--wmax", "-1"], "--wmax"),
        (["renorm", "ucheck", "--m", "1", "--k", "0,0", "--tol", "inf"], "--tol"),
        (["renorm", "ucheck", "--m", "1", "--k", "0,0", "--tol", "nan"], "--tol"),
        (["renorm", "ucheck", "--m", "1", "--k", "0,0", "--tol", "-1"], "--tol"),
    ]:
        assert f"argument {name}:" in usage_error(argv), argv
    for env in ("x", "0"):
        monkeypatch.setenv("CHIRALBV_THREADS", env)
        assert "CHIRALBV_THREADS" in usage_error(["w-commute", "--jmax", "2"])


def test_props_small(tmp_path):
    out = tmp_path / "p.json"
    assert run(["props", "--cases", "5", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and all(c["failures"] == 0 for c in rep["checks"])


def test_determinism_across_thread_counts(tmp_path):
    """Identical reports modulo the timing field."""
    outs = []
    for threads, name in [(1, "a.json"), (4, "b.json")]:
        out = tmp_path / name
        assert run(["--threads", str(threads), "props", "--cases", "5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        del rep["wall_time_s"]
        rep["parameters"].pop("threads")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]

    outs = []
    for threads, name in [(1, "c.json"), (3, "d.json")]:
        out = tmp_path / name
        assert run(["--threads", str(threads), "bcov", "verify", "--tmax", "2", "--degmax", "4",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        del rep["wall_time_s"]
        rep["parameters"].pop("threads")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_fedosov_tmax_zero(tmp_path):
    out = tmp_path / "j0.json"
    assert run(["fedosov", "solve", "--tmax", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"]
    assert rep["expression"]["terms"] == [
        {"mono": [{"gen": "et", "k": 0, "dz": 0, "dt": 0}], "coef": {"num": 1, "den": 1, "lam": 0}}
    ]


@pytest.mark.parametrize("argv, digest", [
    (["--threads", "1", "bcov", "verify", "--tmax", "2", "--degmax", "4"],
     "70f2e007da99336d284f01d58492bba8a7874c0154713d1016cac05b3d2ea8c4"),
    (["--threads", "1", "props", "--cases", "20", "--seed", "7"],
     "d5a9c2102836b10873460e886013c4d0f53e10c33afff4d2d5789b7543087614"),
    (["psm", "check", "--poisson", "so3", "--degmax", "4"],
     "d6da2fe3e472c945bb99be44253e53258a3eda4079012c2391a17e4ea2cc6285"),
    (["psm", "check", "--poisson", "non_jacobi", "--degmax", "4"],
     "8299aa229755ee25603d380cde7440d39bcfb43124df585ee9e1d5161a167397"),
], ids=["bcov-verify", "props", "psm-so3", "psm-non-jacobi"])
def test_report_golden(tmp_path, argv, digest):
    """sha256 of the whole report as emitted, without wall_time_s and the
    bivector file's path (see test_fedosov_solve_report_golden)."""
    from chiralbv.psm import non_jacobi_bivector, so3_bivector

    argv = list(argv)
    if "--poisson" in argv:
        i = argv.index("--poisson") + 1
        path = tmp_path / f"{argv[i]}.json"
        path.write_text(json.dumps({"so3": so3_bivector, "non_jacobi": non_jacobi_bivector}[argv[i]]().to_obj()))
        argv[i] = str(path)
    out = tmp_path / "rep.json"
    assert run(argv + ["--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    del rep["wall_time_s"]
    rep["parameters"].pop("poisson", None)
    assert hashlib.sha256(json.dumps(rep).encode()).hexdigest() == digest


def test_closed_stdout_exits_without_traceback():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "chiralbv.cli", "bcov", "verify", "--tmax", "2", "--degmax", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()  # the reader goes away before the report is written
    stderr = proc.stderr.read()
    assert proc.wait() == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
