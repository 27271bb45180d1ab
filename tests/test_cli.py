import json
import subprocess
import sys

from chiralbv.cli import run


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "chiralbv.cli", *argv], capture_output=True, text=True
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


def test_phi_roundtrip(tmp_path):
    jfile = tmp_path / "j.json"
    run(["fedosov", "solve", "--tmax", "1", "--out", str(jfile)])
    expr = json.loads(jfile.read_text())["expression"]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(expr))
    out = tmp_path / "modes.json"
    assert run(["phi", "--in", str(infile), "--bg-kmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["modes"]["parts"][0]["zpow"] == 0


def test_phi_budget_overflow_exit_3(tmp_path):
    jfile = tmp_path / "j.json"
    run(["fedosov", "solve", "--tmax", "1", "--out", str(jfile)])
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(json.loads(jfile.read_text())["expression"]))
    assert run(["phi", "--in", str(infile), "--bg-kmax", "3", "--kmax", "0"]) == 3


def test_usage_error_exit_2():
    proc = run_cli("fedosov", "solve")  # missing --tmax
    assert proc.returncode == 2
    proc = run_cli("no-such-command")
    assert proc.returncode == 2


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
