"""Command line interface: configs, reports, CSV traces, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hetindex
from hetindex import SuiteResult
from hetindex import cli as climod

# The directory that holds hetindex/__init__.py, so the child process runs
# the package this test process imported, from any working directory.
PACKAGE_ROOT = str(Path(hetindex.__file__).resolve().parent.parent)


def run_cli(args, tmp_path, env_extra=None, timeout=None):
    """Run ``python -m hetindex.cli`` in ``tmp_path``.

    The commands write ``hetindex-out/`` relative to the working directory,
    and a relative ``PYTHONPATH`` such as ``src`` does not resolve from
    ``tmp_path``, hence the absolute package root. ``HETINDEX_LOG`` comes
    from ``env_extra`` only, so the caller's log level does not leak in.
    """
    env = dict(os.environ)
    env.pop("HETINDEX_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hetindex.cli", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
        timeout=timeout,
    )


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def read_csv_rows(out_dir):
    with open(out_dir / "trace.csv", newline="") as fh:
        return list(csv.reader(fh))


ROTATING_LINE = {
    "kind": "subspace-paths",
    "V": [["cos(t)"], ["sin(t)"]],
    "W": [["0"], ["1"]],
    "interval": [0.0, 3.141592653589793],
    "samples": 51,
}

SMALL_THEOREM = {
    "kind": "linear-family",
    "n": 2,
    "k": 1,
    "S": [["0", "1"], ["1 - 2.5*lambda*sech(t)^2", "0"]],
    "tau": 8.0,
    "N": 400,
    "lam_samples": 21,
}

CUBIC = {
    "kind": "nonlinear-family",
    "g": ["z2", "(1 - 2.5*lambda*sech(t)^2)*z1 + z1^3"],
    "branch": ["0", "0"],
    "z_minus": [0.0, 0.0],
    "z_plus": [0.0, 0.0],
    "lam_range": [0.0, 1.0],
    "lam_samples": 101,
}

MASLOV = {
    "kind": "lagrangian-paths",
    "A": [["t"]],
    "B": [["-t"]],
    "interval": [-1.0, 1.0],
    "samples": 101,
}


def test_index_subspace_paths(tmp_path):
    cfg = write_config(tmp_path, ROTATING_LINE)
    res = run_cli(["index", "--config", cfg, "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["command"] == "index"
    assert report["result"]["value"] == 1
    # resolved config embeds defaults alongside the user's values
    assert report["config"]["samples"] == 51
    assert report["config"]["eps_trans"] == 1e-6
    rows = read_csv_rows(tmp_path / "out")
    assert rows[0] == ["t", "det"]
    assert len(rows) >= 52


def test_index_reports_orientability(tmp_path):
    cfg = write_config(tmp_path, {**ROTATING_LINE, "orientability": True})
    res = run_cli(["index", "--config", cfg, "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["result"]["orientability"] == 1


def test_index_orientability_uses_config_eps_trans(tmp_path, monkeypatch):
    seen = []

    def recording(name, fn):
        def run(*args, **kwargs):
            seen.append((name, kwargs.get("eps_trans")))
            return fn(*args, **kwargs)
        return run

    for name in ("close_loop", "bundle_orientability"):
        monkeypatch.setattr(climod, name,
                            recording(name, getattr(climod, name)))
    cfg = climod.resolve_config({**ROTATING_LINE, "orientability": True,
                                 "eps_trans": 1e-4})
    assert climod.cmd_index(cfg, tmp_path / "out") == 0
    assert seen == [("close_loop", 1e-4), ("bundle_orientability", 1e-4)]


def test_geometric_parity_command(tmp_path):
    cfg = write_config(tmp_path, {**SMALL_THEOREM, "lam": 1.0,
                                  "lam_samples": 5, "samples": 81})
    res = run_cli(["geometric-parity", "--config", cfg, "--out", "out"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["result"]["value"] == 1
    assert report["result"]["lam"] == 1.0
    rows = read_csv_rows(tmp_path / "out")
    assert rows[0] == ["t", "det"]


def test_verify_theorem_command(tmp_path):
    cfg = write_config(tmp_path, SMALL_THEOREM)
    res = run_cli(["verify-theorem", "--config", cfg, "--out", "out"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["result"]["parity"] == 1
    assert report["result"]["z2_index"] == 1
    assert report["result"]["agree"] is True
    assert report["result"]["stable_tau_doubling"] is True
    assert report["result"]["stable_N_doubling"] is True
    assert all(m > 1e-6 for m in report["result"]["endpoint_margins"])
    assert len(report["result"]["endpoint_margins"]) == 2
    assert report["result"]["hypotheses"]["lam_range"] == [0.0, 1.0]
    assert report["config"]["lam_range"] == [0.0, 1.0]
    rows = read_csv_rows(tmp_path / "out")
    assert rows[0] == ["lambda", "detsign", "sigma_min"]
    assert len(rows) == 22


def test_bifurcate_command(tmp_path):
    cfg = write_config(tmp_path, CUBIC)
    res = run_cli(["bifurcate", "--config", cfg, "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["result"]["bifurcates"] is True
    candidates = report["result"]["lam_candidates"]
    assert len(candidates) == 1 and abs(candidates[0] - 0.8) < 0.01
    rows = read_csv_rows(tmp_path / "out")
    assert rows[0] == ["t", "det"]


def test_bifurcate_reports_checked_half_range(tmp_path):
    # the check samples a family rescaled to [0, 1]; the report must
    # name the configured interval
    cfg = write_config(tmp_path, {**CUBIC, "lam_range": [0.0, 0.5]})
    res = run_cli(["bifurcate", "--config", cfg, "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["result"]["bifurcates"] is False
    assert report["result"]["hypotheses"]["lam_range"] == [0.0, 0.5]


def test_maslov_command(tmp_path):
    cfg = write_config(tmp_path, MASLOV)
    res = run_cli(["maslov", "--config", cfg, "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out")
    assert report["result"]["maslov"] == -1
    assert report["result"]["agree_mod2"] is True
    rows = read_csv_rows(tmp_path / "out")
    assert rows[0] == ["t", "det"]


def test_maslov_non_symmetric_matrix_exits_2_naming_the_instant(tmp_path):
    # [[2, 0.5 + t], [-0.5 - t, 3]] is symmetric at t = -0.5 only, so
    # the first bad instant is the second of the 101 on [-0.5, 1]
    cfg = write_config(tmp_path, {
        **MASLOV,
        "A": [["2", "0.5 + t"], ["-0.5 - t", "3"]],
        "B": [["0", "0"], ["0", "0"]],
        "interval": [-0.5, 1.0],
    })
    res = run_cli(["maslov", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "A(-0.485) is not symmetric" in res.stderr


def test_schema_violation_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"kind": "subspace-paths", "V": "nope"})
    res = run_cli(["index", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr


def test_malformed_expression_exits_2(tmp_path):
    cfg = write_config(tmp_path, {**ROTATING_LINE, "V": [["cos(t"], ["0"]]})
    res = run_cli(["index", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "offset" in res.stderr


def test_domain_error_exits_2(tmp_path):
    # sqrt(lambda - 2) has no real value on the default lambda range
    S = [["-1", "0"], ["0", "1 + sqrt(lambda - 2)"]]
    cfg = write_config(tmp_path, {**SMALL_THEOREM, "S": S})
    res = run_cli(["verify-theorem", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "sqrt of negative value" in res.stderr


def test_domain_error_in_subspace_path_exits_2(tmp_path):
    # sqrt(t - 2) has no real value on the first two thirds of [0, 3]
    cfg = write_config(tmp_path, {
        "kind": "subspace-paths",
        "V": [["sqrt(t - 2)"], ["1"]],
        "W": [["1"], ["0"]],
        "interval": [0.0, 3.0],
        "samples": 11,
    })
    res = run_cli(["index", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "sqrt of negative value" in res.stderr


def test_domain_error_in_lagrangian_path_exits_2(tmp_path):
    cfg = write_config(tmp_path, {**MASLOV, "A": [["sqrt(t)"]]})
    res = run_cli(["maslov", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "sqrt of negative value" in res.stderr


def test_domain_error_in_linearization_exits_2(tmp_path):
    # D_z g holds d/dz1 sqrt(z1) = 0.5/sqrt(z1), undefined on the branch z = 0
    cfg = write_config(tmp_path, {**CUBIC, "g": ["z2", "z1 + sqrt(z1)"]})
    res = run_cli(["bifurcate", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "division by zero" in res.stderr


def test_bifurcate_honours_branch_tol(tmp_path):
    # the branch misses z' = g by 1.5e-5: within 0.01, not within the
    # default 1e-6
    loose = {**CUBIC, "branch": ["1e-5*sech(t)", "0"], "lam_samples": 21}
    cfg = write_config(tmp_path, {**loose, "branch_tol": 0.01})
    res = run_cli(["bifurcate", "--config", cfg, "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert read_report(tmp_path / "out")["config"]["branch_tol"] == 0.01
    strict = write_config(tmp_path, loose, name="strict.json")
    res = run_cli(["bifurcate", "--config", strict], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "exceeds 1e-06" in res.stderr


def test_undefined_branch_exits_2(tmp_path):
    # (sqrt(t), 0) solves no z' = (z2, z1) and has no value for t < 0
    cfg = write_config(tmp_path, {**CUBIC, "g": ["z2", "z1"],
                                  "branch": ["sqrt(t)", "0"]})
    res = run_cli(["bifurcate", "--config", cfg], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "sqrt of negative value" in res.stderr


def test_non_finite_config_literal_exits_2(tmp_path):
    # without the NaN this config exits 3: the right endpoint is degenerate
    nan = {**ROTATING_LINE, "interval": [0.0, 1.5707963257948966],
           "samples": 21, "eps_trans": float("nan")}
    res = run_cli(["index", "--config", write_config(tmp_path, nan)],
                  tmp_path)
    assert res.returncode == 2, res.stderr
    assert "non-finite number NaN" in res.stderr
    path = write_config(tmp_path, {**nan, "eps_trans": float("inf")},
                        name="inf.json")
    with pytest.raises(hetindex.ConfigError, match="Infinity"):
        climod.load_config(path)


def test_resolve_config_rejects_non_finite_numbers():
    # the schema's bounds let NaN through: every comparison with it is false
    line = {**ROTATING_LINE, "interval": [0.0, 1.5707963257948966],
            "samples": 21}
    with pytest.raises(hetindex.ConfigError,
                       match="non-finite number NaN in 'eps_trans'"):
        climod.resolve_config({**line, "eps_trans": float("nan")})
    with pytest.raises(hetindex.ConfigError,
                       match="non-finite number -Infinity in 'interval'"):
        climod.resolve_config({**line, "interval": [float("-inf"), 1.0]})
    pt = climod.DEMOS["poschl-teller"]["config"]
    with pytest.raises(hetindex.ConfigError,
                       match="non-finite number NaN in 'tau'"):
        climod.resolve_config({**pt, "tau": float("nan")})


def test_seed_is_a_selftest_option_only(monkeypatch):
    with pytest.raises(SystemExit) as info:
        climod.main(["index", "--config", "x.json", "--seed", "1"])
    assert info.value.code == 2
    seeds = []
    monkeypatch.setattr(climod, "run_all",
                        lambda seed=0: seeds.append(seed) or [])
    assert climod.main(["selftest", "--seed", "5"]) == 0
    assert seeds == [5]


def test_jumping_subspace_exits_2(tmp_path):
    # V jumps at t = 0.5; refinement must give up at its depth cap and
    # refuse the jump, within the timeout instead of refining forever
    cfg = write_config(tmp_path, {
        "kind": "subspace-paths",
        "V": [["1"], ["atan(1e20*(t-0.5))"]],
        "W": [["0"], ["1"]],
        "samples": 11,
    })
    res = run_cli(["index", "--config", cfg], tmp_path, timeout=60)
    assert res.returncode == 2, res.stderr
    assert "gap" in res.stderr


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli(["index", "--config", "no-such-file.json"], tmp_path)
    assert res.returncode == 2, res.stderr


def test_degenerate_endpoint_exits_3(tmp_path):
    # the rotating line starts on top of W
    bad = {**ROTATING_LINE,
           "interval": [1.5707963267948966, 3.141592653589793]}
    cfg = write_config(tmp_path, bad)
    res = run_cli(["index", "--config", cfg], tmp_path)
    assert res.returncode == 3, res.stderr


def test_demo_list(tmp_path):
    res = run_cli(["demo", "--list"], tmp_path)
    assert res.returncode == 0, res.stderr
    for name in ("rotating-line", "mobius", "poschl-teller",
                 "cubic-schrodinger", "maslov-crossing"):
        assert name in res.stdout


def test_demo_unknown_exits_2_and_lists(tmp_path):
    res = run_cli(["demo", "no-such-demo"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "rotating-line" in res.stderr


def test_demo_runs_and_writes(tmp_path):
    res = run_cli(["demo", "rotating-line", "--out", "out"], tmp_path)
    assert res.returncode == 0, res.stderr
    report = read_report(tmp_path / "out" / "rotating-line")
    assert report["result"]["value"] == 1


def test_log_env_var(tmp_path):
    cfg = write_config(tmp_path, MASLOV)
    res = run_cli(["maslov", "--config", cfg], tmp_path,
                  env_extra={"HETINDEX_LOG": "DEBUG"})
    assert res.returncode == 0, res.stderr
    wrote_report = re.compile(r"hetindex INFO wrote .*report\.json")
    assert wrote_report.search(res.stderr), res.stderr
    quiet = run_cli(["maslov", "--config", cfg], tmp_path)
    assert quiet.returncode == 0, quiet.stderr
    assert not wrote_report.search(quiet.stderr), quiet.stderr


def test_selftest_prints_and_exits_clean(monkeypatch, capsys):
    fake = [SuiteResult(name="fake-suite", total=3, passes=3, failures=())]
    monkeypatch.setattr(climod, "run_all", lambda seed=0: fake)
    code = climod.main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fake-suite: 3/3 ok" in out


def test_selftest_failure_exits_nonzero(monkeypatch, capsys):
    fake = [SuiteResult(name="fake-suite", total=3, passes=2,
                        failures=((1, "mismatch"),))]
    monkeypatch.setattr(climod, "run_all", lambda seed=0: fake)
    code = climod.main(["selftest"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "mismatch" in out
