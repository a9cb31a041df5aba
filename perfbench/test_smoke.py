"""Fast test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, ``orbits`` too, which BENCHMARK.json leaves out, runs
untraced and traced at ``--size smoke``; each run must emit every metric
of BENCHMARK.json with its unit, with every verdict checked and right.
The verdict checks are also shown to reject wrong answers, and the
benchmark to refuse to run without ``src/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_verdicts_checked(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stderr[-3000:]
    *_, meta_line, result_line = out.stdout.strip().splitlines()
    meta, result = json.loads(meta_line)["meta"], json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == meta["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    for key in ("git_sha", "nproc", "python", "numpy", "scipy", "openblas",
                "seed", "problem_size"):
        assert key in meta
    if trace:
        assert meta["nondeterministic"] == []
        assert meta["nondeterministic_calls"] == []
        assert meta["not_found"] == []
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in wanted)


def test_verdict_checks_reject_wrong_answers():
    parity = SimpleNamespace(flips=(0.8,))
    index = SimpleNamespace(crossings=(0.6,))
    wrong = SimpleNamespace(lhs=1, rhs=1, agree=True, parity=parity,
                            index=index)
    assert WORKLOADS["theorem"].judge("poschl-teller", wrong).problems

    term = SimpleNamespace(value=0, crossings=())
    broken = SimpleNamespace(holds=False, index_over_lambda=term,
                             geo_start=term, geo_end=term, limit_term=term)
    assert WORKLOADS["orbits"].judge("random", broken).problems

    failed = SimpleNamespace(ok=False, name="s", passes=0, total=1,
                             failures=((0, "identity violated"),),
                             summary=lambda: "s: 0/1 FAIL")
    assert WORKLOADS["suites"].judge("finite-0", failed).problems

    half = SimpleNamespace(bifurcates=True, index=1, lam_candidates=(0.4,),
                           note="bifurcation from the given branch")
    assert WORKLOADS["bifurcate"].judge("half", half).problems
    assert WORKLOADS["bifurcate"].judge("full", half).problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
