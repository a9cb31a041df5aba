"""Command-line surface: configs in, JSON reports and CSV traces out.

One executable, seven subcommands::

    hetindex index            Z2-index of a configured path pair
    hetindex geometric-parity parity of an orbit at one lambda
    hetindex verify-theorem   operator parity against the index
    hetindex bifurcate        bifurcation verdict for a nonlinear family
    hetindex maslov           Maslov index against the Z2-index
    hetindex demo             run a bundled example by name
    hetindex selftest         run the randomized property suites

Configs are JSON validated against the shipped schema; every report
embeds the fully resolved config (defaults filled in) so a run can be
reproduced from its own output.  Exit codes: 0 ok, 1 internal error,
2 invalid input or hypothesis failure, 3 numerical degeneracy.  The
environment variable HETINDEX_LOG sets the logging level.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .bifurcation import Branch, NonlinearFamily, detect_bifurcation
from .errors import (
    ConfigError,
    Degeneracy,
    DomainError,
    HetindexError,
    InvalidInput,
    _checked_range,
)
from .expr import compile_matrix, parse_matrix
from .flow import LinearFamily, path_from_sampler
from .linalg import orthonormalize
from .maslov import graph_frame, mod2_compare
from .parity import boundary_pair_over_lambda, verify_index_theorem
from .suites import run_all
from .z2index import (
    SubspacePathPair,
    bundle_orientability,
    close_loop,
    geometric_parity,
    z2_index,
    z2_index_unbounded,
)

log = logging.getLogger("hetindex")

_COMMON_DEFAULTS = {
    "eps_trans": 1e-6,
    "rtol": 1e-9,
    "atol": 1e-12,
}

_KIND_DEFAULTS = {
    "linear-family": {
        "lam_range": [0.0, 1.0],
        "lam": 0.0,
        "t": 0.0,
        "t_max": 20.0,
        "tau": 15.0,
        "N": 3000,
        "lam_samples": 201,
        "samples": 201,
        "stability": True,
        "track_sigma": True,
    },
    "nonlinear-family": {
        "lam_range": [0.0, 1.0],
        "t_max": 20.0,
        "branch_tol": 1e-6,
        "lam_samples": 201,
    },
    "subspace-paths": {
        "interval": [0.0, 1.0],
        "samples": 201,
        "unbounded": False,
        "orientability": False,
    },
    "lagrangian-paths": {
        "interval": [0.0, 1.0],
        "samples": 401,
        "cross_tol": 1e-7,
    },
}


def _schema() -> dict:
    text = resources.files("hetindex").joinpath(
        "config_schema.json").read_text()
    return json.loads(text)


def load_config(path: str) -> dict:
    """Read, schema-validate, and default-fill a config file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return resolve_config(raw, origin=path)


def _require_finite(value, key: str, origin: str) -> None:
    """Refuse a NaN or infinite number anywhere in value; NaN would
    pass the schema's bounds, since every comparison with it fails."""
    if isinstance(value, dict):
        for k, v in value.items():
            _require_finite(v, k, origin)
    elif isinstance(value, list):
        for v in value:
            _require_finite(v, key, origin)
    elif isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{origin}: non-finite number {json.dumps(value)} "
                          f"in {key!r}")


def resolve_config(raw: dict, origin: str = "<config>") -> dict:
    """Refuse non-finite numbers, apply the schema, fill in defaults."""
    _require_finite(raw, "config", origin)
    try:
        jsonschema.validate(raw, _schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"{origin}: {exc.message}") from exc
    kind = raw["kind"]
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_KIND_DEFAULTS[kind])
    cfg.update(raw)
    return cfg


# -- builders ----------------------------------------------------------

def _build_linear_family(cfg: dict) -> LinearFamily:
    m = parse_matrix(cfg["S"], variables=("t", "lambda"))
    if m.rows != cfg["n"]:
        raise ConfigError(f"S has {m.rows} rows but n = {cfg['n']}")
    return LinearFamily.from_matrix_expr(m, k=cfg["k"],
                                         t_max=cfg["t_max"])


def _frame_sampler(entries):
    m = parse_matrix(entries, variables=("t",))
    fn = compile_matrix(m, ("t",))

    def sample(ts: np.ndarray) -> np.ndarray:
        return orthonormalize(fn(ts))

    return sample


def _build_pair(cfg: dict):
    vs, ws = _frame_sampler(cfg["V"]), _frame_sampler(cfg["W"])
    grid = np.linspace(*_checked_range(cfg["interval"], "interval"),
                       cfg["samples"])
    return SubspacePathPair(V=path_from_sampler(vs, grid),
                            W=path_from_sampler(ws, grid))


def _lagrangian_graph_sampler(entries, label: str):
    fn = compile_matrix(parse_matrix(entries, variables=("t",)), ("t",))

    def sample(ts: np.ndarray) -> np.ndarray:
        M = fn(ts)
        frames = graph_frame(M)     # refuses a non-square A
        Mt = np.swapaxes(M, 1, 2)
        bad = np.abs(M - Mt).max(axis=(1, 2)) > 1e-8
        if bad.any():
            raise ConfigError(
                f"{label}({ts[bad.argmax()]:.6g}) is not symmetric")
        # an exactly symmetric A is its own symmetric part
        return frames if (M == Mt).all() else graph_frame((M + Mt) / 2.0)

    return sample


# -- report output -----------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_outputs(out_dir: Path, command: str, cfg: dict, result: dict,
                   csv_header=None, csv_rows=None, elapsed=None) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "config": cfg,
        "result": result,
    }
    if elapsed is not None:
        report["elapsed_seconds"] = round(elapsed, 3)
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, default=_jsonable)
        fh.write("\n")
    if csv_header is not None:
        csv_path = out_dir / "trace.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)
        log.info("wrote %s", csv_path)
    log.info("wrote %s", report_path)
    return report_path


def _hypotheses_payload(hyp) -> dict:
    return {
        "ok": hyp.ok,
        "min_gap": hyp.min_gap,
        "lambdas_checked": hyp.lambdas_checked,
        "lam_range": list(hyp.lam_range),
        "note": hyp.note,
        "violations": [
            {"lambda": lam, "assumption": tag, "message": msg}
            for lam, tag, msg in hyp.violations
        ],
    }


def _index_payload(rep) -> dict:
    return {
        "value": rep.value,
        "crossings": list(rep.crossings),
        "eps_trans": rep.eps_trans,
        "refinement_depth": rep.refinement_depth,
        "grid_points": len(rep.grid),
    }


# -- commands ----------------------------------------------------------

def cmd_index(cfg: dict, out_dir: Path) -> int:
    t0 = time.perf_counter()
    if cfg["kind"] == "subspace-paths":
        pair = _build_pair(cfg)
        if cfg["unbounded"]:
            if "tail_T" not in cfg:
                raise ConfigError("unbounded index requires tail_T")
            rep = z2_index_unbounded(pair, tail_T=cfg["tail_T"],
                                     eps_trans=cfg["eps_trans"])
        else:
            rep = z2_index(pair, eps_trans=cfg["eps_trans"])
        result = _index_payload(rep)
        if cfg["orientability"]:
            result["orientability"] = bundle_orientability(
                close_loop(pair, eps_trans=cfg["eps_trans"]),
                eps_trans=cfg["eps_trans"])
        grid = rep.grid
    elif cfg["kind"] == "linear-family":
        fam = _build_linear_family(cfg)
        lams = np.linspace(*_checked_range(cfg["lam_range"], "lam_range"),
                           cfg["lam_samples"])
        pair = boundary_pair_over_lambda(fam, lams, t=cfg["t"],
                                         rtol=cfg["rtol"], atol=cfg["atol"])
        rep = z2_index(pair, eps_trans=cfg["eps_trans"])
        result = _index_payload(rep)
        grid = rep.grid
    else:
        raise ConfigError(
            "index expects kind subspace-paths or linear-family, "
            f"got {cfg['kind']}")
    rows = list(zip(grid.tolist(), rep.det_trace.tolist()))
    _write_outputs(out_dir, "index", cfg, result,
                   csv_header=("t", "det"), csv_rows=rows,
                   elapsed=time.perf_counter() - t0)
    print(f"index: value={result['value']}"
          + (f" orientability={result['orientability']}"
             if "orientability" in result else ""))
    return 0


def cmd_geometric_parity(cfg: dict, out_dir: Path) -> int:
    if cfg["kind"] != "linear-family":
        raise ConfigError("geometric-parity expects kind linear-family")
    t0 = time.perf_counter()
    fam = _build_linear_family(cfg)
    rep = geometric_parity(fam, cfg["lam"], samples=cfg["samples"],
                           eps_trans=cfg["eps_trans"],
                           rtol=cfg["rtol"], atol=cfg["atol"])
    result = _index_payload(rep)
    result["lam"] = cfg["lam"]
    rows = list(zip(rep.grid.tolist(), rep.det_trace.tolist()))
    _write_outputs(out_dir, "geometric-parity", cfg, result,
                   csv_header=("t", "det"), csv_rows=rows,
                   elapsed=time.perf_counter() - t0)
    print(f"geometric-parity: value={rep.value} at lambda={cfg['lam']}")
    return 0


def cmd_verify_theorem(cfg: dict, out_dir: Path) -> int:
    if cfg["kind"] != "linear-family":
        raise ConfigError("verify-theorem expects kind linear-family")
    t0 = time.perf_counter()
    fam = _build_linear_family(cfg)
    lams = np.linspace(*_checked_range(cfg["lam_range"], "lam_range"),
                       cfg["lam_samples"])
    rep = verify_index_theorem(
        fam, lams, tau=cfg["tau"], N=cfg["N"],
        stability=cfg["stability"], track_sigma=cfg["track_sigma"],
        rtol=cfg["rtol"], atol=cfg["atol"])
    result = {
        "parity": rep.lhs,
        "z2_index": rep.rhs,
        "agree": rep.agree,
        "lam_flips": list(rep.parity.flips),
        "index_crossings": list(rep.index.crossings),
        "stable_tau_doubling": rep.parity.stable_tau,
        "stable_N_doubling": rep.parity.stable_N,
        "endpoint_margins": list(rep.parity.endpoint_margins),
        "tau": rep.parity.tau,
        "N": rep.parity.N,
        "hypotheses": _hypotheses_payload(rep.hypotheses),
    }
    sigma = rep.parity.sigma_mins
    if sigma is None:
        sigma = np.full(len(lams), np.nan)
    rows = list(zip(lams.tolist(),
                    rep.parity.det_signs.tolist(),
                    sigma.tolist()))
    _write_outputs(out_dir, "verify-theorem", cfg, result,
                   csv_header=("lambda", "detsign", "sigma_min"),
                   csv_rows=rows, elapsed=time.perf_counter() - t0)
    print(f"verify-theorem: parity={rep.lhs} z2_index={rep.rhs} "
          f"agree={rep.agree} flips={list(rep.parity.flips)}")
    return 0


def cmd_bifurcate(cfg: dict, out_dir: Path) -> int:
    if cfg["kind"] != "nonlinear-family":
        raise ConfigError("bifurcate expects kind nonlinear-family")
    t0 = time.perf_counter()
    nf = NonlinearFamily.from_sources(
        cfg["g"], cfg["z_minus"], cfg["z_plus"],
        t_max=cfg["t_max"], lam_range=tuple(cfg["lam_range"]))
    branch = Branch.from_sources(cfg["branch"])
    verdict = detect_bifurcation(
        nf, branch, samples=cfg["lam_samples"],
        eps_trans=cfg["eps_trans"], rtol=cfg["rtol"], atol=cfg["atol"],
        branch_tol=cfg["branch_tol"])
    result = {
        "bifurcates": verdict.bifurcates,
        "index": verdict.index,
        "note": verdict.note,
        "lam_candidates": list(verdict.lam_candidates),
        "lam_range": list(verdict.lam_range),
        "hypotheses": _hypotheses_payload(verdict.hypotheses),
    }
    rows = list(zip(verdict.index_report.grid.tolist(),
                    verdict.index_report.det_trace.tolist()))
    _write_outputs(out_dir, "bifurcate", cfg, result,
                   csv_header=("t", "det"), csv_rows=rows,
                   elapsed=time.perf_counter() - t0)
    print(f"bifurcate: index={verdict.index} note={verdict.note} "
          f"candidates={list(verdict.lam_candidates)}")
    return 0


def cmd_maslov(cfg: dict, out_dir: Path) -> int:
    if cfg["kind"] != "lagrangian-paths":
        raise ConfigError("maslov expects kind lagrangian-paths")
    t0 = time.perf_counter()
    vs = _lagrangian_graph_sampler(cfg["A"], "A")
    ws = _lagrangian_graph_sampler(cfg["B"], "B")
    rep = mod2_compare(vs, ws, interval=tuple(cfg["interval"]),
                       samples=cfg["samples"],
                       eps_trans=cfg["eps_trans"],
                       cross_tol=cfg["cross_tol"])
    result = {
        "maslov": rep.maslov,
        "z2_index": rep.z2,
        "agree_mod2": rep.agree,
        "crossings": [
            {"instant": d.instant, "signature": d.signature,
             "kernel_dim": int(d.kernel.shape[1])}
            for d in rep.crossings
        ],
    }
    rows = list(zip(rep.index_report.grid.tolist(),
                    rep.index_report.det_trace.tolist()))
    _write_outputs(out_dir, "maslov", cfg, result,
                   csv_header=("t", "det"), csv_rows=rows,
                   elapsed=time.perf_counter() - t0)
    print(f"maslov: maslov={rep.maslov} z2={rep.z2} agree={rep.agree}")
    return 0


_COMMANDS = {
    "index": cmd_index,
    "geometric-parity": cmd_geometric_parity,
    "verify-theorem": cmd_verify_theorem,
    "bifurcate": cmd_bifurcate,
    "maslov": cmd_maslov,
}


# -- demos -------------------------------------------------------------

_PI = 3.141592653589793

DEMOS = {
    "rotating-line": {
        "command": "index",
        "description": "a line rotating past a fixed complement; "
                       "index 1, det trace cos(t)",
        "config": {
            "kind": "subspace-paths",
            "V": [["cos(t)"], ["sin(t)"]],
            "W": [["0"], ["1"]],
            "interval": [0.0, _PI],
            "samples": 101,
        },
    },
    "mobius": {
        "command": "index",
        "description": "the rotating line closed to a loop; the "
                       "induced bundle is nonorientable",
        "config": {
            "kind": "subspace-paths",
            "V": [["cos(t)"], ["sin(t)"]],
            "W": [["0"], ["1"]],
            "interval": [0.0, _PI],
            "samples": 101,
            "orientability": True,
        },
    },
    "poschl-teller": {
        "command": "verify-theorem",
        "description": "q(lambda,t) = 1 - 2.5 lambda sech^2 t; parity "
                       "and index both 1, flip at lambda = 0.8",
        "config": {
            "kind": "linear-family",
            "n": 2,
            "k": 1,
            "S": [["0", "1"], ["1 - 2.5*lambda*sech(t)^2", "0"]],
            "tau": 15.0,
            "N": 3000,
            "lam_samples": 201,
        },
    },
    "positive-potential": {
        "command": "verify-theorem",
        "description": "q(lambda,t) = 1 + lambda sech^2 t; no bound "
                       "state ever forms, both sides 0",
        "config": {
            "kind": "linear-family",
            "n": 2,
            "k": 1,
            "S": [["0", "1"], ["1 + lambda*sech(t)^2", "0"]],
            "tau": 10.0,
            "N": 1000,
            "lam_samples": 51,
        },
    },
    "constant-hyperbolic": {
        "command": "verify-theorem",
        "description": "S = diag(-1, 1) for every lambda and t; "
                       "everything is 0",
        "config": {
            "kind": "linear-family",
            "n": 2,
            "k": 1,
            "S": [["-1", "0"], ["0", "1"]],
            "tau": 6.0,
            "N": 200,
            "lam_samples": 21,
        },
    },
    "cubic-schrodinger": {
        "command": "bifurcate",
        "description": "z'' = (1 - 2.5 lambda sech^2 t) z + z^3 around "
                       "the zero branch; bifurcates at lambda = 0.8",
        "config": {
            "kind": "nonlinear-family",
            "g": ["z2", "(1 - 2.5*lambda*sech(t)^2)*z1 + z1^3"],
            "branch": ["0", "0"],
            "z_minus": [0.0, 0.0],
            "z_plus": [0.0, 0.0],
            "lam_range": [0.0, 1.0],
            "lam_samples": 201,
        },
    },
    "cubic-schrodinger-halfrange": {
        "command": "bifurcate",
        "description": "the cubic family on lambda in [0, 0.5]; no "
                       "crossing below 0.8, verdict inconclusive",
        "config": {
            "kind": "nonlinear-family",
            "g": ["z2", "(1 - 2.5*lambda*sech(t)^2)*z1 + z1^3"],
            "branch": ["0", "0"],
            "z_minus": [0.0, 0.0],
            "z_plus": [0.0, 0.0],
            "lam_range": [0.0, 0.5],
            "lam_samples": 201,
        },
    },
    "maslov-crossing": {
        "command": "maslov",
        "description": "graphs of t and -t crossing once at the "
                       "origin; Maslov -1, index 1",
        "config": {
            "kind": "lagrangian-paths",
            "A": [["t"]],
            "B": [["-t"]],
            "interval": [-1.0, 1.0],
            "samples": 201,
        },
    },
}


def cmd_demo(name: str | None, out_dir: Path | None,
             list_only: bool = False) -> int:
    if list_only or name is None:
        for key in sorted(DEMOS):
            print(f"{key}: {DEMOS[key]['description']}")
        return 0
    if name not in DEMOS:
        raise ConfigError(
            f"unknown demo '{name}'; available: " + ", ".join(sorted(DEMOS)))
    entry = DEMOS[name]
    cfg = resolve_config(entry["config"], origin=f"demo:{name}")
    target = (out_dir or Path("hetindex-out")) / name
    log.info("running demo %s (%s)", name, entry["command"])
    return _COMMANDS[entry["command"]](cfg, target)


def cmd_selftest(seed: int, out_dir: Path | None) -> int:
    results = run_all(seed=seed)
    for res in results:
        print(res.summary())
        for case, msg in res.failures[:5]:
            print(f"  case {case}: {msg}")
    if out_dir is not None:
        payload = {
            "seed": seed,
            "suites": [
                {"name": r.name, "total": r.total, "passes": r.passes,
                 "failures": [list(f) for f in r.failures]}
                for r in results
            ],
        }
        _write_outputs(out_dir, "selftest", {"kind": "selftest"}, payload)
    return 0 if all(r.ok for r in results) else 1


# -- argument parsing and dispatch -------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetindex",
        description="Z2-index, geometric parity, operator parity, and "
                    "bifurcation detection for linear ODE families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True,
                           help="path to a JSON config file")
        p.add_argument("--out", default=None,
                       help="output directory (default hetindex-out)")

    for name in ("index", "geometric-parity", "verify-theorem",
                 "bifurcate", "maslov"):
        p = sub.add_parser(name)
        add_common(p)

    p = sub.add_parser("demo", help="run a bundled example")
    p.add_argument("name", nargs="?", default=None,
                   help="demo name; omit to list")
    p.add_argument("--list", action="store_true", dest="list_demos")
    add_common(p, config_required=False)

    p = sub.add_parser("selftest", help="run the property suites")
    add_common(p, config_required=False)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized suites (default 0)")
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("HETINDEX_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            out = Path(args.out) if args.out else None
            return cmd_selftest(args.seed, out)
        if args.command == "demo":
            out = Path(args.out) if args.out else None
            return cmd_demo(args.name, out, list_only=args.list_demos)
        cfg = load_config(args.config)
        out = Path(args.out) if args.out else Path(
            cfg.get("out") or "hetindex-out")
        return _COMMANDS[args.command](cfg, out)
    except (InvalidInput, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Degeneracy as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except HetindexError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        log.exception("unhandled error")
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
