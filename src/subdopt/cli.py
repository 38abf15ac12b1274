"""Command-line surface: select, simulate, bootstrap, timing, hull, replay.

This module is where outside input is checked.  `main` parses argv,
loads the config JSON of a `--config` command, and runs every command the
same way: `_run` creates `--out`, runs the command and writes a manifest
next to the outputs (tool version, the argv as given, the config JSON,
rng seeds, input checksum, wall-clock timings, output checksums).
Config JSON is type-checked against the annotations of the object it
feeds.  Reports never contain wall-clock times, so `replay`, which
re-parses the recorded argv and reuses the recorded config, reproduces
them byte for byte; timings live in the manifest only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import sys
import time
import types
import typing
import warnings
from pathlib import Path

import numpy as np

from . import __version__, metrics, seeding, simulate
from .ingest import IngestError, IngestSpec, _resolve, ingest, sha256
from .metrics import SingularMomentError
from .simulate import ConfigError, ExperimentConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------- helpers

def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _col(value):
    """Column reference: integer index if it parses, else a name."""
    try:
        return int(value)
    except ValueError:
        return value


def _ingest_spec_from_args(args):
    return IngestSpec(
        path=args.input,
        delimiter=args.delimiter,
        header=not args.no_header,
        response=_col(args.response) if args.response is not None else None,
        covariates=[_col(c) for c in args.covariates.split(",")]
        if args.covariates is not None else None,
        skip_rows=args.skip_rows,
        log_columns=[_col(c) for c in args.log_columns.split(",")]
        if args.log_columns is not None else [],
    )


def _record_row(r, cfg):
    row = {"method": r.method, "repetition": r.repetition, "seed": r.seed,
           "k": cfg.k, "K": cfg.K, "iterations": cfg.alg1_iterations,
           "outliers_selected": r.outliers_selected, "error": r.error}
    for part in (r.mse, r.eff):
        if part is not None:
            row.update(dataclasses.asdict(part))
    return row


_CSV_FIELDS = ["method", "repetition", "seed", "k", "K", "iterations",
               "mse_intercept", "mse_slopes", "gen_variance", "d_eff",
               "a_eff", "log_det_q", "outliers_selected", "error"]


def _write_report(report, outdir):
    """Write report.json and report.csv and print the aggregates."""
    rows = [_record_row(r, report.config) for r in report.records]
    agg = report.aggregates()
    _write_json(outdir / "report.json", {"records": rows, "aggregates": agg})
    with open(outdir / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"{'method':<8} {'mse_slopes':>12} {'mse_b0':>10} "
          f"{'d_eff':>8} {'a_eff':>8} {'gen_var':>12}")
    for method, a in agg.items():
        if a.get("failed"):
            print(f"{method:<8} (all repetitions failed)")
            continue
        print(f"{method:<8} {a['mse_slopes']['mean']:>12.5g} "
              f"{a['mse_intercept']['mean']:>10.5g} "
              f"{a['d_eff']['mean']:>8.4f} {a['a_eff']['mean']:>8.4f} "
              f"{a['gen_variance']['mean']:>12.5g}")
    return ["report.json", "report.csv"]


# ---------------------------------------------------------------- select

def _cmd_select(args, config, outdir):
    start = time.perf_counter()
    ds = ingest(_ingest_spec_from_args(args))
    timings = {"ingest_s": time.perf_counter() - start,
               "ingest_chunks": ds.chunks}
    start = time.perf_counter()
    x_scaled, _ = seeding.scale_to_unit_cube(ds.x)
    timings["scale_s"] = time.perf_counter() - start
    n, p = ds.x.shape
    cfg = ExperimentConfig(n, p, args.k, args.K,
                           alg1_iterations=args.iterations,
                           methods=(args.method,), rng_seed=args.seed,
                           seed_method=args.seed_method).validate()
    sel, trace, stages = simulate.select(x_scaled, cfg, args.method)
    timings.update(stages, select_seconds=sum(stages.values()))
    start = time.perf_counter()
    eff = metrics.efficiency(x_scaled, sel)
    timings["efficiency_s"] = time.perf_counter() - start

    (outdir / "indices.txt").write_text(
        "".join(f"{i}\n" for i in sel.indices))
    report = {
        "method": args.method,
        "n": n,
        "p": p,
        "k": args.k,
        "K": args.K,
        "rejected_rows": ds.n_rejected,
        "efficiency": dataclasses.asdict(eff),
    }
    if trace is not None:
        report["exchange"] = {
            "initial_log_v": trace.initial_log_v,
            "final_log_v": trace.final_log_v,
            "accepted_swaps": trace.accepted_swaps,
            "iteration_accepts": trace.iteration_accepts,
        }
    _write_json(outdir / "report.json", report)
    print(f"selected {len(sel)} rows -> {outdir / 'indices.txt'}")
    print(f"d_eff={eff.d_eff:.4f} a_eff={eff.a_eff:.4f} "
          f"gen_variance={eff.gen_variance:.5g}")
    return [args.seed], ds.checksum, timings, ["indices.txt", "report.json"]


# ------------------------------------------------- simulate, bootstrap, timing

def _load_json(path):
    def reject(name):   # NaN and Infinity are not JSON
        raise ConfigError(f"{path} is not valid JSON: {name}")
    try:   # ValueError: a NUL in the path, or text that is not UTF-8
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: JSON root must be an object")
    return raw


_JSON = {bool: "a boolean", int: "an integer", float: "a number",
         str: "a string", type(None): "null", list: "a list",
         tuple: "a list", np.ndarray: "a list of numbers"}


def _load(value, hint, name):
    """The JSON `value` of config field `name`, checked against `hint`.

    `int` and `float` take no booleans; `list`, `tuple` and `np.ndarray`
    (of numbers) take a list, `list[X]` checks its entries, a dataclass
    is built from an object, and `X | None` also takes null.
    """
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) \
        else (hint,)
    for kind in kinds:
        base = typing.get_origin(kind) or kind
        if dataclasses.is_dataclass(base) and isinstance(value, dict):
            return base(**_fields(value, base, f"{name}."))
        if base in (list, tuple, np.ndarray) and isinstance(value, list):
            item = float if base is np.ndarray else \
                (typing.get_args(kind) or (None,))[0]
            items = [v if item is None else _load(v, item, f"{name}[{i}]")
                     for i, v in enumerate(value)]
            return tuple(items) if base is tuple else items
        if isinstance(value, (int, float) if base is float else base) \
                and (base is bool or not isinstance(value, bool)):
            return value
    wanted = [_JSON.get(typing.get_origin(k) or k, "an object") for k in kinds]
    raise ConfigError(f"config field {name} must be {' or '.join(wanted)}, "
                      f"got {value!r}")


def _fields(raw, target, prefix="", skip=()):
    """The arguments of `target` that the JSON object `raw` sets, loaded.

    Names, defaults and types come from target's signature: a parameter
    without a default is required and any other key is an error.  `prefix`
    is the dotted path of `raw`; `skip` names parameters a config may not
    set.
    """
    hints = typing.get_type_hints(target)
    params = {name: par.default for name, par
              in inspect.signature(target).parameters.items()
              if name not in skip}
    unknown = set(raw) - set(params)
    if unknown:
        raise ConfigError(f"unknown config field(s): "
                          f"{sorted(prefix + u for u in unknown)}")
    missing = [prefix + name for name, default in params.items()
               if default is inspect.Parameter.empty and name not in raw]
    if missing:
        raise ConfigError(f"missing config field(s): {missing}")
    return {name: _load(raw[name], hints[name], prefix + name)
            if name in raw else default for name, default in params.items()}


def _cmd_simulate(args, config, outdir):
    cfg = ExperimentConfig(**_fields(config, ExperimentConfig))
    report = simulate.run_experiment(cfg)
    return list(cfg.seeds), None, {}, _write_report(report, outdir)


def _cmd_bootstrap(args, config, outdir):
    kw = dict(config)
    spec = _load(kw.pop("input", None), IngestSpec, "input")
    kw = _fields(kw, simulate.bootstrap_mse, skip=("x", "y"))
    ds = ingest(spec)
    if ds.y is None:
        raise ConfigError("bootstrap requires a response column")
    report = simulate.bootstrap_mse(ds.x, ds.y, **kw)
    return (list(report.config.seeds), ds.checksum, {},
            _write_report(report, outdir))


def _cmd_timing(args, config, outdir):
    kw = _fields(config, simulate.timing_study)
    cells = simulate.timing_study(**kw)
    # Gains are seed-deterministic and belong in the report; wall-clock
    # means are environment-dependent and go to the manifest.
    _write_json(outdir / "report.json", {
        "cells": [{"k": c.k, "K": c.K, "iterations": c.iterations,
                   "mean_pct_v_gain": c.mean_pct_v_gain} for c in cells]})
    timings = {"cells": [{"k": c.k, "K": c.K, "iterations": c.iterations,
                          "mean_seconds": c.mean_seconds} for c in cells]}
    print(f"{'k':>4} {'K':>4} {'iters':>6} {'mean_s':>10} {'V gain %':>10}")
    for c in cells:
        print(f"{c.k:>4} {c.K:>4} {c.iterations:>6} "
              f"{c.mean_seconds:>10.4f} {c.mean_pct_v_gain:>10.2f}")
    # every cell runs on the same repetitions, so on the first cell's seeds
    first = ExperimentConfig(kw["n"], kw["p"], kw["ks"][0], kw["Ks"][0],
                             repetitions=kw["repetitions"],
                             rng_seed=kw["rng_seed"])
    return list(first.seeds), None, timings, ["report.json"]


# ------------------------------------------------------------------ hull

def _svg_hulls(full_hull, sub_hull, full_pts):
    """Minimal standalone vector drawing of the two hull polygons."""
    lo = full_pts.min(axis=0)
    hi = full_pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def map_pts(pts):
        q = (pts - lo) / span
        return [(20 + 460 * qx, 480 - 460 * qy) for qx, qy in q]

    def poly(pts, color, fill):
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in map_pts(pts))
        return (f'<polygon points="{coords}" fill="{fill}" '
                f'stroke="{color}" stroke-width="1.5"/>')

    body = [poly(full_hull, "#555555", "#dddddd"),
            poly(sub_hull, "#cc2222", "none")]
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            'width="500" height="500">\n' + "\n".join(body) + "\n</svg>\n")


def _parse_pair(text, columns):
    out = [_resolve(_col(part.strip()), columns, "pair")
           for part in text.split(",")]
    if len(out) != 2 or out[0] == out[1]:
        raise ConfigError(f"pair {text!r} must be 'colA,colB' with two "
                          f"different columns")
    return out


def _cmd_hull(args, config, outdir):
    ds = ingest(_ingest_spec_from_args(args))
    try:
        with warnings.catch_warnings():
            # an empty file warns; the check below reports it
            warnings.simplefilter("ignore", UserWarning)
            sel_idx = np.loadtxt(args.selection, dtype=np.intp, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read selection {args.selection}: "
                          f"{exc}") from None
    if sel_idx.ndim != 1 or not sel_idx.size or sel_idx.min() < 0 \
            or sel_idx.max() >= ds.x.shape[0]:
        raise ConfigError(f"{args.selection} must list row indices of the "
                          f"input, one per line")
    pairs = [_parse_pair(pr, ds.columns) for pr in args.pairs]
    results = []
    outputs = ["hulls.json"]
    for a, b in pairs:
        full_pts = ds.x[:, [a, b]]
        sub_pts = ds.x[sel_idx][:, [a, b]]
        full_hull, full_area = metrics.hull_2d(full_pts)
        sub_hull, sub_area = metrics.hull_2d(sub_pts)
        results.append({
            "columns": [ds.columns[a], ds.columns[b]],
            "full_hull": full_hull.tolist(),
            "subdata_hull": sub_hull.tolist(),
            "full_area": full_area,
            "subdata_area": sub_area,
            "area_ratio": sub_area / full_area if full_area > 0 else None,
        })
        if args.svg:
            name = f"hull_{a}_{b}.svg"
            (outdir / name).write_text(
                _svg_hulls(full_hull, sub_hull, full_pts))
            outputs.append(name)
    _write_json(outdir / "hulls.json", {"pairs": results})
    for r in results:
        print(f"{r['columns'][0]} vs {r['columns'][1]}: "
              f"full area {r['full_area']:.5g}, "
              f"subdata area {r['subdata_area']:.5g}")
    return [], ds.checksum, {}, outputs


# ------------------------------------------------------- runner and replay

# Each command takes (args, config JSON or None, outdir) and returns what
# its manifest records: (rng seeds, input checksum or None, timings,
# outputs).
_COMMANDS = {"select": _cmd_select, "simulate": _cmd_simulate,
             "bootstrap": _cmd_bootstrap, "timing": _cmd_timing,
             "hull": _cmd_hull}


def _outdir(path):
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return Path(path)


def _run(args, argv, config):
    """Run the parsed command `args` on `config`, the JSON object of a
    `--config` command (else None), and write its manifest into args.out;
    `timings["total_seconds"]` covers the command and its outputs."""
    start = time.perf_counter()
    outdir = _outdir(args.out)
    seeds, checksum, timings, outputs = \
        _COMMANDS[args.command](args, config, outdir)
    timings["total_seconds"] = time.perf_counter() - start
    _write_json(outdir / "manifest.json", {
        "tool": "subdopt",
        "version": __version__,
        "command": args.command,
        "argv": argv,
        "config": config,
        "rng_seeds": seeds,
        "input_checksum": checksum,
        "timings": timings,
        "outputs": {name: sha256(outdir / name) for name in outputs},
    })
    return EXIT_OK


def replay(manifest_path, out):
    """Re-run the command recorded in a manifest into a new directory.

    The recorded argv is parsed again with `--out` replaced by `out`; a
    `--config` command runs on the recorded config, not on the file its
    argv names, so `out` gets only the command's outputs and manifest.
    Same inputs and seeds produce byte-identical reports; compare the
    output checksums in the two manifests to verify a run.
    """
    manifest = _load_json(manifest_path)
    argv = manifest.get("argv")
    if argv is None:
        raise ConfigError(f"{manifest_path} records no argv; it was written "
                          f"by an older subdopt, so re-run its command")
    if not (isinstance(argv, list) and argv
            and all(isinstance(a, str) for a in argv)
            and argv[0] in _COMMANDS):
        raise ConfigError(f"{manifest_path}: argv must be a list of strings "
                          f"starting with one of {sorted(_COMMANDS)}, "
                          f"got {argv!r}")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        raise ConfigError(f"{manifest_path}: the recorded argv does not "
                          f"parse") from None
    args.out = out
    config = None
    if "config" in args:
        config = manifest.get("config")
        if not isinstance(config, dict):
            raise ConfigError(f"{manifest_path}: config must be a JSON "
                              f"object, got {config!r}")
    return _run(args, argv, config)


# ------------------------------------------------------------------ main

def _add_ingest_args(sub):
    sub.add_argument("--input", required=True, help="delimited data file")
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--no-header", action="store_true",
                     help="file has no header row")
    sub.add_argument("--response", default=None,
                     help="response column name or index")
    sub.add_argument("--covariates", default=None,
                     help="comma-separated covariate columns")
    sub.add_argument("--skip-rows", type=int, default=0)
    sub.add_argument("--log-columns", default=None,
                     help="comma-separated columns to log-transform")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subdopt",
        description="D-optimal subdata selection for big-data regression")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sel = subs.add_parser("select", help="select a subdata index set")
    _add_ingest_args(sel)
    sel.add_argument("--method", required=True,
                     choices=list(simulate.METHODS))
    sel.add_argument("--k", type=int, required=True)
    sel.add_argument("--K", type=int, default=20)
    sel.add_argument("--iterations", type=int, default=5)
    sel.add_argument("--seed", type=int, default=0)
    sel.add_argument("--seed-method", default="oss",
                     choices=list(simulate.SEED_METHODS))
    sel.add_argument("--out", required=True)

    for name, help_text in (
            ("simulate", "run the simulation protocol"),
            ("bootstrap", "bootstrap MSE on a dataset"),
            ("timing", "exchange timing/iteration grid")):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="JSON config file")
        sub.add_argument("--out", required=True)

    hull = subs.add_parser("hull", help="convex-hull diagnostics")
    _add_ingest_args(hull)
    hull.add_argument("--selection", required=True,
                      help="indices file, one row index per line")
    hull.add_argument("--pairs", nargs="+", required=True,
                      help="column pairs like '9,3'")
    hull.add_argument("--svg", action="store_true",
                      help="also emit vector drawings")
    hull.add_argument("--out", required=True)

    rep = subs.add_parser("replay", help="re-run a manifest's command")
    rep.add_argument("manifest", help="manifest.json of an earlier run")
    rep.add_argument("out", help="output directory for the re-run")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return replay(args.manifest, args.out)
        return _run(args, argv, _load_json(args.config)
                    if "config" in args else None)
    except (IngestError, ConfigError, seeding.ColumnRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (SingularMomentError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
