"""Batch command-line front-end.

Pipeline: generate point sets, compare them, estimate pair correlations,
scan diffraction, detect almost periods, estimate Palm intensities, and run
the verification corpus. Commands are idempotent: identical config and seed
produce bit-identical artifacts. stdout carries the result document only;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import jsonschema
import numpy as np

from . import schemas
from .autocorr import (
    autocorrelation_limit,
    debias_ball_edge,
    finite_autocorrelation,
    write_measure_csv,
)
from .diffraction import (
    KGrid,
    _MAX_GRID_NODES,
    criterion_almost_periods,
    criterion_atom_concentration,
    criterion_gamma_concentration,
    default_gap_bound,
    detect_bragg_peaks,
    periodogram,
    write_periodogram_csv,
)
from .errors import ApkitError, ConfigError, InvalidArgument
from .generators import (
    CutProjectConfig,
    ProcessSampler,
    cut_and_project,
    fibonacci_config,
    make_lattice,
    palm_intensity,
    sample,
    verify_acpalm,
)
from .pointset import (
    PointSet,
    RegionSpec,
    atomic_write_text,
    mean_nn_spacing,
    metric_d,
    read_pointset_csv,
    write_pointset_csv,
)
from .pseudometrics import dbar, dbar_c, dbar_f, dtilde
from .testfunc import TestFunction
from .util import jsonable, schedule
from .verify import run_checks


def _dump(doc: dict) -> str:
    return json.dumps(jsonable(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _emit(doc: dict, out_dir: str, filename: str) -> None:
    text = _dump(doc)
    atomic_write_text(os.path.join(out_dir, filename), text)
    sys.stdout.write(text)


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        cfg: dict = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, schemas.COMMAND_SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc
    return cfg


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def _read_points(path: str) -> PointSet:
    try:
        return read_pointset_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read point set {path}: {exc}") from exc


def _given(doc: dict, *keys: str) -> dict:
    """The keys that doc sets, as keyword arguments.

    Every other parameter keeps the default of the library signature, so
    the CLI restates none of them.
    """
    return {k: doc[k] for k in keys if doc.get(k) is not None}


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, "generate")
    cfg.update(_given(vars(args), "preset", "radius", "index"))
    preset, radius = cfg.get("preset"), cfg.get("radius")
    sources = [preset is not None, "lattice" in cfg, "cut_project" in cfg,
               "sampler" in cfg]
    if sum(sources) != 1:
        raise ConfigError(
            "need exactly one of --preset/'preset', 'lattice', "
            "'cut_project', 'sampler'")
    seed_used = None
    if preset == "fibonacci":
        if radius is None:
            raise ConfigError("preset fibonacci needs --radius")
        from .generators import _deformation_from_json
        deform = _deformation_from_json(cfg.get("deformation"))
        cp = fibonacci_config(radius, **_given(cfg, "torus_offset"),
                              deformation=deform)
        S = cut_and_project(cp)
        kind = "fibonacci"
    elif preset == "lattice-z":
        if radius is None:
            raise ConfigError("preset lattice-z needs --radius")
        S = make_lattice([[1.0]], radius)
        kind = "lattice-z"
    elif preset is not None:
        raise ConfigError(f"unknown preset {preset!r}")
    elif "lattice" in cfg:
        S = make_lattice(cfg["lattice"]["basis"],
                         cfg["lattice"]["window_radius"])
        kind = "lattice"
    elif "cut_project" in cfg:
        S = cut_and_project(CutProjectConfig.from_json(cfg["cut_project"]))
        kind = "cut_and_project"
    else:
        p = ProcessSampler.from_json(cfg["sampler"])
        if args.seed is not None:
            p = replace(p, seed=args.seed)
        seed_used = p.seed
        S = sample(p, **_given(cfg, "index"))
        kind = p.kind
    write_pointset_csv(S, os.path.join(args.out, "points.csv"))
    meta = {
        "command": "generate",
        "kind": kind,
        "seed": seed_used,
        "n_points": len(S),
        "dim": S.dim,
        "window_radius": S.window_radius,
        "measured_hardcore_radius": S.hardcore_radius,
    }
    _emit(meta, args.out, "generate.json")
    return 0


# ---------------------------------------------------------------------------
# metric


def cmd_metric(args) -> int:
    cfg = _load_config(args.config, "metric")
    S1 = _read_points(args.file1)
    S2 = _read_points(args.file2)
    which = args.which

    def need(key: str):
        if key not in cfg:
            raise ConfigError(f"metric '{which}' needs config key '{key}'")
        return cfg[key]

    if which == "d":
        doc = {"which": "d", "value": metric_d(S1, S2, **_given(cfg, "tol"))}
    elif which == "dbar":
        value = dbar(S1, S2, need("radii"), **_given(cfg, "tol"))
        doc = {"which": "dbar", "value": value,
               "radii": cfg["radii"]}
    elif which == "dbarc":
        rep = dbar_c(S1, S2, need("R"), **_given(
            cfg, "quad_points", "tol", "schedule_fractions"))
        doc = {"which": "dbarc", **rep.to_json()}
    elif which == "dbarf":
        f = TestFunction.from_json(need("f"))
        rep = dbar_f(S1, S2, f, need("radii"), **_given(cfg, "quad_points"))
        doc = {"which": "dbarf", **rep.to_json()}
    else:
        value = dtilde(S1, S2, need("radii"), **_given(cfg, "match_tol"))
        doc = {"which": "dtilde", "value": value}
    _emit(doc, args.out, "metric.json")
    return 0


# ---------------------------------------------------------------------------
# autocorr


def cmd_autocorr(args) -> int:
    cfg = _load_config(args.config, "autocorr")
    S = _read_points(args.file)
    radii = schedule(cfg["radii"])
    binning = _given(cfg, "bin_tol", "diff_cutoff")
    if len(radii) == 1:
        gamma = finite_autocorrelation(S, float(radii[0]), **binning)
        converged = None
    else:
        est = autocorrelation_limit(S, radii, **binning, **_given(
            cfg, "significance", "track_rtol"))
        gamma = est.measure
        converged = est.converged
    summary = {"command": "autocorr", "radii": radii.tolist(),
               "converged": converged}
    if cfg.get("debias"):
        gamma = debias_ball_edge(gamma, float(radii[-1]))
    write_measure_csv(gamma, os.path.join(args.out, "autocorr.csv"))
    summary.update({
        "n_atoms": len(gamma),
        "total_mass": gamma.total_mass(),
        "mass_at_zero": gamma.mass_at_zero() if len(gamma) else 0.0,
        "bin_tol": gamma.bin_tol,
    })
    _emit(summary, args.out, "autocorr.json")
    return 0


# ---------------------------------------------------------------------------
# diffract


def cmd_diffract(args) -> int:
    cfg = _load_config(args.config, "diffract")
    S = _read_points(args.file)
    radii = schedule(cfg["radii"])
    R = float(radii[-1])
    grid = KGrid(cfg["k_lo"], cfg["k_hi"], cfg["k_step"])
    pg = periodogram(S, R, grid, **_given(cfg, "normalization"))
    peaks = detect_bragg_peaks(S, radii, grid, **_given(
        cfg, "threshold", "stability_bound"))
    peaks_doc = [p.to_json() for p in peaks]
    summary = {"command": "diffract", "R": R, "n_points": len(S),
               "n_peaks": len(peaks), "peaks": peaks_doc}
    crit = cfg.get("criteria")
    if crit is not None:
        est = autocorrelation_limit(
            S, radii, **_given(crit, "bin_tol"),
            diff_cutoff=crit["search_radius"] + 1.0)
        est = replace(est, measure=debias_ball_edge(est.measure, R))
        gb = crit.get("gap_bound")
        if gb is None:
            gb = default_gap_bound(S, crit["eps"])
        c3 = criterion_gamma_concentration(
            est, crit["ball_radius"], crit["eps"], crit["search_radius"],
            gap_bound=gb)
        atom = criterion_atom_concentration(
            est, crit["eps"], crit["search_radius"], gap_bound=gb)
        summary["criteria"] = {c.criterion_id: c.to_json()
                               for c in (c3, atom)}
    # written last, so a run that fails leaves no partial output
    write_periodogram_csv(pg, os.path.join(args.out, "periodogram.csv"))
    atomic_write_text(os.path.join(args.out, "peaks.json"),
                      _dump({"peaks": peaks_doc}))
    _emit(summary, args.out, "diffract.json")
    return 0


# ---------------------------------------------------------------------------
# appd


def cmd_appd(args) -> int:
    cfg = _load_config(args.config, "appd")
    S = _read_points(args.file)
    eps = cfg["eps"]
    radii = cfg["radii"]
    if "candidates" in cfg:
        cand = cfg["candidates"]
    else:
        pitch = cfg["pitch"] if "pitch" in cfg else mean_nn_spacing(S)
        span = cfg.get("span", cfg.get("search_radius", 10.0 * pitch))
        if not (0 < pitch < math.inf and 0 < span < math.inf):
            raise InvalidArgument("pitch and span must be positive and finite")
        if 2.0 * span / pitch + 1.0 > _MAX_GRID_NODES ** (1.0 / S.dim):
            raise InvalidArgument(
                f"a candidate grid of pitch {pitch:g} and span {span:g} has "
                f"more than {_MAX_GRID_NODES:.0e} nodes")
        axis = np.arange(-span, span + pitch / 2.0, pitch)
        if S.dim == 1:
            cand = axis.reshape(-1, 1)
        else:
            cand = np.stack(np.meshgrid(*([axis] * S.dim), indexing="ij"),
                            axis=-1).reshape(-1, S.dim)
            cand = cand[np.sqrt(np.sum(cand ** 2, axis=1)) <= span]
    gb = cfg.get("gap_bound")
    if gb is None:
        gb = default_gap_bound(S, eps)
    rep = criterion_almost_periods(S, eps, cand, radii, gap_bound=gb,
                                   **_given(cfg, "search_radius"))
    _emit({"command": "appd", **rep.to_json()}, args.out, "appd.json")
    return 0


# ---------------------------------------------------------------------------
# palm


def cmd_palm(args) -> int:
    cfg = _load_config(args.config, "palm")
    p = ProcessSampler.from_json(cfg["sampler"])
    if args.seed is not None:
        p = replace(p, seed=args.seed)
    A = RegionSpec.from_json(cfg["region"])
    if "acpalm" in cfg:
        ac = cfg["acpalm"]
        rep = verify_acpalm(p, A, ac["radii"], **_given(
            ac, "n_seeds", "n_palm_samples"))
        doc = {"command": "palm", "mode": "acpalm", **rep}
    else:
        B = (RegionSpec.from_json(cfg["base"]) if "base" in cfg else None)
        est = palm_intensity(p, A, B, **_given(cfg, "n_samples"))
        doc = {"command": "palm", "mode": "intensity", **est.to_json()}
    _emit(doc, args.out, "palm.json")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    _load_config(args.config, "verify")
    summary = run_checks(only=args.only, **_given(vars(args), "seed"))
    _emit(summary, args.out, "verify.json")
    return 0 if summary["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config document")
    common.add_argument("--seed", type=int, help="sampler seed override")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--only", help="verify: run a single tagged check")

    top = argparse.ArgumentParser(
        prog="apkit",
        description="aperiodic point-set analysis toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common],
                       help="write a point-set CSV with provenance")
    g.add_argument("--preset", help="fibonacci or lattice-z")
    g.add_argument("--radius", type=float, help="output window radius")
    g.add_argument("--index", type=int, help="sample index for samplers")
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("metric", parents=[common],
                       help="compare two point-set files")
    m.add_argument("file1")
    m.add_argument("file2")
    m.add_argument("--which", required=True,
                   choices=["d", "dbar", "dbarc", "dbarf", "dtilde"])
    m.set_defaults(func=cmd_metric)

    a = sub.add_parser("autocorr", parents=[common],
                       help="finite-radius pair-correlation measure")
    a.add_argument("file")
    a.set_defaults(func=cmd_autocorr)

    d = sub.add_parser("diffract", parents=[common],
                       help="periodogram scan and peak detection")
    d.add_argument("file")
    d.set_defaults(func=cmd_diffract)

    ap = sub.add_parser("appd", parents=[common],
                        help="almost-period detector")
    ap.add_argument("file")
    ap.set_defaults(func=cmd_appd)

    p = sub.add_parser("palm", parents=[common],
                       help="Palm intensity estimation")
    p.set_defaults(func=cmd_palm)

    v = sub.add_parser("verify", parents=[common],
                       help="run the verification corpus")
    v.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _make_out_dir(args.out)
        return args.func(args)
    except ApkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
