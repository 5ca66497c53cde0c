"""Fuzz the CLI: no input makes it raise, every exit code is documented.

Hypothesis drives ``cli.main`` through ``generate``, ``metric``,
``autocorr``, ``diffract``, ``appd`` and ``palm`` with schema-valid configs
and point files whose header, row and config numbers include NaN and inf.
Each run must return 0, 2, 3 or 4 (1 is ``verify``'s alone) without an
exception escaping. Sizes stay small so the module runs in seconds: windows
at most 40 (12 in 2D), intensities at most 2, k-grids at most 2,000 nodes
and at most ~500 appd candidates. Examples are derandomized, so a run is
reproducible.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import apkit as ak
from apkit.cli import main

EXIT_CODES = {0, 2, 3, 4}
NAN, INF = math.nan, math.inf

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


#: whether an example may hold odd numbers; the other examples are clean,
#: so they reach the success paths too
DIRTY = st.shared(st.booleans(), key="dirty")


def num(lo: float, hi: float, odd=(NAN, INF)):
    """A float in [lo, hi]; in a dirty example, possibly an odd value."""
    return DIRTY.flatmap(lambda dirty: st.one_of(
        st.floats(lo, hi), st.sampled_from(odd)) if dirty
        else st.floats(lo, hi))


def odd_draw(draw) -> bool:
    """True for some draws of a dirty example, never in a clean one."""
    return draw(DIRTY) and draw(st.booleans())


def lists(elements, max_size: int = 3):
    return st.lists(elements, min_size=1, max_size=max_size)


def radii(hi: float):
    return lists(num(0.5, hi), 4)


def vector(dim: int, lo: float, hi: float):
    return st.lists(num(lo, hi, (NAN, INF, -INF)), min_size=dim, max_size=dim)


def window_cap(dim: int) -> float:
    return 40.0 if dim == 1 else 12.0


@st.composite
def point_file(draw, dim: int) -> tuple[str, float]:
    """A point-set CSV (a shifted square lattice in a ball, fuzzed header)
    and the largest radius worth asking of it."""
    spacing = draw(st.floats(0.5 if dim == 1 else 0.7, 2.0))
    extent = draw(st.floats(0.0, window_cap(dim) - 5.0))
    k = int(extent / spacing)
    axis = (np.arange(-k, k + 1) + draw(st.floats(-0.5, 0.5))) * spacing
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"),
                   axis=-1).reshape(-1, dim)
    pts = pts[np.sqrt(np.sum(pts ** 2, axis=1)) <= extent]
    rows = [",".join(repr(float(v)) for v in p) for p in pts]
    if odd_draw(draw):
        rows.append(",".join([repr(draw(st.sampled_from([NAN, INF])))] * dim))
    r = spacing * draw(num(0.05, 1.2, (NAN, INF, 0.0, -1.0)))
    window = extent + draw(num(-1.0, 5.0, (NAN, INF, -INF)))
    text = "\n".join([f"# dim={dim}", f"# r={r!r}", f"# window={window!r}",
                      *rows]) + "\n"
    return text, max(window, 0.5) if window < INF else window_cap(dim)


def basis(dim: int):
    if dim == 1:
        return st.tuples(num(0.5, 2.0)).map(lambda b: [list(b)])
    return st.tuples(num(0.7, 2.0), num(-0.5, 0.5), num(-0.5, 0.5),
                     num(0.7, 2.0)).map(lambda v: [[v[0], v[1]], [v[2], v[3]]])


@st.composite
def cut_project(draw) -> dict:
    doc = ak.fibonacci_config(1.0).to_json()
    doc["output_radius"] = draw(num(0.0, 40.0))
    doc["torus_offset"] = draw(vector(2, -1.0, 1.0))
    if draw(st.booleans()):
        doc["window"]["hi"] = draw(vector(1, 0.2, 1.5))
    if draw(st.booleans()):
        doc["deformation"] = {"kind": "sinusoidal",
                              "amplitude": draw(vector(1, -0.3, 0.3)),
                              "frequency": draw(vector(1, -1.0, 1.0)),
                              "phase": draw(num(-3.0, 3.0))}
    return doc


@st.composite
def sampler(draw) -> dict:
    kind = draw(st.sampled_from(["randomized_lattice", "randomized_model_set",
                                 "matern_II", "perturbed_lattice"]))
    dim = 1 if kind == "randomized_model_set" else draw(st.sampled_from([1, 2]))
    doc = {"kind": kind, "seed": draw(st.integers(0, 10 ** 6)),
           "window_radius": draw(num(0.5, window_cap(dim)))}
    if kind == "randomized_model_set":
        doc["cut_project"] = draw(cut_project())
    elif kind == "matern_II":
        doc.update(intensity=draw(num(0.0, 2.0)),
                   hardcore=draw(num(0.05, 2.0)), dim=dim)
    else:
        doc["basis"] = draw(basis(dim))
        if kind == "perturbed_lattice":
            doc["noise_bound"] = draw(num(0.0, 0.6))
    return doc


def region(dim: int):
    ball = st.builds(lambda c, r: {"kind": "ball", "center": c, "radius": r},
                     vector(dim, -3.0, 3.0), num(0.0, 3.0))
    box = st.builds(lambda lo, hi: {"kind": "box", "lo": lo, "hi": hi},
                    vector(dim, -3.0, 0.0), vector(dim, 0.0, 3.0))
    return st.one_of(ball, box)


def optional(**fields):
    """A dict holding a subset of the given key -> strategy entries."""
    return st.fixed_dictionaries({}, optional=fields)


def run_cli(argv: list[str], files: dict[str, str], config: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [paths.get(a, a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main([*argv, "--config", cfg,
                         "--out", os.path.join(tmp, "out")])


@FUZZ
@given(st.data())
def test_fuzz_generate(data):
    source = data.draw(st.sampled_from(
        ["fibonacci", "lattice-z", "lattice", "cut_project", "sampler"]))
    argv, config = ["generate"], {}
    if source in ("fibonacci", "lattice-z"):
        argv += ["--preset", source, "--radius",
                 repr(data.draw(num(0.0, 40.0, (NAN, INF, -1.0))))]
        if source == "fibonacci":
            config = data.draw(optional(torus_offset=vector(2, -1.0, 1.0)))
    elif source == "lattice":
        dim = data.draw(st.sampled_from([1, 2]))
        config = {"lattice": {"basis": data.draw(basis(dim)),
                              "window_radius": data.draw(
                                  num(0.5, window_cap(dim)))}}
    elif source == "cut_project":
        config = {"cut_project": data.draw(cut_project())}
    else:
        config = {"sampler": data.draw(sampler())}
        argv += ["--index", str(data.draw(st.integers(0, 5)))]
    assert run_cli(argv, {}, config) in EXIT_CODES


@FUZZ
@given(st.data())
def test_fuzz_metric(data):
    dim = data.draw(st.sampled_from([1, 2]))
    dim2 = 3 - dim if odd_draw(data.draw) else dim
    (a, reach), (b, _) = data.draw(point_file(dim)), data.draw(point_file(dim2))
    files = {"a.csv": a, "b.csv": b}
    which = data.draw(st.sampled_from(["d", "dbar", "dbarc", "dbarf",
                                       "dtilde"]))
    fn = st.fixed_dictionaries(
        {"shape": st.sampled_from(["triangle_bump", "cosine_bump"]),
         "support_radius": num(0.01, 0.5)},
        optional={"amplitude": num(-2.0, 2.0), "center": vector(dim, -1, 1)})
    keys = dict(radii=radii(reach), tol=num(0.001, 0.7), R=num(0.5, 20.0),
                quad_points=st.integers(1, 16 if which == "dbarc" else 256),
                schedule_fractions=lists(num(0.1, 1.0), 4), f=fn,
                match_tol=num(1e-12, 0.5))
    needed = {"d": [], "dbar": ["radii"], "dbarc": ["R"],
              "dbarf": ["radii", "f"], "dtilde": ["radii"]}[which]
    required = {k: keys.pop(k) for k in needed}
    config = data.draw(st.fixed_dictionaries(required, optional=keys))
    argv = ["metric", "a.csv", "b.csv", "--which", which]
    assert run_cli(argv, files, config) in EXIT_CODES


@FUZZ
@given(st.data())
def test_fuzz_autocorr(data):
    text, reach = data.draw(st.sampled_from([1, 2]).flatmap(point_file))
    config = data.draw(st.fixed_dictionaries(
        {"radii": radii(reach)},
        optional={"bin_tol": num(1e-4, 1.0), "diff_cutoff": num(0.1, 20.0),
                  "significance": num(0.0, 1.0), "track_rtol": num(0.01, 1.0),
                  "debias": st.booleans()}))
    assert run_cli(["autocorr", "a.csv"], {"a.csv": text}, config) in EXIT_CODES


@st.composite
def k_grid(draw, dim: int) -> dict:
    """k_lo, k_hi, k_step with at most 2,000 nodes when all are finite."""
    per_axis = 2000 if dim == 1 else 44
    step = draw(num(1e-3, 0.5))
    nodes = draw(st.integers(1, per_axis))
    lo = draw(vector(dim, -2.0, 2.0))
    span = (nodes - 1) * step if math.isfinite(step) else 1.0
    hi = [v + span for v in lo]
    if odd_draw(draw):
        hi[0] = draw(st.sampled_from([NAN, INF, lo[0] - 1.0]))
    return {"k_lo": lo, "k_hi": hi, "k_step": step}


@FUZZ
@given(st.data())
def test_fuzz_diffract(data):
    dim = data.draw(st.sampled_from([1, 2]))
    text, reach = data.draw(point_file(dim))
    config = {"radii": data.draw(radii(reach)), **data.draw(k_grid(dim))}
    config.update(data.draw(optional(
        normalization=st.sampled_from(["per-volume", "atom-mass"]),
        threshold=num(1e-4, 1.0), stability_bound=num(0.01, 1.0),
        criteria=st.fixed_dictionaries(
            {"eps": num(0.01, 0.5), "ball_radius": num(0.01, 1.0),
             "search_radius": num(0.5, 8.0)},
            optional={"gap_bound": num(0.1, 20.0),
                      "bin_tol": num(1e-3, 0.5)}))))
    assert run_cli(["diffract", "a.csv"], {"a.csv": text},
                   config) in EXIT_CODES


@FUZZ
@given(st.data())
def test_fuzz_appd(data):
    dim = data.draw(st.sampled_from([1, 2]))
    text, reach = data.draw(point_file(dim))
    config = {"eps": data.draw(num(0.01, 0.5)),
              "radii": data.draw(radii(reach))}
    grid = data.draw(st.sampled_from(["candidates", "pitch", "spacing"]))
    if grid == "candidates":
        lengths = st.integers(1, 3) if odd_draw(data.draw) else st.just(dim)
        config["candidates"] = data.draw(lists(lengths.flatmap(
            lambda n: vector(n, -5.0, 5.0)), 20))
    elif grid == "pitch":
        pitch = data.draw(num(0.2, 2.0))
        config.update(pitch=pitch, span=pitch * data.draw(num(0.0, 10.0)))
    config.update(data.draw(optional(search_radius=num(0.5, 8.0),
                                     gap_bound=num(0.1, 20.0))))
    assert run_cli(["appd", "a.csv"], {"a.csv": text}, config) in EXIT_CODES


@FUZZ
@given(st.data())
def test_fuzz_palm(data):
    samp = data.draw(sampler())
    dim = 2 if samp.get("dim") == 2 or len(samp.get("basis", [[0]])) == 2 \
        else 1
    config = {"sampler": samp, "region": data.draw(region(dim))}
    if data.draw(st.booleans()):
        config["acpalm"] = data.draw(st.fixed_dictionaries(
            {"radii": radii(window_cap(dim))},
            optional={"n_seeds": st.integers(1, 3),
                      "n_palm_samples": st.integers(1, 8)}))
    else:
        config.update(data.draw(optional(base=region(dim),
                                         n_samples=st.integers(1, 8))))
    argv = ["palm"]
    if data.draw(st.booleans()):
        argv += ["--seed", str(data.draw(st.integers(0, 100)))]
    assert run_cli(argv, {}, config) in EXIT_CODES
