"""JSON Schemas for CLI config documents.

Every subcommand validates its config against one of these before doing any
work; unknown keys are rejected so typos fail loudly instead of being
silently ignored.
"""

from __future__ import annotations

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_NUM_ARRAY = {"type": "array", "items": _NUM, "minItems": 1}
_POS_INT = {"type": "integer", "minimum": 1}
_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "items": _NUM, "minItems": 1}}
_RADII = {"type": "array", "items": _POS, "minItems": 1}

REGION = {
    "oneOf": [
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "ball"}, "center": _NUM_ARRAY,
                        "radius": _NONNEG},
         "required": ["kind", "center", "radius"]},
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "box"}, "lo": _NUM_ARRAY,
                        "hi": _NUM_ARRAY},
         "required": ["kind", "lo", "hi"]},
    ]
}

DEFORMATION = {
    "oneOf": [
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "zero"}},
         "required": ["kind"]},
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "sinusoidal"},
                        "amplitude": _NUM_ARRAY, "frequency": _NUM_ARRAY,
                        "phase": _NUM},
         "required": ["kind", "amplitude", "frequency"]},
    ]
}

CUT_PROJECT = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "E_basis": _MATRIX,
        "F_basis": _MATRIX,
        "window": REGION,
        "output_radius": _NONNEG,
        "deformation": DEFORMATION,
        "torus_offset": _NUM_ARRAY,
    },
    "required": ["n", "E_basis", "F_basis", "window", "output_radius"],
}

SAMPLER = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["randomized_lattice", "randomized_model_set",
                          "matern_II", "perturbed_lattice"]},
        "seed": {"type": "integer", "minimum": 0},
        "window_radius": _POS,
        "cut_project": CUT_PROJECT,
        "basis": _MATRIX,
        "intensity": _NONNEG,
        "hardcore": _POS,
        "noise_bound": _NONNEG,
        "dim": _POS_INT,
    },
    "required": ["kind", "seed", "window_radius"],
}

TEST_FUNCTION = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "shape": {"enum": ["triangle_bump", "cosine_bump"]},
        "support_radius": _POS,
        "amplitude": _NUM,
        "center": _NUM_ARRAY,
    },
    "required": ["shape", "support_radius"],
}

GENERATE = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "preset": {"enum": ["fibonacci", "lattice-z"]},
        "radius": _POS,
        "deformation": DEFORMATION,
        "torus_offset": _NUM_ARRAY,
        "lattice": {
            "type": "object", "additionalProperties": False,
            "properties": {"basis": _MATRIX, "window_radius": _POS},
            "required": ["basis", "window_radius"],
        },
        "cut_project": CUT_PROJECT,
        "sampler": SAMPLER,
        "index": {"type": "integer", "minimum": 0},
    },
}

METRIC = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "radii": _RADII,
        "tol": _POS,
        "R": _POS,
        "quad_points": _POS_INT,
        "schedule_fractions": {"type": "array", "items": _POS, "minItems": 1},
        "f": TEST_FUNCTION,
        "match_tol": _POS,
    },
}

AUTOCORR = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "radii": _RADII,
        "bin_tol": _POS,
        "diff_cutoff": _POS,
        "significance": _NONNEG,
        "track_rtol": _POS,
        "debias": {"type": "boolean"},
    },
    "required": ["radii"],
}

DIFFRACT = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "radii": _RADII,
        "k_lo": _NUM_ARRAY,
        "k_hi": _NUM_ARRAY,
        "k_step": _POS,
        "normalization": {"enum": ["per-volume", "atom-mass"]},
        "threshold": _POS,
        "stability_bound": _POS,
        "criteria": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "eps": _POS,
                "ball_radius": _POS,
                "search_radius": _POS,
                "gap_bound": _POS,
                "bin_tol": _POS,
            },
            "required": ["eps", "ball_radius", "search_radius"],
        },
    },
    "required": ["radii", "k_lo", "k_hi", "k_step"],
}

APPD = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "eps": _POS,
        "radii": _RADII,
        "candidates": {"type": "array", "items": _NUM_ARRAY, "minItems": 1},
        "pitch": _POS,
        "span": _POS,
        "search_radius": _POS,
        "gap_bound": _POS,
    },
    "required": ["eps", "radii"],
}

PALM = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "sampler": SAMPLER,
        "region": REGION,
        "base": REGION,
        "n_samples": _POS_INT,
        "acpalm": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "radii": _RADII,
                "n_seeds": _POS_INT,
                "n_palm_samples": _POS_INT,
            },
            "required": ["radii"],
        },
    },
    "required": ["sampler", "region"],
}

VERIFY = {"type": "object", "additionalProperties": False, "properties": {}}

COMMAND_SCHEMAS = {
    "generate": GENERATE,
    "metric": METRIC,
    "autocorr": AUTOCORR,
    "diffract": DIFFRACT,
    "appd": APPD,
    "palm": PALM,
    "verify": VERIFY,
}
