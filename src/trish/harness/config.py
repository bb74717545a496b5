"""Experiment configuration: one JSON document, schema-validated.

Unknown keys are rejected everywhere so typos fail loudly instead of
silently running a different experiment.  The same document drives
``run``, ``tune`` (which additionally needs ``grid``/``baseline``),
and ``baseline-g``.
"""

from __future__ import annotations

import json

import jsonschema
import numpy as np

from ..core import ConfigurationError, NoiseModel
from ..problems import (
    MiniBatchSampler,
    RosenbrockProblem,
    load_logistic_csv,
    load_quadratic_csv,
    make_logistic,
    make_quadratic,
    make_quartic_bowl,
)

_NOISE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["none", "bounded", "stepwise", "geometric"]},
        "m_g": {"type": "number", "minimum": 0},
        "zeta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "hessian": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "exact-capped", "perturbed"]},
                "m_h": {"type": "number", "exclusiveMinimum": 0},
                "scale": {"type": "number", "minimum": 0},
            },
            "required": ["kind"],
        },
    },
    "required": ["kind"],
}

_PROBLEM_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "quadratic"},
                "n": {"type": "integer", "minimum": 1},
                "lam_min": {"type": "number", "exclusiveMinimum": 0},
                "lam_max": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer"},
            },
            "required": ["kind", "n", "lam_min", "lam_max", "seed"],
        },
        {
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "logistic"},
                "n_samples": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 1},
                "l2": {"type": "number", "minimum": 0},
                "seed": {"type": "integer"},
            },
            "required": ["kind", "n_samples", "dim", "seed"],
        },
        {
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "rosenbrock"},
                "n": {"type": "integer", "minimum": 2},
                "box_halfwidth": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "n"],
        },
        {
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "quartic"},
                "n": {"type": "integer", "minimum": 1},
                "lam_min": {"type": "number", "exclusiveMinimum": 0},
                "lam_max": {"type": "number", "exclusiveMinimum": 0},
                "quartic": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "start_offset": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer"},
            },
            "required": ["kind", "n", "lam_min", "lam_max", "seed"],
        },
        {
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "quadratic_csv"},
                "path": {"type": "string"},
            },
            "required": ["kind", "path"],
        },
        {
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "logistic_csv"},
                "path": {"type": "string"},
                "l2": {"type": "number", "minimum": 0},
            },
            "required": ["kind", "path"],
        },
    ],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "problem": _PROBLEM_SCHEMA,
        "algorithm": {"enum": ["trish", "trish1", "sg"]},
        "iterations": {"type": "integer", "minimum": 0},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "stepsizes": {
            "type": "object",
            "oneOf": [
                {
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"const": "constant"},
                        "alpha": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["kind", "alpha"],
                },
                {
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"const": "diminishing"},
                        "a": {"type": "number", "exclusiveMinimum": 0},
                        "b": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["kind", "a", "b"],
                },
            ],
        },
        "gammas": {
            "type": "object",
            "oneOf": [
                {
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"const": "constant"},
                        "gamma1": {"type": "number", "exclusiveMinimum": 0},
                        "gamma2": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "required": ["kind", "gamma1", "gamma2"],
                },
                {
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"const": "merging"},
                        "gamma1": {"type": "number", "exclusiveMinimum": 0},
                        "eta": {"type": "number", "minimum": 0},
                    },
                    "required": ["kind", "gamma1", "eta"],
                },
            ],
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["steihaug", "exact"]},
                "max_iters": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind"],
        },
        "noise": _NOISE_SCHEMA,
        "batch_size": {"type": "integer", "minimum": 1},
        "x0": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "output_dir": {"type": "string"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda_exponents": {"type": "array", "items": {"type": "number"},
                                     "minItems": 1},
                "a_exponents": {"type": "array", "items": {"type": "number"},
                                "minItems": 1},
                "b_exponents": {"type": "array", "items": {"type": "number"},
                                "minItems": 1},
            },
            "required": ["lambda_exponents", "a_exponents", "b_exponents"],
        },
        "baseline": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "iterations": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
            "required": ["iterations", "seed"],
        },
    },
    "required": ["problem", "algorithm", "iterations", "seeds", "stepsizes"],
}


def validate_config(doc: dict) -> dict:
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigurationError(f"invalid config: {exc.message}") from exc
    if doc["algorithm"] in ("trish", "trish1") and "gammas" not in doc:
        raise ConfigurationError("trish/trish1 configs require 'gammas'")
    if "batch_size" in doc:
        if doc["problem"]["kind"] not in ("logistic", "logistic_csv"):
            raise ConfigurationError("batch_size only applies to logistic problems")
        _check_minibatch_noise(doc.get("noise", {}))
    return doc


def _check_minibatch_noise(noise: dict) -> None:
    """A ``batch_size`` doc's sampler draws both estimates from its batch
    rows, so its ``noise`` section may only cap the batch Hessian."""
    fields = {f"noise.{key}": value for key, value in noise.items() if key != "hessian"}
    fields.update({f"noise.hessian.{key}": v for key, v in noise.get("hessian", {}).items()})
    allowed = {"noise.kind": "none", "noise.hessian.kind": "exact-capped"}
    for name, value in fields.items():
        if name != "noise.hessian.m_h" and allowed.get(name) != value:
            hint = "; use algorithm 'trish1' for steps without curvature" if value == "zero" else ""
            raise ConfigurationError(
                f"{name} = {value!r} does not apply with batch_size: the mini-batch sampler draws "
                f"both estimates, and noise may only cap its Hessian (noise.hessian.m_h){hint}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(doc)


def build_problem(spec: dict):
    kind = spec["kind"]
    if kind == "quadratic":
        return make_quadratic(spec["n"], spec["lam_min"], spec["lam_max"], spec["seed"])
    if kind == "logistic":
        return make_logistic(spec["n_samples"], spec["dim"], spec.get("l2", 0.0),
                             spec["seed"])
    if kind == "rosenbrock":
        return RosenbrockProblem(spec["n"], spec.get("box_halfwidth", 2.0))
    if kind == "quartic":
        return make_quartic_bowl(spec["n"], spec["lam_min"], spec["lam_max"],
                                 spec.get("quartic", 1.0), spec.get("radius", 5.0),
                                 spec["seed"])
    if kind == "quadratic_csv":
        return load_quadratic_csv(spec["path"])
    return load_logistic_csv(spec["path"], spec.get("l2", 0.0))


def default_x0(problem, spec: dict) -> np.ndarray:
    """Problem-appropriate default start when the config omits ``x0``."""
    if spec["kind"] == "quartic":
        offset = spec.get("start_offset", 1.0)
        rng = np.random.default_rng(spec["seed"] + 17)
        u = rng.standard_normal(problem.dim)
        u /= np.linalg.norm(u)
        return problem.x_star + offset * u
    return np.zeros(problem.dim)


def build_x0(problem, doc: dict) -> np.ndarray:
    if "x0" in doc:
        x0 = np.asarray(doc["x0"], dtype=float)
        if x0.shape != (problem.dim,):
            raise ConfigurationError(
                f"x0 has length {x0.size}, problem dimension is {problem.dim}")
        return x0
    return default_x0(problem, doc["problem"])


def build_noise(spec: dict | None) -> NoiseModel:
    if spec is None:
        return NoiseModel()
    hessian = spec.get("hessian", {"kind": "zero"})
    return NoiseModel(
        kind=spec["kind"],
        m_g=spec.get("m_g", 0.0),
        zeta=spec.get("zeta", 0.5),
        hessian_kind=hessian["kind"],
        m_h=hessian.get("m_h", 0.0),
        perturbation=hessian.get("scale", 0.0),
    )


def build_sampler(problem, doc: dict) -> MiniBatchSampler | None:
    """Mini-batch sampler for logistic configs with ``batch_size``; else None.

    Its same-batch Hessian estimate is capped at ``noise.hessian.m_h``
    when given; ``trish1`` and ``sg`` turn it off (``_zero_hessian``).
    """
    if "batch_size" not in doc:
        return None
    m_h = doc.get("noise", {}).get("hessian", {}).get("m_h")
    return MiniBatchSampler(problem, doc["batch_size"], hessian=True, m_h=m_h)


def build_inputs(doc: dict) -> tuple:
    """The problem, x0 and estimate source every seed of ``doc`` shares:
    its mini-batch sampler (``batch_size``), else its noise model."""
    problem = build_problem(doc["problem"])
    sampler = build_sampler(problem, doc)
    noise = build_noise(doc.get("noise")) if sampler is None else sampler
    return problem, build_x0(problem, doc), noise
