"""Experiment configuration: one JSON document, validated field by field.

Unknown keys are rejected everywhere so typos fail loudly instead of
silently running a different experiment.  The same document drives
``run``, ``tune`` (which additionally needs ``grid``/``baseline``),
and ``baseline-g``.  Every refusal is a ``ConfigurationError`` naming
the dotted path of the field, e.g. ``problem.n must be an integer >= 1,
got 4.0``.
"""

from __future__ import annotations

import json
import math
import operator

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

# A rule is a function ``check(path, value)`` that raises a
# ConfigurationError naming ``path`` when ``value`` breaks it.


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _integer(floor: int):
    """A JSON integer (not a float, not a bool) >= ``floor``."""
    def check(path, value):
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            raise ConfigurationError(f"{path} must be an integer >= {floor}, got {value!r}")
    return check


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def _finite(value: int | float) -> bool:
    """Finite as a float: a JSON integer past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(gt=None, ge=None, lt=None):
    """A finite JSON number (not a bool) within the given bounds."""
    bounds = [(op, bound) for op, bound in ((">", gt), (">=", ge), ("<", lt)) if bound is not None]
    rule = " and ".join(f"{op} {bound}" for op, bound in bounds)
    def check(path, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{path} must be a number, got {value!r}")
        if not _finite(value):
            raise ConfigurationError(f"{path} must be finite, got {value!r}")
        if not all(_COMPARE[op](value, bound) for op, bound in bounds):
            raise ConfigurationError(f"{path} must be {rule}, got {value!r}")
    return check


def _enum(*choices: str):
    def check(path, value):
        if not isinstance(value, str) or value not in choices:
            raise ConfigurationError(
                f"{path} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    return check


def _string(path, value):
    if not isinstance(value, str):
        raise ConfigurationError(f"{path} must be a string, got {value!r}")


def _list(item):
    """A non-empty JSON array whose every element passes ``item``."""
    def check(path, value):
        if not isinstance(value, list) or not value:
            raise ConfigurationError(f"{path} must be a non-empty list, got {value!r}")
        for i, element in enumerate(value):
            item(f"{path}[{i}]", element)
    return check


def _expect_object(path, value):
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path or 'the config'} must be an object, got {value!r}")


def _object(required: dict, optional: dict | None = None):
    """A JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``, each value checked by its rule."""
    rules = {**required, **(optional or {})}
    def check(path, value):
        _expect_object(path, value)
        for key in required:
            if key not in value:
                raise ConfigurationError(f"{_join(path, key)} is required")
        for key, field in value.items():
            if key not in rules:
                raise ConfigurationError(
                    f"unknown field {_join(path, key)} (allowed: {', '.join(rules)})")
            rules[key](_join(path, key), field)
    return check


def _by_kind(variants: dict):
    """An object whose required ``kind`` picks the (required, optional)
    fields it takes."""
    kind_rule = _enum(*variants)
    objects = {kind: _object({"kind": kind_rule, **required}, optional)
               for kind, (required, optional) in variants.items()}
    def check(path, value):
        _expect_object(path, value)
        if "kind" not in value:
            raise ConfigurationError(f"{_join(path, 'kind')} is required")
        kind_rule(_join(path, "kind"), value["kind"])
        objects[value["kind"]](path, value)
    return check


_POSITIVE = _number(gt=0)
_NON_NEGATIVE = _number(ge=0)
_SEED = _integer(0)
_EXPONENTS = _list(_number())

_CONFIG = _object({
    "problem": _by_kind({
        "quadratic": ({"n": _integer(1), "lam_min": _POSITIVE, "lam_max": _POSITIVE,
                       "seed": _SEED}, None),
        "logistic": ({"n_samples": _integer(1), "dim": _integer(1), "seed": _SEED},
                     {"l2": _NON_NEGATIVE}),
        "rosenbrock": ({"n": _integer(2)}, {"box_halfwidth": _POSITIVE}),
        "quartic": ({"n": _integer(1), "lam_min": _POSITIVE, "lam_max": _POSITIVE,
                     "seed": _SEED},
                    {"quartic": _POSITIVE, "radius": _POSITIVE, "start_offset": _POSITIVE}),
        "quadratic_csv": ({"path": _string}, None),
        "logistic_csv": ({"path": _string}, {"l2": _NON_NEGATIVE}),
    }),
    "algorithm": _enum("trish", "trish1", "sg"),
    "iterations": _integer(0),
    "seeds": _list(_SEED),
    "stepsizes": _by_kind({
        "constant": ({"alpha": _POSITIVE}, None),
        "diminishing": ({"a": _POSITIVE, "b": _POSITIVE}, None),
    }),
}, {
    "gammas": _by_kind({
        "constant": ({"gamma1": _POSITIVE, "gamma2": _POSITIVE}, None),
        "merging": ({"gamma1": _POSITIVE, "eta": _NON_NEGATIVE}, None),
    }),
    "solver": _object({"kind": _enum("steihaug", "exact")},
                      {"max_iters": _integer(1), "tol": _POSITIVE}),
    "noise": _object({"kind": _enum("none", "bounded", "stepwise", "geometric")}, {
        "m_g": _NON_NEGATIVE,
        "zeta": _number(gt=0, lt=1),
        "hessian": _object({"kind": _enum("zero", "exact-capped", "perturbed")},
                           {"m_h": _POSITIVE, "scale": _NON_NEGATIVE}),
    }),
    "batch_size": _integer(1),
    "x0": _list(_number()),
    "output_dir": _string,
    "grid": _object({"lambda_exponents": _EXPONENTS, "a_exponents": _EXPONENTS,
                     "b_exponents": _EXPONENTS}),
    "baseline": _object({"iterations": _integer(1), "seed": _SEED}),
})


def validate_config(doc: dict) -> dict:
    _CONFIG("", doc)
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
    when given; ``trish1`` and ``sg`` run its ``without_hessian()``.
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
