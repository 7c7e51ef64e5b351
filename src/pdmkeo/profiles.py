"""Smooth positive mass profiles with closed-form inverse-mass derivatives.

The kinetic assembly needs 1/m and its first two spatial derivatives
analytically; finite-difference derivatives would contaminate the O(h^2)
convergence oracles. A profile is checked where it is sampled, on the
points of each grid it meets (`discretize`), not when it is built.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np


@dataclass(frozen=True, eq=False)
class MassProfile:
    """Mass m(x) given through inv_m = 1/m and two derivatives. Building one
    checks nothing: each assembly checks the samples it takes."""

    name: str
    inv_m: Callable[[np.ndarray], np.ndarray]
    d_inv_m: Callable[[np.ndarray], np.ndarray]
    dd_inv_m: Callable[[np.ndarray], np.ndarray]
    parameters: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))


def _params(**kwargs) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in kwargs.items()}


def constant(m0=1) -> MassProfile:
    """m(x) = m0."""
    p = _params(m0=m0)
    m0f = float(p["m0"])
    if m0f <= 0:
        raise ValueError("m0 must be positive")
    u0 = 1.0 / m0f
    return MassProfile(
        name="constant",
        inv_m=lambda x: u0 * np.ones_like(np.asarray(x, dtype=float)),
        d_inv_m=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        dd_inv_m=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        parameters=p,
    )


def lorentzian(m0=1, lam=1) -> MassProfile:
    """m(x) = m0 / (1 + lam x^2); inverse mass is the polynomial (1 + lam x^2)/m0."""
    p = _params(m0=m0, lam=lam)
    m0f, lamf = float(p["m0"]), float(p["lam"])
    if m0f <= 0 or lamf < 0:
        raise ValueError("need m0 > 0 and lam >= 0")
    return MassProfile(
        name="lorentzian",
        inv_m=lambda x: (1.0 + lamf * np.asarray(x, dtype=float) ** 2) / m0f,
        d_inv_m=lambda x: 2.0 * lamf * np.asarray(x, dtype=float) / m0f,
        dd_inv_m=lambda x: 2.0 * lamf / m0f * np.ones_like(np.asarray(x, dtype=float)),
        parameters=p,
    )


def _reciprocal_derivatives(m0f, f, f1, f2):
    """Derivatives of 1/(m0 f(x)) from f and its two derivatives."""

    def inv_m(x):
        return 1.0 / (m0f * f(x))

    def d_inv_m(x):
        return -f1(x) / (m0f * f(x) ** 2)

    def dd_inv_m(x):
        fx = f(x)
        return (2.0 * f1(x) ** 2 - fx * f2(x)) / (m0f * fx**3)

    return inv_m, d_inv_m, dd_inv_m


def gaussian_bump(m0=1, lam=1, sigma=1) -> MassProfile:
    """m(x) = m0 (1 + lam exp(-x^2/sigma^2)); a localized mass enhancement."""
    p = _params(m0=m0, lam=lam, sigma=sigma)
    m0f, lamf, sig = float(p["m0"]), float(p["lam"]), float(p["sigma"])
    if m0f <= 0 or sig <= 0 or lamf <= -1:
        raise ValueError("need m0 > 0, sigma > 0 and lam > -1")

    def g(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2 / sig**2)

    def f(x):
        return 1.0 + lamf * g(x)

    def f1(x):
        x = np.asarray(x, dtype=float)
        return lamf * g(x) * (-2.0 * x / sig**2)

    def f2(x):
        x = np.asarray(x, dtype=float)
        return lamf * g(x) * (4.0 * x**2 / sig**4 - 2.0 / sig**2)

    inv_m, d_inv_m, dd_inv_m = _reciprocal_derivatives(m0f, f, f1, f2)
    return MassProfile("gaussian_bump", inv_m, d_inv_m, dd_inv_m, p)


def smoothed_step(m0=1, lam="1/2", sigma=1) -> MassProfile:
    """m(x) = m0 (1 + lam tanh(x/sigma)); a smooth interface, |lam| < 1."""
    p = _params(m0=m0, lam=lam, sigma=sigma)
    m0f, lamf, sig = float(p["m0"]), float(p["lam"]), float(p["sigma"])
    if m0f <= 0 or sig <= 0 or abs(lamf) >= 1:
        raise ValueError("need m0 > 0, sigma > 0 and |lam| < 1")

    def t(x):
        return np.tanh(np.asarray(x, dtype=float) / sig)

    def f(x):
        return 1.0 + lamf * t(x)

    def f1(x):
        return lamf * (1.0 - t(x) ** 2) / sig

    def f2(x):
        tx = t(x)
        return -2.0 * lamf * tx * (1.0 - tx**2) / sig**2

    inv_m, d_inv_m, dd_inv_m = _reciprocal_derivatives(m0f, f, f1, f2)
    return MassProfile("smoothed_step", inv_m, d_inv_m, dd_inv_m, p)


def cosine_bump(m0=1, lam=1, half_width=1) -> MassProfile:
    """m(x) = m0 / (1 + lam cos^2(pi x / (2 half_width))).

    The inverse-mass slope vanishes exactly at x = +-half_width, so on
    that interval boundary rows carry no first-order truncation mismatch;
    the profile of choice for clean convergence-order sweeps.
    """
    p = _params(m0=m0, lam=lam, half_width=half_width)
    m0f, lamf, lf = float(p["m0"]), float(p["lam"]), float(p["half_width"])
    if m0f <= 0 or lf <= 0 or lamf <= -1:
        raise ValueError("need m0 > 0, half_width > 0 and lam > -1")
    w = np.pi / (2.0 * lf)

    def inv_m(x):
        return (1.0 + lamf * np.cos(w * np.asarray(x, dtype=float)) ** 2) / m0f

    def d_inv_m(x):
        return -lamf * w * np.sin(2.0 * w * np.asarray(x, dtype=float)) / m0f

    def dd_inv_m(x):
        return -2.0 * lamf * w**2 * np.cos(2.0 * w * np.asarray(x, dtype=float)) / m0f

    return MassProfile("cosine_bump", inv_m, d_inv_m, dd_inv_m, p)


PROFILES = {
    "constant": constant,
    "lorentzian": lorentzian,
    "gaussian_bump": gaussian_bump,
    "smoothed_step": smoothed_step,
    "cosine_bump": cosine_bump,
}


@functools.cache
def _parameter_names(builder: Callable) -> tuple[str, ...]:
    return tuple(inspect.signature(builder).parameters)


def _from_spec_text(spec: str, kind: str, builders: Mapping[str, Callable]):
    """Call builders[name] for 'name' or 'name:key=value,...' text, each
    value an exact rational that a float can hold. Malformed text, an
    unknown name, an unknown parameter or one given twice raises ValueError."""
    name, _, arg_text = spec.partition(":")
    name = name.strip()
    if name not in builders:
        raise ValueError(f"unknown {kind} {name!r}; known: {', '.join(builders)}")
    known = _parameter_names(builders[name])
    kwargs = {}
    if arg_text.strip():
        for item in arg_text.split(","):
            key, _, value = (part.strip() for part in item.partition("="))
            if key not in known:
                raise ValueError(
                    f"{kind} {name} has no parameter {key!r}; known: {', '.join(known) or 'none'}"
                )
            if key in kwargs:
                raise ValueError(f"{kind} {name} parameter {key!r} is given twice")
            try:
                kwargs[key] = Fraction(value)
                float(kwargs[key])  # the builders evaluate in floats
            except (ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(
                    f"malformed {kind} parameter {item!r}: need key=value with a finite rational value"
                ) from None
    return builders[name](**kwargs)


def make_profile(spec: str) -> MassProfile:
    """Build a profile from 'name' or 'name:key=value,key=value' text."""
    return _from_spec_text(spec, "profile", PROFILES)
