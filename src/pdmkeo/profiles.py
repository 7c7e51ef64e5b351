"""Smooth positive mass profiles with closed-form inverse-mass derivatives.

The kinetic assembly needs 1/m and its first two spatial derivatives
analytically; finite-difference derivatives would contaminate the O(h^2)
convergence oracles. A profile gives all three through one callable, its
jet: `jet(x)` returns the samples (1/m, (1/m)', (1/m)'') at the points x,
each an array shaped like x, from one evaluation. For 1/m = x - 3/2:

    MassProfile("shifted", lambda x: (x - 1.5, np.ones_like(x), np.zeros_like(x)))

A profile is checked where it is sampled, on the points of each grid it
meets (`discretize`), not when it is built. A builder refuses only a
parameter that a float cannot carry: one from which the jet would compute
a constant that overflows, or that is zero where the jet divides by it.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np


@dataclass(frozen=True, eq=False)
class MassProfile:
    """Mass m(x) given through its jet x -> (1/m, (1/m)', (1/m)''). Building
    one checks nothing: each assembly checks the samples it takes."""

    name: str
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    parameters: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters))


def _params(**kwargs) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in kwargs.items()}


def _powers(parameter: str, value: float, label: str, base: float, *exponents: int,
            divisor: bool = True) -> list[float]:
    """base**k for each k, constants that a jet computes from `parameter`.
    One that overflows, or is zero while the jet divides by it, is a
    ValueError naming the parameter."""
    powers = []
    for k in exponents:
        try:
            power = base**k
        except OverflowError:
            power = math.inf
        if not math.isfinite(power) or (divisor and power == 0):
            raise ValueError(
                f"{parameter} = {value!r} is out of range: {label}^{k} = {power!r} in floats"
            )
        powers.append(power)
    return powers


def constant(m0=1) -> MassProfile:
    """m(x) = m0."""
    p = _params(m0=m0)
    m0f = float(p["m0"])
    if m0f <= 0:
        raise ValueError("m0 must be positive")
    u0 = 1.0 / m0f

    def jet(x):
        x = np.asarray(x, dtype=float)
        return u0 * np.ones_like(x), np.zeros_like(x), np.zeros_like(x)

    return MassProfile("constant", jet, p)


def lorentzian(m0=1, lam=1) -> MassProfile:
    """m(x) = m0 / (1 + lam x^2); inverse mass is the polynomial (1 + lam x^2)/m0."""
    p = _params(m0=m0, lam=lam)
    m0f, lamf = float(p["m0"]), float(p["lam"])
    if m0f <= 0 or lamf < 0:
        raise ValueError("need m0 > 0 and lam >= 0")

    def jet(x):
        x = np.asarray(x, dtype=float)
        return (1.0 + lamf * x**2) / m0f, 2.0 * lamf * x / m0f, 2.0 * lamf / m0f * np.ones_like(x)

    return MassProfile("lorentzian", jet, p)


def _reciprocal_jet(m0f, f, f1, f2):
    """Jet of 1/(m0 f(x)) from samples of f and its two derivatives."""
    return 1.0 / (m0f * f), -f1 / (m0f * f**2), (2.0 * f1**2 - f * f2) / (m0f * f**3)


def gaussian_bump(m0=1, lam=1, sigma=1) -> MassProfile:
    """m(x) = m0 (1 + lam exp(-x^2/sigma^2)); a localized mass enhancement."""
    p = _params(m0=m0, lam=lam, sigma=sigma)
    m0f, lamf, sig = float(p["m0"]), float(p["lam"]), float(p["sigma"])
    if m0f <= 0 or sig <= 0 or lamf <= -1:
        raise ValueError("need m0 > 0, sigma > 0 and lam > -1")
    sig2, sig4 = _powers("sigma", sig, "sigma", sig, 2, 4)

    def jet(x):
        x = np.asarray(x, dtype=float)
        # far out (x^2 overflows beyond |x| ~ 1e154) the bump is exactly 0,
        # and so are its derivatives, where 0 * inf would give NaN
        with np.errstate(over="ignore", invalid="ignore"):
            x2 = x**2
            bump = lamf * np.exp(-x2 / sig2)
            f1 = np.where(bump == 0, 0.0, bump * (-2.0 * x / sig2))
            f2 = np.where(bump == 0, 0.0, bump * (4.0 * x2 / sig4 - 2.0 / sig2))
        return _reciprocal_jet(m0f, 1.0 + bump, f1, f2)

    return MassProfile("gaussian_bump", jet, p)


def smoothed_step(m0=1, lam="1/2", sigma=1) -> MassProfile:
    """m(x) = m0 (1 + lam tanh(x/sigma)); a smooth interface, |lam| < 1."""
    p = _params(m0=m0, lam=lam, sigma=sigma)
    m0f, lamf, sig = float(p["m0"]), float(p["lam"]), float(p["sigma"])
    if m0f <= 0 or sig <= 0 or abs(lamf) >= 1:
        raise ValueError("need m0 > 0, sigma > 0 and |lam| < 1")
    (sig2,) = _powers("sigma", sig, "sigma", sig, 2)

    def jet(x):
        t = np.tanh(np.asarray(x, dtype=float) / sig)
        sech2 = 1.0 - t**2
        return _reciprocal_jet(m0f, 1.0 + lamf * t, lamf * sech2 / sig,
                               -2.0 * lamf * t * sech2 / sig2)

    return MassProfile("smoothed_step", jet, p)


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
    # the jet only multiplies by w = pi / (2 half_width), so w may be zero
    w, w2 = _powers("half_width", lf, "(pi/(2 half_width))", np.pi / (2.0 * lf), 1, 2,
                    divisor=False)

    def jet(x):
        x = np.asarray(x, dtype=float)
        phase = 2.0 * w * x
        return (
            (1.0 + lamf * np.cos(w * x) ** 2) / m0f,
            -lamf * w * np.sin(phase) / m0f,
            -2.0 * lamf * w2 * np.cos(phase) / m0f,
        )

    return MassProfile("cosine_bump", jet, p)


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
