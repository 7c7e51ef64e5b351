"""`solve` finished in grid coordinates and H's own units.

The independent reference for the part of `pdmkeo.spectra.solve` after
its LAPACK calls, which `solve` does on the gathered, scaled blocks: here
the eigenvector rows are scattered back to grid order with the slices
p::l, H x is the full banded product `AssembledOperator.applied_to`, the
Rayleigh quotients are taken in H's units and the residual Hx - ex is
scaled by the same power of two only for its norm. For a staggered H
whose intermediates stay normal floats the float operations are the same
up to exact scalings by powers of two and the order of two addends, so
the results agree to the byte.
"""

import math

import numpy as np

from pdmkeo.errors import KeoError, NotSymmetric
from pdmkeo.spectra import _BRACKET, _eigenvectors, _max_asymmetry


def reference_solve(h, k):
    """(eigenvalues, residuals, max_residual) of `solve(h, k)`, from the
    same `_eigenvectors` rows, for an operator and k that it accepts."""
    n = h.grid.n
    if not 1 <= k <= n:
        raise KeoError(f"need 1 <= k <= n = {n}, got k = {k}")
    bands, half = h.bands, h.bandwidth
    scale = float(np.max(np.abs(bands))) or 1.0
    asym = _max_asymmetry(bands)
    if asym > 1e-10 * scale:
        raise NotSymmetric(asym)
    blocks = [slice(p, n, half) for p in range(half)]
    shift = math.frexp(scale)[1]
    d = np.ldexp(np.concatenate([bands[half, b] for b in blocks]), -shift)
    e = np.ldexp(np.concatenate([bands[2 * half, b] for b in blocks])[:-1], -shift)
    vecs = _eigenvectors(d, e, k, _BRACKET)
    if vecs is None:
        vecs = _eigenvectors(d, e, k, 0.0)
    x, start = np.empty((vecs.shape[0], n)), 0
    for b in blocks:
        stop = start + len(range(b.start, n, half))
        x[:, b] = vecs[:, start:stop]
        start = stop
    hx = h.applied_to(x)
    values = (x * hx).sum(axis=1) / (x * x).sum(axis=1)
    residuals = np.ldexp(np.linalg.norm(np.ldexp(hx - values[:, None] * x, -shift), axis=1),
                         shift)
    rank = np.argsort(values, kind="stable")
    values, residuals = values[rank], residuals[rank]
    return values, residuals, float(residuals.max()) / scale
