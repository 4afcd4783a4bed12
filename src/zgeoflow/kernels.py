"""Analytic kernels as elementary table entries.

``sinhc(x) = sinh(x)/x``, the sine kernel ``sin(sqrt(u))/sqrt(u)`` with its
derivatives ``S_k = d^k/du^k`` (:func:`sin_kernel`), and the cosine kernel
``cos(sqrt(u))`` (sinh and cosh branches for u < 0) are each one
:func:`zgeoflow.dual._elementary` entry.  Each chooses between its Taylor
series and its closed form inside its own float and complex value
functions, so a reverse or dual pass records one operation and reads no
value to choose a formula: the passes through them have an operation
sequence that does not depend on the input, which is what lets a
function's gradients and Taylor passes run compiled code without a record
(:class:`zgeoflow.dual.CompiledGradient`).

Their f' and f'' are well conditioned.  The derivatives come from the
S_k, which sum their series out to |u| = 4k + 1, where the closed forms
would cancel: ``sinhc`` is S_0(-x^2), so f' = -2x S_1(-x^2) and
f'' = 4x^2 S_2(-x^2) - 2 S_1(-x^2); the cosine kernel has f' = -S_0/2 and
f'' = -S_1/2.
"""

from __future__ import annotations

import cmath
import math

from . import dual

#: below this |u| (|x| for sinhc) a kernel's value takes its 4-term series;
#: its closed form is well conditioned everywhere else
SERIES_CUTOFF = 1e-4

_ORDERS = []


def _sin_value(m):
    """sin(sqrt(u))/sqrt(u) with the math module ``m`` (math or cmath)."""

    def value(u):
        if abs(u) < SERIES_CUTOFF:
            return 1.0 - u * (1.0 / 6.0 - u * (1.0 / 120.0 - u / 5040.0))
        if u.real > 0:
            v = m.sqrt(u)
            return m.sin(v) / v
        v = m.sqrt(-u)
        return m.sinh(v) / v

    return value


def _derivative_value(k):
    """S_k (k >= 1), the k-th derivative of sin(sqrt(u))/sqrt(u), float or complex.

    Its Taylor series sum_j (-1)^(j+k) (j+k)!/j! u^j / (2j+2k+1)! is summed
    up to |u| < 4k + 1, with as many terms as each of four ranges of |u|
    needs for a relative truncation below 2^-56.  Beyond, the closed form
    S_{k+1} = -(2 (2k+1) S_k + S_{k-1}) / (4u) from S_0 and S_{-1} = -2
    cos(sqrt(u)) (spherical Bessel functions, upward) is well conditioned;
    below, it loses about (2k+1)!! / |u|^k ulps to cancellation.
    """
    fact = math.factorial
    coeffs = [
        (-1) ** (j + k) * fact(j + k) / (fact(j) * fact(2 * j + 2 * k + 1)) for j in range(40)
    ]
    tiers = []
    for radius in (1.0 / 16.0, 0.5, 2.0, 4.0 * k + 1.0):
        terms = next(
            j for j in range(1, 40) if abs(coeffs[j]) * radius**j < 2.0**-56 * abs(coeffs[0])
        )
        tiers.append((radius, coeffs[terms - 1 :: -1]))

    def value(u):
        size = abs(u)
        for radius, rev in tiers:
            if size < radius:
                acc = 0.0
                for c in rev:
                    acc = acc * u + c
                return acc
        m = cmath if isinstance(u, complex) else math
        if u.real > 0:
            t = m.sqrt(u)
            prev, cur = -2.0 * m.cos(t), m.sin(t) / t
        else:
            t = m.sqrt(-u)
            prev, cur = -2.0 * m.cosh(t), m.sinh(t) / t
        for j in range(k):
            prev, cur = cur, -(2.0 * (2 * j + 1) * cur + prev) / (4.0 * u)
        return cur

    return value


def sin_kernel(k=0):
    """The table entry of S_k = d^k/du^k sin(sqrt(u))/sqrt(u), analytic in u;
    its f' is the entry of order k + 1 (created on first use)."""
    while len(_ORDERS) <= k:
        j = len(_ORDERS)
        if j == 0:
            real, cplx = _sin_value(math), _sin_value(cmath)
        else:
            real = cplx = _derivative_value(j)
        _ORDERS.append(
            dual._elementary(
                f"sin_kernel{j}",
                real,
                cplx,
                lambda x, v, j=j: sin_kernel(j + 1)(x),
                lambda x, v, g, j=j: sin_kernel(j + 2)(x),
            )
        )
    return _ORDERS[k]


_s0, _s1, _s2 = sin_kernel(0), sin_kernel(1), sin_kernel(2)


def _cos_value(m):
    """cos(sqrt(u)) with the math module ``m`` (math or cmath)."""

    def value(u):
        if abs(u) < SERIES_CUTOFF:
            return 1.0 - u * (0.5 - u * (1.0 / 24.0 - u / 720.0))
        if u.real > 0:
            return m.cos(m.sqrt(u))
        return m.cosh(m.sqrt(-u))

    return value


cos_kernel = dual._elementary(
    "cos_kernel",
    _cos_value(math),
    _cos_value(cmath),
    lambda x, v: -0.5 * _s0(x),
    lambda x, v, g: -0.5 * _s1(x),
)


def _sinhc_value(m):
    """sinh(x)/x with the math module ``m`` (math or cmath)."""

    def value(x):
        if abs(x) < SERIES_CUTOFF:
            x2 = x * x
            return 1.0 + x2 * (1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 / 5040.0))
        return m.sinh(x) / x

    return value


def _sinhc_d2(x, v, g):
    u = -(x * x)
    return 4.0 * (x * x) * _s2(u) - 2.0 * _s1(u)


#: sinh(x)/x, total on finite reals, with sinhc(0) = 1 exactly
sinhc = dual._elementary(
    "sinhc",
    _sinhc_value(math),
    _sinhc_value(cmath),
    lambda x, v: -2.0 * x * _s1(-(x * x)),
    _sinhc_d2,
)
