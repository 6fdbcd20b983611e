"""Platform-independent arithmetic for every number the CLI writes.

BLAS and LAPACK kernels, numpy's complex multiply, complex ``abs`` and
``einsum`` loops, and libm's transcendentals may all differ in the last bit
between machines: which kernel runs depends on the BLAS build, the numpy
SIMD level and the libm variant the machine selects. The functions here use
only IEEE-754 binary64 ``+ - * /`` and ``sqrt`` on real floats, in a fixed
order, plus exact operations (rounding to an integer, scaling by a power of
two, changing a sign). Their results are therefore the same bits on every
IEEE-754 platform.

Complex numbers are handled split into real and imaginary parts; the scalar
helpers take and return Python ``complex`` values but never use Python's
complex multiply, divide or ``abs``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SINCOS_MAX_ARG",
    "sincos",
    "hypot",
    "cmul",
    "cdiv",
    "join",
    "split_vdots",
    "matmul",
    "cmatmul",
    "csplit",
    "split_matvec",
]

# fdlibm's Cody-Waite split of pi/2 (e_rem_pio2.c): pio2_1 and pio2_2 hold 33
# bits each, so n * pio2_k is exact for |n| <= 2^20; pio2_2t is the remaining
# tail pi/2 - pio2_1 - pio2_2.
_INVPIO2 = float.fromhex("0x1.45f306dc9c883p-1")
_PIO2_1 = float.fromhex("0x1.921fb54400000p+0")
_PIO2_2 = float.fromhex("0x1.0b4611a600000p-34")
_PIO2_2T = float.fromhex("0x1.3198a2e037073p-69")

# fdlibm's minimax polynomials on [-pi/4, pi/4] (k_sin.c, k_cos.c)
_S1 = float.fromhex("-0x1.5555555555549p-3")
_S2 = float.fromhex("0x1.111111110f8a6p-7")
_S3 = float.fromhex("-0x1.a01a019c161d5p-13")
_S4 = float.fromhex("0x1.71de357b1fe7dp-19")
_S5 = float.fromhex("-0x1.ae5e68a2b9cebp-26")
_S6 = float.fromhex("0x1.5d93a5acfd57cp-33")
_C1 = float.fromhex("0x1.555555555554cp-5")
_C2 = float.fromhex("-0x1.6c16c16c15177p-10")
_C3 = float.fromhex("0x1.a01a019cb1590p-16")
_C4 = float.fromhex("-0x1.27e4f809c52adp-22")
_C5 = float.fromhex("0x1.1ee9ebdb4b1c4p-29")
_C6 = float.fromhex("-0x1.8fae9be8838d4p-37")

# largest |x| for which the reduction keeps n * pio2_k exact (2^20 pi/2)
SINCOS_MAX_ARG = float(2**19) * math.pi


def sincos(x: float) -> tuple[float, float]:
    """(sin x, cos x), the same bits on every IEEE-754 machine.

    fdlibm's algorithm in plain Python floats: Cody-Waite reduction by pi/2
    to y0 + y1 with |y0| <= pi/4, good to 118 bits of pi/2, then the
    ``__kernel_sin``/``__kernel_cos`` polynomials and the quadrant swap. Both
    agree with a correctly rounded sin/cos within about one ulp, and
    sincos(-x) = (-sin x, cos x) exactly. Requires finite |x| <=
    ``SINCOS_MAX_ARG`` (about 1.6e6); raises ``ValueError`` otherwise.
    """
    if not abs(x) <= SINCOS_MAX_ARG:
        raise ValueError(f"sincos needs a finite argument with |x| <= {SINCOS_MAX_ARG:.6g}")
    n = round(x * _INVPIO2)
    fn = float(n)
    r = x - fn * _PIO2_1
    # second round: subtract the next 33 bits of pi/2, carrying the rounding
    # error of that subtraction and the tail pio2_2t in w
    w = fn * _PIO2_2
    t = r
    r = t - w
    w = fn * _PIO2_2T - ((t - r) - w)
    y0 = r - w
    y1 = (r - y0) - w

    z = y0 * y0
    v = z * y0
    rs = _S2 + z * (_S3 + z * (_S4 + z * (_S5 + z * _S6)))
    ks = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * _S1)
    rc = z * (_C1 + z * (_C2 + z * (_C3 + z * (_C4 + z * (_C5 + z * _C6)))))
    hz = 0.5 * z
    w = 1.0 - hz
    kc = w + (((1.0 - w) - hz) + (z * rc - y0 * y1))

    q = n & 3
    if q == 0:
        return ks, kc
    if q == 1:
        return kc, -ks
    if q == 2:
        return -ks, -kc
    return -kc, ks


def hypot(x, y):
    """sqrt(x^2 + y^2) elementwise, without overflow or underflow, within about one ulp.

    Infinite where x or y is, else NaN where either is.
    """
    x, y = np.abs(x), np.abs(y)
    e = np.frexp(np.maximum(x, y))[1]  # 0 for 0, inf and nan
    xs, ys = np.ldexp(x, -e), np.ldexp(y, -e)
    out = np.ldexp(np.sqrt(xs * xs + ys * ys), e)
    return np.where(np.isinf(x) | np.isinf(y), np.inf, out)[()]


def cmul(a: complex, b: complex) -> complex:
    """a * b from four real products."""
    a, b = complex(a), complex(b)
    return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def cdiv(a: complex, b: complex) -> complex:
    """a / b as a * conj(b) / |b|^2, for b well inside the float range."""
    a, b = complex(a), complex(b)
    den = b.real * b.real + b.imag * b.imag
    if den == 0.0:
        raise ZeroDivisionError("complex division by zero")
    return complex(
        (a.real * b.real + a.imag * b.imag) / den,
        (a.imag * b.real - a.real * b.imag) / den,
    )


def join(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array with the given real and imaginary parts, without arithmetic."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def split_vdots(u: np.ndarray, vs) -> list:
    """[sum(conj(u) * v) for v in vs] over 1-D complex arrays, by real sums.

    With real and imaginary parts interleaved, Re = sum(u_f * v_f) and
    Im = sum(u_s * v_f), where u_s holds (-Im u, Re u) per entry. Each sum is
    numpy's pairwise summation over one contiguous float array, whose order
    depends only on the length.
    """
    uf = np.ascontiguousarray(u, dtype=complex).view(np.float64)
    us = np.empty_like(uf)
    us[0::2] = -uf[1::2]
    us[1::2] = uf[0::2]
    out = []
    for v in vs:
        vf = np.ascontiguousarray(v, dtype=complex).view(np.float64)
        out.append(complex(float(np.add.reduce(uf * vf)), float(np.add.reduce(us * vf))))
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real a @ b over the last two axes, broadcast over the leading ones.

    out[..., i, k] = (a[..., i, 0] b[..., 0, k] + a[..., i, 1] b[..., 1, k]) + ...,
    one elementwise multiply and add per inner index, in index order, with
    no BLAS kernel. A factor that is exactly zero or exactly the identity
    gives an exact product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def cmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a @ b from four real :func:`matmul` products."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return join(
        matmul(a.real, b.real) - matmul(a.imag, b.imag),
        matmul(a.real, b.imag) + matmul(a.imag, b.real),
    )


def csplit(a: np.ndarray) -> np.ndarray:
    """The real (2n, 2n) matrix acting on interleaved (re, im) vectors as ``a``.

    Entry a[p, q] becomes the block [[re, -im], [im, re]] at rows 2p, 2p+1
    and columns 2q, 2q+1, so that csplit(a) applied to
    ``v.view(np.float64)`` is ``(a @ v).view(np.float64)``.
    """
    a = np.asarray(a, dtype=complex)
    n, m = a.shape
    out = np.empty((2 * n, 2 * m))
    out[0::2, 0::2] = a.real
    out[0::2, 1::2] = -a.imag
    out[1::2, 0::2] = a.imag
    out[1::2, 1::2] = a.real
    return out


def split_matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real m @ v as one product and one row sum per row of ``m``.

    Each row sum is numpy's pairwise summation over one contiguous float
    row, whose order depends only on the row length. With ``m`` from
    :func:`csplit` and ``v`` an interleaved complex vector, this is the
    complex matrix-vector product in real arithmetic.
    """
    return np.add.reduce(m * v, axis=-1)
