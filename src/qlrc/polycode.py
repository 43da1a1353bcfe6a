"""Monomial-support polynomial spaces, the evaluation map, and folding.

Positions are fixed once and for all: position i of every length-(q-1)
word is the evaluation point omega^i, for the canonical generator omega of
the field. This makes cosets of the r-th roots of unity strided index
groups (stride (q-1)/r), makes folding a plain reshape, and pins the
serialized byte order of every codeword.

The support-set constructors build the exponent sets of the Tamo-Barg
family: the classical set drops exponents congruent to r-1 mod r below
the degree cutoff, and the quantum set adds back every exponent congruent
to 1 mod r so that the resulting evaluation code contains the dual it
needs for the CSS condition.

Evaluation is linear algebra: ``powers(ctx, exps)`` gathers the matrix whose
row a holds x^exps[a] at every position (``units[(exps[a] * j) mod (q-1)]``),
so an evaluation code's basis is one gather and ``evaluate_values`` is one
``gf.matmul`` of the coefficients with ``eval_table``, that gather cached.
``element_powers`` gathers the powers of a single element the same way, so
evaluating a ``DensePoly`` at a point and ``mod_reduce`` (the sum of the
length-r chunks weighted by c^j) are one product each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BadDegree,
    BadLocality,
    DegreeOverflow,
    DegreeTooSmall,
    FoldMismatch,
    ZeroShift,
)
from .gf import FieldCtx, coset_stride, frozen, matmul


def _check_tb_params(q: int, r: int, ell: int) -> None:
    if r < 3:
        raise BadLocality(f"locality r={r} must be >= 3")
    if (q - 1) % r != 0:
        raise BadLocality(f"r={r} must divide q-1={q - 1}")
    if not 1 <= ell <= q - 1:
        raise BadDegree(f"ell={ell} must lie in [1, q-1] (degree < q-1 needed on GF(q)*)")


def _check_qtb_params(q: int, r: int, ell: int) -> None:
    """The Tamo-Barg checks, then 2*ell >= q, which the quantum support needs."""
    _check_tb_params(q, r, ell)
    if 2 * ell < q:
        raise DegreeTooSmall(f"2*ell={2 * ell} < q={q}: the dual-support identity needs ell >= q/2")


def support_tb(q: int, r: int, ell: int) -> tuple[int, ...]:
    """Exponents of the classical Tamo-Barg code: i < ell, i != r-1 mod r."""
    _check_tb_params(q, r, ell)
    return tuple(i for i in range(ell) if i % r != r - 1)


def support_qtb(q: int, r: int, ell: int) -> tuple[int, ...]:
    """Tamo-Barg exponents plus every i = 1 mod r in [q-1]."""
    _check_qtb_params(q, r, ell)
    s = set(support_tb(q, r, ell))
    s.update(i for i in range(q - 1) if i % r == 1)
    return tuple(sorted(s))


def support_qtb_dual(q: int, r: int, ell: int) -> tuple[int, ...]:
    """Exponent set of the dual of the quantum Tamo-Barg code."""
    _check_qtb_params(q, r, ell)
    t = {i for i in range(1, q - ell) if i % r != r - 1}
    t.update(i for i in range(q - 1) if i % r == 1)
    return tuple(sorted(t))


def support_piecewise(q: int, r: int) -> tuple[int, ...]:
    """Exponents i = 1 mod r in [q-1]: the space linear on each coset."""
    if (q - 1) % r != 0:
        raise BadLocality(f"r={r} must divide q-1={q - 1}")
    return tuple(i for i in range(q - 1) if i % r == 1)


@dataclass(frozen=True)
class DensePoly:
    """Coefficient vector indexed by exponent, trailing zeros trimmed."""

    ctx: FieldCtx
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64)
        nz = np.nonzero(c)[0]
        c = c[: int(nz[-1]) + 1].copy() if nz.size else np.zeros(0, dtype=np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x: int) -> int:
        return int(matmul(self.ctx, self.coeffs, element_powers(self.ctx, x, len(self.coeffs))))

    def key(self) -> tuple[int, ...]:
        """Canonical tie-break key: the coefficient tuple."""
        return tuple(self.coeffs.tolist())


@dataclass(frozen=True)
class EvalWord:
    """A word of length q-1; value at index i is the evaluation at omega^i."""

    ctx: FieldCtx
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (self.ctx.q - 1,):
            raise ValueError(f"expected length {self.ctx.q - 1}, got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def weight(self) -> int:
        return int(np.count_nonzero(self.values))


@dataclass(frozen=True)
class FoldedWord:
    """(q-1)/s blocks of s consecutive positions each."""

    ctx: FieldCtx
    s: int
    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.int64)
        n = self.ctx.q - 1
        if n % self.s != 0 or b.shape != (n // self.s, self.s):
            raise FoldMismatch(f"expected shape {(n // self.s, self.s)}, got {b.shape}")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)

    def block_weight(self) -> int:
        return int(np.count_nonzero(np.any(self.blocks != 0, axis=1)))


def powers(ctx: FieldCtx, exps: Sequence[int] | np.ndarray) -> np.ndarray:
    """Row a is x^exps[a] evaluated at every position x = omega^j."""
    exps = np.asarray(exps, dtype=np.int64)
    n = ctx.q - 1
    return ctx.units()[exps[:, None] * np.arange(n) % n]


@lru_cache(maxsize=32)
def eval_table(ctx: FieldCtx, length: int) -> np.ndarray:
    """``powers(ctx, range(length))``, built once per field and length; read-only."""
    return frozen(powers(ctx, np.arange(length)))


def element_powers(ctx: FieldCtx, x: int, k: int) -> np.ndarray:
    """x^0, ..., x^(k-1) for one element x (0^0 = 1), gathered from ``units``."""
    if x == 0:
        return (np.arange(k) == 0).astype(np.int64)
    j = int(np.flatnonzero(ctx.units() == x)[0])  # x = omega^j
    return ctx.units()[np.arange(k) * j % (ctx.q - 1)]


def evaluate(f: DensePoly) -> EvalWord:
    """Evaluate on all of GF(q)* in position order."""
    if f.degree >= f.ctx.q - 1:
        raise DegreeOverflow(f"degree {f.degree} >= q-1 = {f.ctx.q - 1}")
    return EvalWord(f.ctx, evaluate_values(f.ctx, f.coeffs))


def evaluate_values(ctx: FieldCtx, coeffs: np.ndarray) -> np.ndarray:
    """Raw-array variant of evaluate; a 2-D ``coeffs`` evaluates each row."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    return matmul(ctx, coeffs, eval_table(ctx, coeffs.shape[-1]))


def fold(w: EvalWord, s: int) -> FoldedWord:
    n = w.ctx.q - 1
    if n % s != 0:
        raise FoldMismatch(f"s={s} does not divide q-1={n}")
    return FoldedWord(w.ctx, s, w.values.reshape(n // s, s))


def unfold(fw: FoldedWord) -> EvalWord:
    return EvalWord(fw.ctx, fw.blocks.reshape(-1))


def mod_reduce(f: DensePoly, r: int, c: int) -> DensePoly:
    """Reduce f modulo X^r - c; agrees with f wherever x^r = c."""
    if c == 0:
        raise ZeroShift("reduction modulus X^r - c needs c != 0")
    ctx = f.ctx
    chunks = np.zeros((-(-len(f.coeffs) // r), r), dtype=np.int64)  # row j: X^(jr) .. X^(jr+r-1)
    chunks.flat[: len(f.coeffs)] = f.coeffs
    return DensePoly(ctx, matmul(ctx, element_powers(ctx, c, len(chunks)), chunks))


# -- positional structure -------------------------------------------------------

def coset_index_groups(q: int, r: int) -> np.ndarray:
    """Array of shape ((q-1)/r, r): row g lists the positions of coset g.

    Coset g contains positions g, g+stride, ..., g+(r-1)*stride for
    stride=(q-1)/r, i.e. the points omega^g * Omega_r.
    """
    stride = coset_stride(q, r)
    g = np.arange(stride)[:, None]
    k = np.arange(r)[None, :]
    return g + k * stride
