"""Global decoders for (folded) quantum Tamo-Barg codes.

The classical engine: for each shift i = 1..r-1, form the differenced word
a_i(x) = w^-i a(w_r^i x) - a(x). On a codeword the piecewise-linear part
cancels identically, leaving a Reed-Solomon codeword whose coefficients
sit on the Tamo-Barg exponents scaled by (w_r^((j-1)i) - 1). List-decode
each a_i, keep candidates whose coefficients vanish on exponents +-1 mod
r, invert the scaling (well-defined: r prime makes every needed factor
nonzero), and return the candidate closest to the input in distance to
the piecewise-linear space. The folded variant differs only in calling
the folded list decoder and the folded distance subroutine.

Effective radii are derived from the radius this build's list decoders
actually achieve, never from the paper's asymptotic constants; the
reported radius is additionally capped by the theorem radius, below which
the returned word is proven to be in the right dual coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bounds import decode_radius_qtb, fqtb_distance_lower, frs_e_prime_for_radius
from .css import PauliError, contract_decode
from .errors import DecodingFailed
from .gf import FieldCtx, coset_stride
from .listdec import (
    best_feasible_radius_rs,
    frs_achieved_radius,
    list_decode_frs,
    list_decode_rs,
)
from .polycode import evaluate_values
from .qtb import FqtbCode, QtbCode

DEC_MULTIPLICITY_CAP = 2  # interpolation multiplicity budget inside the decoder


# -- distance to the piecewise-linear space ----------------------------------------

def _piecewise_fit(ctx: FieldCtx, blocks: np.ndarray, r: int) -> tuple[int, np.ndarray]:
    """Folded distance of (n/s, s) blocks to the piecewise-linear space, with witness.

    The r blocks of a coset group share one slope vector beta, and block b
    agrees with beta * x exactly when its slopes value/position equal beta
    (division by a unit is a bijection). So the best beta is the slope row
    that the most blocks of the group share; ties go to the lexicographically
    smallest row. The group contributes r minus that count.
    """
    n_blocks, s = blocks.shape
    units = ctx.units().reshape(r, -1, s).transpose(1, 0, 2)  # (group, r, s)
    slopes = ctx.div(blocks.reshape(r, -1, s).transpose(1, 0, 2), units)
    agree = np.all(slopes[:, :, None, :] == slopes[:, None, :, :], axis=3)
    counts = agree.sum(axis=2)
    best = counts.max(axis=1)
    pick = counts == best[:, None]
    for k in range(s):  # keep the rows that are smallest in columns 0..k
        col = np.where(pick, slopes[:, :, k], ctx.q)
        pick &= col == col.min(axis=1, keepdims=True)
    beta = slopes[np.arange(len(best)), pick.argmax(axis=1)]
    witness = ctx.mul(beta[:, None, :], units).transpose(1, 0, 2).reshape(n_blocks, s)
    return int(r * len(best) - best.sum()), witness


def dist_to_piecewise(ctx: FieldCtx, values: np.ndarray, r: int) -> tuple[int, np.ndarray]:
    """Exact distance to the span of per-coset linear functions, with witness.

    Per coset the best approximation is beta*x for the modal slope beta of
    value/position; ties break toward the smaller beta for determinism.
    """
    values = np.asarray(values, dtype=np.int64)
    dist, witness = _piecewise_fit(ctx, values.reshape(-1, 1), r)
    return dist, witness.reshape(-1)


def dist_to_piecewise_folded(ctx: FieldCtx, blocks: np.ndarray, r: int,
                             ) -> tuple[int, np.ndarray]:
    """Exact folded distance to the piecewise-linear space, with witness."""
    return _piecewise_fit(ctx, np.asarray(blocks, dtype=np.int64), r)


# -- shared candidate machinery ------------------------------------------------------

def _shift_difference(ctx: FieldCtx, values: np.ndarray, r: int, i: int) -> np.ndarray:
    """w_r^-i * a(w_r^i x) - a(x), as an array in position order."""
    shift = i * coset_stride(ctx.q, r)
    wr_inv = ctx.units()[-shift % (ctx.q - 1)]
    return ctx.sub(ctx.mul(wr_inv, np.roll(values, -shift)), values)


def _map_back(ctx: FieldCtx, coeffs: np.ndarray, r: int, i: int) -> np.ndarray | None:
    """Undo the differencing on coefficients, or None if the candidate is invalid.

    Valid candidates vanish on exponents +-1 mod r; the remaining exponents
    divide by w_r^((j-1)i) - 1, which is nonzero whenever r is prime.
    """
    j = np.flatnonzero(coeffs)
    if np.any((j % r == 1) | (j % r == r - 1)):
        return None
    wr_pow = ctx.units()[(j - 1) * i % r * coset_stride(ctx.q, r)]  # w_r^((j-1)i)
    out = np.zeros_like(coeffs)
    out[j] = ctx.div(coeffs[j], ctx.sub(wr_pow, 1))
    return out


@dataclass(frozen=True)
class DecOutcome:
    """Result of a classical Tamo-Barg decode."""

    word: np.ndarray  # the returned codeword (folded shape for fqTB)
    coeffs: np.ndarray  # its message polynomial on the TB exponents
    dual_distance: int  # distance of (word - input) to the piecewise space
    candidates: int
    list_sizes: tuple[int, ...]
    rs_radius: int


def _decode(code: QtbCode | FqtbCode, values: np.ndarray, list_decode, dist,
            rs_radius: int, e: int | None) -> DecOutcome:
    """The pipeline both decoders share: r-1 list decodes plus argmin.

    ``values`` is a word or its (n/s, s) blocks. ``list_decode(diff)`` lists
    the message polynomials near a differenced word of that shape, and
    ``dist`` is the matching distance to the piecewise-linear space. When
    ``e`` is given, callers promise dis(input, C) <= e and the output is
    checked against the contract dis(output - input, dual) <= e, raising
    DecodingFailed rather than ever returning silently wrong data.
    """
    ctx, r = code.ctx, code.r
    values = np.asarray(values, dtype=np.int64)
    candidates: dict[tuple, np.ndarray] = {}
    list_sizes = []
    for i in range(1, r):
        diff = _shift_difference(ctx, values.reshape(-1), r, i).reshape(values.shape)
        polys = list_decode(diff)
        list_sizes.append(len(polys))
        for g in polys:
            mapped = _map_back(ctx, g, r, i)
            if mapped is not None:
                candidates.setdefault(tuple(mapped.tolist()), mapped)
    if not candidates:
        raise DecodingFailed("empty candidate list: input violated the decode radius")
    best = None
    for key in sorted(candidates):  # ties go to the smallest coefficient vector
        word = evaluate_values(ctx, candidates[key]).reshape(values.shape)
        d, _ = dist(ctx, ctx.sub(word, values), r)
        if best is None or d < best[0]:
            best = (d, word, candidates[key])
    d, word, coeffs = best
    if e is not None and d > e:
        raise DecodingFailed(f"best candidate at piecewise distance {d} > promised e={e}")
    return DecOutcome(word=word, coeffs=coeffs, dual_distance=d,
                      candidates=len(candidates), list_sizes=tuple(list_sizes),
                      rs_radius=rs_radius)


@lru_cache(maxsize=None)
def dec_c_radius(q: int, r: int, ell: int) -> int:
    """Radius this build's unfolded decoder guarantees.

    The theorem radius assumes list decoding at the Johnson bound; with the
    decoder's actual RS radius A, errors are still handled whenever either
    2e <= A (every differenced word is within A) or the averaged agreement
    bound lands within A. Both are capped by the theorem radius, which is
    what makes the returned dual-coset guarantee kick in.
    """
    thm = decode_radius_qtb(q, r, ell)
    if thm <= 0:
        return 0
    rs_rad = best_feasible_radius_rs(q, ell, DEC_MULTIPLICITY_CAP)
    e_forall = rs_rad // 2
    e_avg = 0
    n = q - 1
    for e in range(thm, -1, -1):
        t = 1 - Fraction(e, n)
        induced = n * (1 - Fraction(r, r - 1) * t * t + Fraction(1, r - 1) * t)
        if induced <= rs_rad:
            e_avg = e
            break
    return min(thm, max(e_forall, e_avg))


def dec_c(code: QtbCode, values: np.ndarray, e: int | None = None) -> DecOutcome:
    """Unfolded decoder: the shared pipeline over the RS list decoder."""
    ctx, ell = code.ctx, code.ell
    rs_rad = best_feasible_radius_rs(code.q, ell, DEC_MULTIPLICITY_CAP)
    return _decode(code, values,
                   lambda diff: list_decode_rs(ctx, ell, diff, rs_rad, m_cap=DEC_MULTIPLICITY_CAP),
                   dist_to_piecewise, rs_rad, e)


@lru_cache(maxsize=None)
def dec_c_folded_radius(q: int, r: int, ell: int, s: int) -> int:
    """Radius the folded decoder guarantees, from the achieved fRS radius."""
    d = fqtb_distance_lower(q, r, ell, s)
    half = math.floor(d / 2) - 1  # exact: d is a Fraction
    achieved = frs_achieved_radius(q, ell, s).e
    e_prime = frs_e_prime_for_radius(q, r, ell, s, achieved)
    e_forall = achieved // 2
    return max(min(half, max(e_prime, e_forall)), 0)


def dec_c_folded(code: FqtbCode, blocks: np.ndarray, e: int | None = None) -> DecOutcome:
    """Folded decoder: the shared pipeline over the folded list decoder."""
    ctx, ell, s = code.ctx, code.ell, code.s
    radius = frs_achieved_radius(code.q, ell, s).e
    return _decode(code, blocks, lambda diff: list_decode_frs(ctx, ell, s, diff, radius),
                   dist_to_piecewise_folded, radius, e)


# -- quantum wrapper ----------------------------------------------------------------

def quantum_decode_radius(code: QtbCode | FqtbCode) -> int:
    if isinstance(code, FqtbCode):
        return dec_c_folded_radius(code.q, code.r, code.ell, code.s)
    return dec_c_radius(code.q, code.r, code.ell)


def quantum_decode(code: QtbCode | FqtbCode, err: PauliError,
                   check_weight: bool = True) -> tuple[PauliError, PauliError]:
    """Full symplectic decode: syndromes -> two classical decodes -> residual,
    under ``css.contract_decode`` with the module radius (the CLI maps its
    DecodeContractViolation to its own exit code)."""
    folded = isinstance(code, FqtbCode)
    css = code.base.css if folded else code.css
    decoder, s = (dec_c_folded, code.s) if folded else (dec_c, 1)
    radius = quantum_decode_radius(code)
    weight = err.block_weight(s)
    within = weight <= radius

    def dec(t: np.ndarray) -> np.ndarray:
        word = t.reshape(-1, s) if folded else t
        return decoder(code, word, e=radius if within else None).word.reshape(-1)

    return contract_decode(css, err, dec, dec, weight, radius, check=check_weight)
