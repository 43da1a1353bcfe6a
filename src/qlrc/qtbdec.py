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

Within the unique radius a list holds at most one codeword. For a candidate
g already found, the i-th difference of (input - g's codeword) is the
input's minus g's image, an RS codeword that maps back to g; when it is
within the list radius, the list at shift i is exactly that image and no
decode runs. Past the unique radius (Guruswami-Sudan) every shift is decoded.

Effective radii are derived from the radius this build's list decoders
actually achieve, never from the paper's asymptotic constants; the
reported radius is additionally capped by the theorem radius, below which
the returned word is proven to be in the right dual coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import decode_radius_qtb, fqtb_distance_lower, frs_e_prime_for_radius
from .classical import block_weight
from .css import PauliError, check_error, contract_decode
from .errors import DecodingFailed
from .gf import FieldCtx, coset_stride, frozen
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

@lru_cache(maxsize=16)
def _inverse_positions(ctx: FieldCtx, r: int, s: int) -> np.ndarray:
    """1/x at every position, shaped (group, r, s) as the slopes are; read-only."""
    return frozen(ctx.inv(ctx.units()).reshape(r, -1, s).transpose(1, 0, 2))


def _piecewise_distance(ctx: FieldCtx, blocks: np.ndarray, r: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The counting half of ``_piecewise_fit`` (``_decode`` reads its distance
    alone): the distance, the slopes value/position shaped (group, r, s), and
    per block how many blocks of its coset group share its slope row."""
    s = blocks.shape[1]
    slopes = ctx.mul(blocks.reshape(r, -1, s).transpose(1, 0, 2), _inverse_positions(ctx, r, s))
    counts = np.all(slopes[:, :, None, :] == slopes[:, None, :, :], axis=3).sum(axis=2)
    return int(counts.size - counts.max(axis=1).sum()), slopes, counts


def _piecewise_fit(ctx: FieldCtx, blocks: np.ndarray, r: int) -> tuple[int, np.ndarray]:
    """Folded distance of (n/s, s) blocks to the piecewise-linear space, with witness.

    The r blocks of a coset group share one slope vector beta, and block b
    agrees with beta * x exactly when its slopes value/position equal beta
    (division by a unit is a bijection). So the best beta is the slope row
    that the most blocks of the group share; ties go to the lexicographically
    smallest row. The group contributes r minus that count.
    """
    n_blocks, s = blocks.shape
    dist, slopes, counts = _piecewise_distance(ctx, blocks, r)
    best = counts.max(axis=1)
    pick = counts == best[:, None]
    for k in range(s):  # keep the rows that are smallest in columns 0..k
        col = np.where(pick, slopes[:, :, k], ctx.q)
        pick &= col == col.min(axis=1, keepdims=True)
    beta = slopes[np.arange(len(best)), pick.argmax(axis=1)]
    witness = ctx.mul(beta[:, None, :], ctx.units().reshape(r, -1, s).transpose(1, 0, 2))
    return dist, witness.transpose(1, 0, 2).reshape(n_blocks, s)


def dist_to_piecewise(ctx: FieldCtx, values: np.ndarray, r: int) -> tuple[int, np.ndarray]:
    """Exact distance to the span of per-coset linear functions, with witness.

    Per coset the best approximation is beta*x for the modal slope beta of
    value/position; ties break toward the smaller beta for determinism.
    """
    dist, witness = _piecewise_fit(ctx, np.asarray(values, dtype=np.int64).reshape(-1, 1), r)
    return dist, witness.reshape(-1)


def dist_to_piecewise_folded(ctx: FieldCtx, blocks: np.ndarray, r: int) -> tuple[int, np.ndarray]:
    """Exact folded distance to the piecewise-linear space, with witness."""
    return _piecewise_fit(ctx, np.asarray(blocks, dtype=np.int64), r)


# -- shared candidate machinery ------------------------------------------------------

def _shift_difference(ctx: FieldCtx, values: np.ndarray, r: int, i: int) -> np.ndarray:
    """w_r^-i * a(w_r^i x) - a(x), as an array in position order."""
    shift = i * coset_stride(ctx.q, r)
    wr_inv = ctx.units()[-shift % (ctx.q - 1)]
    return ctx.sub(ctx.mul(wr_inv, np.concatenate((values[shift:], values[:shift]))), values)


@lru_cache(maxsize=16)
def _unshift_factors(ctx: FieldCtx, r: int, i: int) -> np.ndarray:
    """1/(w_r^((j-1)i) - 1) for each exponent j < q-1, 0 where j = +-1 mod r; read-only."""
    j = np.arange(ctx.q - 1)
    invalid = (j % r == 1) | (j % r == r - 1)
    minus_one = ctx.sub(ctx.units()[(j - 1) * i % r * coset_stride(ctx.q, r)], 1)
    return frozen(np.where(invalid, 0, ctx.inv(np.where(invalid, 1, minus_one))))


def _map_back(ctx: FieldCtx, coeffs: np.ndarray, r: int, i: int) -> np.ndarray | None:
    """Undo the differencing on coefficients, or None if the candidate is invalid.

    Valid candidates vanish on exponents +-1 mod r, where the factor table
    cached per (field, r, i) holds 0; one product applies the other factors
    1/(w_r^((j-1)i) - 1), whose denominators are nonzero when r is prime."""
    factors = _unshift_factors(ctx, r, i)[: len(coeffs)]
    if coeffs[factors == 0].any():
        return None
    return ctx.mul(coeffs, factors)


@dataclass(frozen=True)
class DecOutcome:
    """Result of a classical Tamo-Barg decode."""

    word: np.ndarray  # the returned codeword (folded shape for fqTB)
    coeffs: np.ndarray  # its message polynomial on the TB exponents
    dual_distance: int  # distance of (word - input) to the piecewise space
    candidates: int
    list_sizes: tuple[int, ...]
    rs_radius: int
    decoded_shifts: tuple[int, ...]  # shifts whose list came from the list decoder


def _certifier(q: int, ell: int, s: int, radius: int):
    """``certify(diff)``: is a differenced word within ``radius`` blocks of s?
    None past the unique radius, where a list may hold several codewords."""
    if s * radius > (q - 1 - ell) // 2:
        return None
    return lambda diff: block_weight(diff, s) <= radius


def _decode(code: QtbCode | FqtbCode, values: np.ndarray, list_decode,
            rs_radius: int, e: int | None, certify) -> DecOutcome:
    """The pipeline both decoders share: up to r-1 list decodes plus argmin.

    ``values`` is a word or its (n/s, s) blocks. ``list_decode(diff)`` lists
    the message polynomials near a differenced word of that shape; candidates
    rank by ``_piecewise_distance``, with no witness. A shift where some
    candidate's differenced residual passes ``certify`` is a one-entry list
    of that candidate's image and is not decoded (see the module docstring);
    ``certify`` is None in the Guruswami-Sudan regime,
    where every shift is decoded. When ``e`` is given, callers promise
    dis(input, C) <= e and the output is checked against the contract
    dis(output - input, dual) <= e, raising DecodingFailed rather than ever
    returning silently wrong data.
    """
    ctx, r = code.ctx, code.r
    values = np.asarray(values, dtype=np.int64)
    flat = values.reshape(-1)
    candidates: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}  # coeffs, codeword
    list_sizes, decoded = [], []
    for i in range(1, r):
        if certify is not None and any(
                certify(_shift_difference(ctx, ctx.sub(flat, word), r, i))
                for _, word in candidates.values()):
            list_sizes.append(1)
            continue
        decoded.append(i)
        polys = list_decode(_shift_difference(ctx, flat, r, i).reshape(values.shape))
        list_sizes.append(len(polys))
        for g in polys:
            mapped = _map_back(ctx, g, r, i)
            if mapped is not None and (key := tuple(mapped.tolist())) not in candidates:
                candidates[key] = (mapped, evaluate_values(ctx, mapped))
    if not candidates:
        raise DecodingFailed("empty candidate list: input violated the decode radius")
    d, _, coeffs, word = min(  # ties go to the smallest coefficient vector
        (_piecewise_distance(ctx, ctx.sub(w, flat).reshape(len(values), -1), r)[0], key, c, w)
        for key, (c, w) in candidates.items())
    if e is not None and d > e:
        raise DecodingFailed(f"best candidate at piecewise distance {d} > promised e={e}")
    return DecOutcome(word=word.reshape(values.shape), coeffs=coeffs, dual_distance=d,
                      candidates=len(candidates), list_sizes=tuple(list_sizes),
                      rs_radius=rs_radius, decoded_shifts=tuple(decoded))


@lru_cache(maxsize=None)
def dec_c_radius(q: int, r: int, ell: int) -> int:
    """Radius this build's unfolded decoder guarantees.

    The theorem radius assumes list decoding at the Johnson bound; with the
    decoder's actual RS radius A, errors are still handled whenever either
    2e <= A (every differenced word is within A) or the averaged agreement
    bound lands within A (``frs_e_prime_for_radius`` at s = 1). Both are
    capped by the theorem radius, which is what makes the returned
    dual-coset guarantee kick in.
    """
    thm = decode_radius_qtb(q, r, ell)
    if thm <= 0:
        return 0
    rs_rad = best_feasible_radius_rs(q, ell, DEC_MULTIPLICITY_CAP)
    return min(thm, max(rs_rad // 2, frs_e_prime_for_radius(q, r, ell, 1, rs_rad)))


def dec_c(code: QtbCode, values: np.ndarray, e: int | None = None) -> DecOutcome:
    """Unfolded decoder: the shared pipeline over the RS list decoder."""
    ctx, ell = code.ctx, code.ell
    rs_rad = best_feasible_radius_rs(code.q, ell, DEC_MULTIPLICITY_CAP)
    return _decode(code, values,
                   lambda diff: list_decode_rs(ctx, ell, diff, rs_rad, m_cap=DEC_MULTIPLICITY_CAP),
                   rs_rad, e, _certifier(code.q, ell, 1, rs_rad))


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
                   radius, e, _certifier(code.q, ell, s, radius))


# -- quantum wrapper ----------------------------------------------------------------

def quantum_decode_radius(code: QtbCode | FqtbCode) -> int:
    if isinstance(code, FqtbCode):
        return dec_c_folded_radius(code.q, code.r, code.ell, code.s)
    return dec_c_radius(code.q, code.r, code.ell)


def quantum_decode(code: QtbCode | FqtbCode, err: PauliError) -> tuple[PauliError, PauliError]:
    """Full symplectic decode: syndromes -> two classical decodes -> residual,
    under ``css.contract_decode`` with the module radius (the CLI maps its
    DecodeContractViolation to its own exit code)."""
    folded = isinstance(code, FqtbCode)
    check_error(code.css, err)
    decoder, s = (dec_c_folded, code.s) if folded else (dec_c, 1)
    radius = quantum_decode_radius(code)
    weight = err.block_weight(s)
    within = weight <= radius

    def dec(t: np.ndarray) -> np.ndarray:
        word = t.reshape(-1, s) if folded else t
        return decoder(code, word, e=radius if within else None).word.reshape(-1)

    return contract_decode(code.css, err, dec, dec, weight, radius)
