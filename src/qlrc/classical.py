"""Classical GF(q)-linear codes: duals, exact weights, erasure decoding.

``min_weight_excluding(C, D)``, the package's exact distance oracle, finds
the minimum weight over C \\ D by Brouwer-Zimmermann enumeration: it weighs
words of information sets in order of message weight, one per line
{lambda*c : lambda != 0}, until the lower bound on every unweighed word
exceeds the best weight found. The sets are disjoint, unless the shift by
s positions (s the fold, else 1) maps C and D onto themselves, as it does
RS, TB and qTB codes and their duals in the omega^i order. Then C \\ D is
a union of shift orbits, and the RREF set with its n/s shifts serves: the
search weighs that one set and adds the shifts of the lightest words found.
Either way it returns the minimum-weight word a scan of C in message order
meets first, so its output does not depend on the search. The cap bounds
the number of words weighed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    AmbiguousErasure,
    CapExceeded,
    CheckNotInDual,
    FoldMismatch,
    InconsistentErasure,
    NotASubcode,
    ZeroPivot,
)
from .gf import FieldCtx, frozen, kernel, matmul, rref, solve_right
from .polycode import powers, support_tb

DEFAULT_CAP = 1 << 30


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code given by a full-rank basis G (k x n) over GF(q).

    G is eliminated once, at construction, and all else is read off that
    RREF, ``pivot_basis``: with pivots P and free columns F it is I on P, and
    the kernel basis H (``dual_basis``) is I on F. So ``apply`` (v[P] + block
    @ v[F]), ``residue`` (v[F] - v[P] @ block) and ``contains`` read only
    ``block``, the RREF on F, built at its first read; the vector that is s
    on F and 0 elsewhere has H x = s; and ``dual`` swaps the bases and P
    with F. Each array is read-only: G is a copy, the rest frozen in place.
    """

    ctx: FieldCtx
    basis: np.ndarray
    support: tuple[int, ...] | None = None
    pivot_basis: np.ndarray = field(init=False, repr=False)
    pivots: np.ndarray = field(init=False, repr=False)
    dual_basis: np.ndarray = field(init=False, repr=False)
    free: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.int64)  # a copy: never the caller's array
        if b.ndim != 2:
            raise ValueError("basis must be 2-D")
        if self.ctx.m == 1:
            b %= self.ctx.p
        r, pivots = rref(self.ctx, b)
        if len(pivots) != b.shape[0]:
            raise ValueError(f"basis has rank {len(pivots)} < {b.shape[0]} rows")
        h, free = kernel(self.ctx, r, pivots)
        for name, value in (("basis", b), ("pivot_basis", r), ("dual_basis", h),
                            ("pivots", np.array(pivots, dtype=np.int64)),
                            ("free", np.array(free, dtype=np.int64))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def block(self) -> np.ndarray:
        return frozen(self.pivot_basis[:, self.free])

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``pivot_basis @ v``; a stack of vectors, one per row, maps row by row."""
        v = np.asarray(v, dtype=np.int64)  # take(axis=-1) is v[..., cols], without its cost
        at_free = matmul(self.ctx, self.block, v.take(self.free, axis=-1).T).T
        return self.ctx.add(v.take(self.pivots, axis=-1), at_free)

    def residue(self, v: np.ndarray) -> np.ndarray:
        """v (each row of a stack) modulo the code, on ``free``: 0 iff a codeword."""
        v = np.asarray(v, dtype=np.int64)
        at_pivots = matmul(self.ctx, v.take(self.pivots, axis=-1), self.block)
        return self.ctx.sub(v.take(self.free, axis=-1), at_pivots)

    def contains(self, v: np.ndarray) -> bool:  # v, or every row of a stack
        return not np.any(self.residue(v))

    def dual(self) -> "LinearCode":
        """The dual code, with basis H and the two bases swapped: no elimination.
        It is built once per code, so its ``block`` is too."""
        return self._dual

    @cached_property
    def _dual(self) -> "LinearCode":
        dual = object.__new__(LinearCode)
        for name, value in (("ctx", self.ctx), ("basis", self.dual_basis), ("support", None),
                            ("pivot_basis", self.dual_basis), ("dual_basis", self.pivot_basis),
                            ("pivots", self.free), ("free", self.pivots)):
            object.__setattr__(dual, name, value)
        return dual

    def same_row_space(self, other: "LinearCode") -> bool:
        return (self.ctx == other.ctx and self.n == other.n and self.dim == other.dim
                and self.contains(other.basis))

    def is_subcode_of(self, other: "LinearCode") -> bool:
        return other.contains(self.basis)

    def random_codeword(self, rng: np.random.Generator) -> np.ndarray:
        msg = rng.integers(0, self.ctx.q, size=self.dim)
        return matmul(self.ctx, msg, self.basis)


def eval_code(ctx: FieldCtx, support: tuple[int, ...]) -> LinearCode:
    """The polynomial evaluation code ev(F_q[X]^support)."""
    support = tuple(sorted(support))
    return LinearCode(ctx, powers(ctx, support), support=support)


def rs_code(ctx: FieldCtx, ell: int) -> LinearCode:
    """Reed-Solomon: evaluations of polynomials of degree < ell."""
    return eval_code(ctx, tuple(range(ell)))


def tb_code(ctx: FieldCtx, r: int, ell: int) -> LinearCode:
    return eval_code(ctx, support_tb(ctx.q, r, ell))


@dataclass(frozen=True)
class FoldedCode:
    """A linear code plus its folding parameter; weight counts blocks."""

    code: LinearCode
    s: int

    def __post_init__(self):
        if self.code.n % self.s != 0:
            raise FoldMismatch(f"s={self.s} does not divide block length {self.code.n}")

    @property
    def block_count(self) -> int:
        return self.code.n // self.s


def frs_code(ctx: FieldCtx, ell: int, s: int) -> FoldedCode:
    return FoldedCode(rs_code(ctx, ell), s)


def block_weight(word: np.ndarray, s: int) -> int:
    """The number of length-s blocks of word with a nonzero entry."""
    return int(np.count_nonzero(np.asarray(word).reshape(-1, s).any(axis=1)))


# -- exhaustive enumeration ----------------------------------------------------

def _message_chunks(q: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    total = q**k
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // powers[None, :]) % q


def iter_codeword_chunks(ctx: FieldCtx, basis: np.ndarray,
                         chunk: int = 1 << 18) -> Iterator[np.ndarray]:
    """All q^k codewords of the row space, in message order, chunked."""
    k, n = basis.shape
    if k == 0:
        yield np.zeros((1, n), dtype=np.int64)
        return
    for msgs in _message_chunks(ctx.q, k, chunk):
        yield matmul(ctx, msgs, basis)


def quotient_representatives(ctx: FieldCtx, basis: np.ndarray,
                             sub_basis: np.ndarray) -> np.ndarray:
    """The rows of ``basis``, in order, that are independent modulo the span
    of ``sub_basis`` (independent rows) and of the rows taken before them.

    Row j of a stack is independent of the rows above it exactly when column
    j of the transposed stack is a pivot column, so one elimination serves.
    """
    k = len(sub_basis)
    _, pivots = rref(ctx, np.vstack([sub_basis, basis]).T)
    return np.asarray(basis, dtype=np.int64)[[c - k for c in pivots if c >= k]]


def min_weight_excluding(code: LinearCode, subcode: LinearCode,
                         cap: int = DEFAULT_CAP, fold_s: int | None = None,
                         ) -> tuple[float, np.ndarray | None]:
    """Exact minimum Hamming weight over code \\ subcode, with a witness.

    Returns (inf, None) when the two codes coincide. With ``fold_s`` the
    weight counts nonzero length-``fold_s`` blocks; a ``fold_s`` that is not
    a positive divisor of n raises FoldMismatch. The cap bounds the words
    weighed: a pass that would take the count past it raises CapExceeded
    with the count it needs.

    Brouwer-Zimmermann enumeration (Zimmermann 1996; Grassl 2006). Each set
    j of ``_information_sets`` has a generator whose first r_j rows are the
    identity on its r_j columns and whose other rows vanish there. Level L
    of a set weighs the words of its messages of weight L whose lowest
    nonzero digit is 1, one word per line {lambda*c : lambda != 0}, and
    drops the words of the subcode. A word that set j has not met by level
    L has a message of weight at least L + 1 there, so it is nonzero in at
    least L + 1 - (k - r_j) of set j's columns. With s = fold_s (or 1), a
    word of b nonzero blocks has at most s*b nonzero symbols.

    Disjoint sets advance one level at a time, in turn, until those counts,
    summed over the sets, exceed s times the best weight. But when the shift
    by s positions maps both codes onto themselves (one column gather and
    one ``contains`` each), only the RREF set is weighed, until n(L + 1) >
    s*k*best. Then a word of b <= best nonzero blocks has a weighed shift:
    otherwise each of its n/s shifts, all in code \\ subcode, is nonzero on
    at least L + 1 pivots; summed over the shifts, a nonzero symbol at i
    counts once per pivot in i's class mod s, so at most k per nonzero
    block, and b*k >= (n/s)(L + 1) > k*best. So adding the n/s shifts of
    the words found puts every minimum-weight line in the pool, as the
    disjoint sets do by meeting each one.

    The witness is the minimum-weight word of lowest message index over the
    basis [subcode rows | quotient representatives], the first one a scan in
    message order meets: each line's lowest-index word is the one whose
    message has highest nonzero digit 1. It depends on the pool only
    through the set of lines in it, so the shift rule cannot change it. Nor
    can the pool bound: past one chunk, the pool's shifts are replaced by
    their lowest-index word, whose shifts lie on lines already in the pool.
    """
    ctx = code.ctx
    s = 1 if fold_s is None else fold_s
    if s <= 0 or code.n % s:
        raise FoldMismatch(f"fold_s={fold_s} is not a positive divisor of the block length {code.n}")
    if not subcode.is_subcode_of(code):
        raise NotASubcode("second argument must be a subcode of the first")
    k = code.dim
    if k == subcode.dim:
        return math.inf, None

    orbit = (np.arange(code.n) + np.arange(0, code.n, s)[:, None]) % code.n  # row j: shift by j*s
    cyclic = code.contains(code.basis[:, orbit[-1]]) and subcode.contains(subcode.basis[:, orbit[-1]])
    orbit = orbit if cyclic else orbit[:1]  # the shifts of a found word that join the pool
    sets = list(itertools.islice(_information_sets(code), 1 if cyclic else None))
    bound = sum(r == k for _, r in sets)  # level 0: a nonzero word is nonzero on each full set
    counted, per_block = (code.n, s * k) if cyclic else (1, s)  # see the docstring
    count, chunk = np.min_scalar_type(code.n), max(1, _CHUNK_CELLS // code.n)
    best, found, weighed = math.inf, [], 0
    for level, j in itertools.product(range(1, k + 1), range(len(sets))):
        weighed += math.comb(k, level) * (ctx.q - 1) ** (level - 1)  # the pass's lines
        if weighed > cap:
            raise CapExceeded(f"the search needs {weighed} words weighed > cap {cap}",
                              required=weighed)
        for msgs in _line_messages(ctx.q, k, level, chunk):
            words = matmul(ctx, sets[j][0], msgs)  # column i: the word of message i
            nonzero = words != 0
            if s > 1:
                nonzero = nonzero.reshape(-1, s, nonzero.shape[1]).any(axis=1)
            w = nonzero.sum(axis=0, dtype=count)
            keep = w <= best
            if subcode.dim and keep.any():
                keep[keep] = subcode.residue(words.T[keep]).any(axis=1)
            if keep.any():
                low = int(w[keep].min())
                if low < best:
                    best, found = low, []
                found.append(words.T[keep & (w == best)])
                if sum(map(len, found)) * len(orbit) > chunk:  # see the docstring
                    pool = np.concatenate(found)[:, orbit].reshape(-1, code.n)
                    found = [_lowest_index_word(code, subcode, pool)[None]]
        bound += level + sets[j][1] >= k  # set j's count L + 1 - (k - r_j) is positive
        if bound * counted > per_block * best:
            break
    return best, _lowest_index_word(code, subcode, np.concatenate(found)[:, orbit].reshape(-1, code.n))


def _information_sets(code: LinearCode) -> Iterator[tuple[np.ndarray, int]]:
    """Generators of ``code`` systematic on disjoint column sets, transposed
    (n x k), with their ranks r_j. The first is the RREF, on its pivots; each
    next one eliminates the columns no set took yet, placed ahead of the
    others. A generator of rank r_j < k has its other rows zero on all the
    columns still untaken."""
    r, n = code.pivot_basis, code.n
    yield frozen(r.T), code.dim
    taken = list(code.pivots)
    while len(taken) < n:
        order = sorted(set(range(n)).difference(taken)) + taken
        g, pivots = rref(code.ctx, r[:, order])
        new = [order[c] for c in pivots if c < n - len(taken)]
        if not new:  # the untaken columns are zero on the whole code
            break
        yield frozen(g[:, np.argsort(order)].T), len(new)
        taken += new


_CHUNK_CELLS = 1 << 20  # codeword symbols weighed at once


def _line_messages(q: int, k: int, weight: int, chunk: int) -> Iterator[np.ndarray]:
    """The length-k messages of the given weight whose lowest nonzero digit
    is 1, as columns, at most ``chunk`` at a time: C(k, weight) *
    (q-1)^(weight-1) in all, one per line."""
    for digits in _message_chunks(q - 1, weight - 1, chunk):
        values = np.zeros((weight + 1, len(digits)), dtype=np.int64)  # last row: off the support
        values[:weight] = 1
        values[1:weight] += digits.T
        supports = itertools.combinations(range(k), weight)
        step = max(1, chunk // len(digits))
        while batch := list(itertools.islice(supports, step)):
            at = np.full((k, len(batch)), weight)  # at[i, b]: digit i's place in support b
            at[np.array(batch).T, np.arange(len(batch))] = np.arange(weight)[:, None]
            yield values[at].reshape(k, -1)


def _lowest_index_word(code: LinearCode, subcode: LinearCode, words: np.ndarray) -> np.ndarray:
    """Among ``words`` and their multiples, the word of lowest message index
    over the basis B = [subcode rows | quotient representatives].

    On the RREF's pivot columns P a codeword is its own coordinate vector,
    so one elimination of [[subcode rows; code rows][:, P]^T | I] picks B
    (its pivot columns, as ``quotient_representatives`` does) and returns
    the inverse of B[:, P]^T in place of I. Each message is then scaled so
    its highest nonzero digit is 1, the lowest index on its line."""
    ctx, k, cols = code.ctx, code.dim, code.pivots
    a = np.vstack([subcode.basis[:, cols], code.basis[:, cols]]).T
    r, _ = rref(ctx, np.hstack([a, np.eye(k, dtype=np.int64)]))
    msgs = matmul(ctx, words[:, cols], r[:, -k:].T)
    top = k - 1 - np.argmax(msgs[:, ::-1] != 0, axis=1)
    scale = ctx.inv(msgs[np.arange(len(msgs)), top])
    i = int(np.lexsort(ctx.mul(msgs, scale[:, None]).T)[0])
    return np.asarray(ctx.mul(words[i], scale[i]), dtype=np.int64)


def min_weight(code: LinearCode, cap: int = DEFAULT_CAP,
               fold_s: int | None = None) -> tuple[float, np.ndarray | None]:
    """Exact minimum nonzero weight (the code's distance)."""
    zero = LinearCode(code.ctx, np.zeros((0, code.n), dtype=np.int64))
    return min_weight_excluding(code, zero, cap=cap, fold_s=fold_s)


# -- erasure decoding ------------------------------------------------------------

def erasure_decode(code: LinearCode, values: np.ndarray, erased: np.ndarray) -> np.ndarray:
    """Fill erased positions of a codeword; exact via Gaussian elimination.

    ``erased`` is a boolean mask. Raises AmbiguousErasure when more than one
    codeword matches, InconsistentErasure when none does.
    """
    ctx = code.ctx
    values = np.asarray(values, dtype=np.int64)
    erased = np.asarray(erased, dtype=bool)
    keep = ~erased
    g_keep = code.basis[:, keep]
    msg, ker = solve_right(ctx, g_keep.T, values[keep])
    if len(ker):
        raise AmbiguousErasure(f"{int(erased.sum())} erasures leave a free message subspace")
    if msg is None:
        raise InconsistentErasure("unerased positions match no codeword")
    return matmul(ctx, msg, code.basis)


def local_recover_symbol(code: LinearCode, values: np.ndarray, i: int,
                         check: np.ndarray) -> int:
    """Recover symbol i of a codeword from a dual check covering i.

    Only the other positions in the check's support are read; the result is
    the unique value making the check vanish.
    """
    ctx = code.ctx
    check = np.asarray(check, dtype=np.int64)
    if not code.dual().contains(check):
        raise CheckNotInDual("supplied check is not a parity check of the code")
    if check[i] == 0:
        raise ZeroPivot(f"check does not cover position {i}")
    others = np.flatnonzero(check)
    others = others[others != i]
    values = np.asarray(values, dtype=np.int64)
    return int(ctx.neg(ctx.div(matmul(ctx, check[others], values[others]), check[i])))
