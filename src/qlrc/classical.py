"""Classical GF(q)-linear codes: duals, exact weights, erasure decoding.

The exact minimum-weight machinery is the workhorse oracle of the whole
package. ``min_weight_excluding(C, D)`` enumerates C grouped by its cosets
of D, so "min weight over C \\ D" never needs a membership test: a word is
outside D exactly when its coset label is nonzero. Scaling by a nonzero
constant keeps both the weight and the coset label's being nonzero, so it
weighs one word per line {lambda*c : lambda != 0}, about q^dim(C)/(q-1)
words, and returns the minimum-weight word of lowest message index. The
cap still bounds q^dim(C). Enumeration is chunked and vectorized: the
codewords of the low message digits are tabled once with ``gf.matmul``,
and a chunk is one broadcast comparison against a few high-digit words.

``min_weight_below`` is the complementary oracle: an increasing-weight
exhaustive scan that is exact whenever the true distance is small, at cost
independent of the code dimension. The two are cross-checked in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
from .gf import FieldCtx, RowSpace, kernel, matmul, rank, rref, solve_right
from .polycode import powers, support_tb

DEFAULT_CAP = 1 << 30


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code given by a full-rank basis (k x n) over GF(q).

    The basis G is eliminated once, at construction, and everything else is
    read off that RREF. With pivots P and free columns F, the kernel basis H
    (``dual_basis``) has H[:, F] = I: G = [I | A] up to column order gives
    H = [-A^T | I]. So the RREF rows are the pivot basis of ``row_space``, H
    with "pivots" F is the pivot basis of ``dual_space``, and the vector that
    is s on F and 0 elsewhere has syndrome H x = s.
    """

    ctx: FieldCtx
    basis: np.ndarray
    support: tuple[int, ...] | None = None
    row_space: RowSpace = field(init=False, repr=False)
    dual_space: RowSpace = field(init=False, repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.int64)
        if b.ndim != 2:
            raise ValueError("basis must be 2-D")
        b = b % self.ctx.p if self.ctx.m == 1 else b
        r, pivots = rref(self.ctx, b)
        if len(pivots) != b.shape[0]:
            raise ValueError(f"basis has rank {len(pivots)} < {b.shape[0]} rows")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "row_space", RowSpace.from_pivot_basis(self.ctx, r, pivots))
        h, free = kernel(self.ctx, r, pivots)
        object.__setattr__(self, "dual_space", RowSpace.from_pivot_basis(self.ctx, h, free))

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, word: np.ndarray) -> bool:
        return self.row_space.contains(np.asarray(word, dtype=np.int64))

    @property
    def dual_basis(self) -> np.ndarray:
        """Rows spanning the dual code: the parity-check matrix H, read-only."""
        return self.dual_space.pivot_basis

    def dual(self) -> "LinearCode":
        return LinearCode(self.ctx, self.dual_basis)

    def same_row_space(self, other: "LinearCode") -> bool:
        if self.ctx != other.ctx or self.n != other.n or self.dim != other.dim:
            return False
        return all(self.contains(row) for row in other.basis)

    def is_subcode_of(self, other: "LinearCode") -> bool:
        return all(other.contains(row) for row in self.basis)

    def random_codeword(self, rng: np.random.Generator) -> np.ndarray:
        msg = rng.integers(0, self.ctx.q, size=self.dim)
        return encode(self.ctx, self.basis, msg)


def encode(ctx: FieldCtx, basis: np.ndarray, message: np.ndarray) -> np.ndarray:
    return matmul(ctx, message, basis)


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
    w = np.asarray(word)
    return int(np.count_nonzero(np.any(w.reshape(-1, s) != 0, axis=1)))


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
    weight counts nonzero length-``fold_s`` blocks instead of symbols. The
    cap bounds q^dim(code), the size of the code; a larger code raises
    CapExceeded.

    The basis is ordered [subcode rows | quotient representatives], so a
    codeword lies outside the subcode exactly when its message has a nonzero
    quotient digit. Nonzero scaling keeps the weight and the side of the
    subcode, so one word per line {lambda*c : lambda != 0} is scanned: the one
    whose highest nonzero digit is 1, (q^dim(code) - q^dim(subcode))/(q - 1)
    words in all. The witness is the minimum-weight word of lowest message
    index, which is the lowest-index member of its line.
    """
    ctx = code.ctx
    if not subcode.is_subcode_of(code):
        raise NotASubcode("second argument must be a subcode of the first")
    t = code.dim - subcode.dim
    if t == 0:
        return math.inf, None
    total = ctx.q**code.dim
    if total > cap:
        raise CapExceeded(f"enumeration needs {total} > cap {cap}", required=total)

    basis = np.vstack([subcode.basis, quotient_representatives(ctx, code.basis, subcode.basis)])
    assert basis.shape[0] == code.dim

    best = math.inf
    witness = None
    for nonzero, word_at in _weight_scan_chunks(ctx, basis, subcode.dim):
        if fold_s is not None:
            nonzero = np.any(nonzero.reshape(-1, fold_s, nonzero.shape[1]), axis=1)
        w = nonzero.sum(axis=0, dtype=np.min_scalar_type(nonzero.shape[0]))
        i = int(np.argmin(w))
        if w[i] < best:
            best = int(w[i])
            witness = word_at(i)
            if best == 1:
                break
    return best, witness


_LOW_TABLE_ROWS = 1 << 14  # the low message digits are tabled once, at most this many rows
_SCAN_CHUNK = 1 << 19  # words per chunk


def _weight_scan_chunks(ctx: FieldCtx, basis: np.ndarray, skip_digits: int):
    """Chunked stream of one codeword per line, tuned for weight scans.

    Covers, in increasing index order, the messages in [q^j, 2*q^j) for
    j = ``skip_digits`` .. k-1: those whose highest nonzero digit is 1 and
    sits at or above position ``skip_digits``. Each word is a row of a table
    of the low digits' codewords, built once, plus one high-digit codeword;
    the sum is nonzero exactly where the table entry differs from the
    negated high codeword, so a chunk is one broadcast comparison and no
    word is reduced until it is a witness.

    Yields (nonzero, word_at): ``nonzero[j, i]`` tells whether symbol j of
    the chunk's i-th word is nonzero, and ``word_at(i)`` builds that word.
    """
    k, n = basis.shape
    q = ctx.q
    small = np.min_scalar_type(q - 1)
    a = 0
    while a < k - 1 and q ** (a + 1) <= _LOW_TABLE_ROWS:
        a += 1
    table = matmul(ctx, next(_message_chunks(q, a, q**a)), basis[:a])
    table_t = table.T.astype(small, order="C")
    for top in range(skip_digits, k):
        low_digits = min(top, a)
        rows = q**low_digits
        for digits in _message_chunks(q, top - low_digits, max(1, _SCAN_CHUNK // rows)):
            digits = np.pad(digits, ((0, 0), (0, 1)), constant_values=1)  # the top digit is 1
            high = matmul(ctx, digits, basis[low_digits:top + 1])
            minus_t = ctx.neg(high).T.astype(small, order="C")
            nonzero = table_t[:, None, :rows] != minus_t[:, :, None]

            def word_at(i, high=high, rows=rows):
                h, lo = divmod(i, rows)
                return ctx.add(table[lo], high[h])

            yield nonzero.reshape(n, -1), word_at


def min_weight(code: LinearCode, cap: int = DEFAULT_CAP,
               fold_s: int | None = None) -> tuple[float, np.ndarray | None]:
    """Exact minimum nonzero weight (the code's distance)."""
    zero = LinearCode(code.ctx, np.zeros((0, code.n), dtype=np.int64))
    return min_weight_excluding(code, zero, cap=cap, fold_s=fold_s)


def min_weight_below(parity: np.ndarray, ctx: FieldCtx, max_weight: int,
                     exclude: RowSpace | None = None,
                     cap: int = DEFAULT_CAP) -> tuple[int | None, np.ndarray | None]:
    """Smallest-weight word of ker(parity) [outside `exclude`] by weight scan.

    Scans candidate supports of weight 1, 2, ... up to ``max_weight``. Exact:
    if it returns w, no lighter qualifying word exists; returns (None, None)
    when every word in range is ruled out. Cost grows as C(n, w)*(q-1)^w and
    is capped.
    """
    parity = np.asarray(parity, dtype=np.int64)
    n = parity.shape[1]
    q = ctx.q
    nonzero = np.arange(1, q, dtype=np.int64)
    for w in range(1, max_weight + 1):
        n_candidates = math.comb(n, w) * (q - 1) ** w
        if n_candidates > cap:
            raise CapExceeded(f"weight-{w} scan needs {n_candidates} > cap {cap}",
                              required=n_candidates)
        # all value patterns on a w-support
        patterns = np.stack(np.meshgrid(*([nonzero] * w), indexing="ij"), axis=-1)
        patterns = patterns.reshape(-1, w)
        for supp in itertools.combinations(range(n), w):
            cols = parity[:, supp]
            syn = matmul(ctx, patterns, cols.T)  # syndromes of every pattern on this support
            hits = np.nonzero(~np.any(syn, axis=1))[0]
            for h in hits.tolist():
                word = np.zeros(n, dtype=np.int64)
                word[list(supp)] = patterns[h]
                if exclude is not None and exclude.contains(word):
                    continue
                return w, word
    return None, None


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
    if rank(ctx, g_keep) < code.dim:
        raise AmbiguousErasure(f"{int(erased.sum())} erasures leave a free message subspace")
    msg = solve_right(ctx, g_keep.T, values[keep])
    if msg is None:
        raise InconsistentErasure("unerased positions match no codeword")
    return encode(ctx, code.basis, msg)


def local_recover_symbol(code: LinearCode, values: np.ndarray, i: int,
                         check: np.ndarray) -> int:
    """Recover symbol i of a codeword from a dual check covering i.

    Only the other positions in the check's support are read; the result is
    the unique value making the check vanish.
    """
    ctx = code.ctx
    check = np.asarray(check, dtype=np.int64)
    if not code.dual_space.contains(check):
        raise CheckNotInDual("supplied check is not a parity check of the code")
    if check[i] == 0:
        raise ZeroPivot(f"check does not cover position {i}")
    others = np.flatnonzero(check)
    others = others[others != i]
    values = np.asarray(values, dtype=np.int64)
    return int(ctx.neg(ctx.div(matmul(ctx, check[others], values[others]), check[i])))
