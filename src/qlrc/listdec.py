"""List decoders for Reed-Solomon and folded Reed-Solomon codes.

Three engines, all returning the complete list of message polynomials
within the requested radius (every candidate is distance-filtered before
it is returned, so the output is exact, never a superset):

* Gao's decoder (S. Gao, "A new algorithm for decoding Reed-Solomon
  codes", 2003) for radii up to the unique-decoding bound, with erasures.
  At those radii Hamming balls are disjoint, so the one candidate it finds
  is the whole list.
* Guruswami-Sudan bivariate interpolation with multiplicities, up to the
  Johnson radius (q-1)(1 - sqrt(ell/(q-1))). The multiplicity needed
  grows without bound as the radius approaches Johnson; calls that would
  exceed the multiplicity cap raise CapExceeded with the required value.
* the linear-algebraic folded decoder: degree-1 interpolation in v shifted
  evaluations, followed by solving the small linear system the candidate
  message must satisfy. Its guaranteed radius depends on the chosen v and
  is reported by ``frs_achieved_radius`` rather than asserted from
  asymptotic constants. When s*e <= (n-ell)//2 (every v = 1 choice is such
  a radius) the folded list is Gao's answer on the unfolded word, kept if
  it is within e blocks: a message within e blocks is within s*e symbols,
  where there is at most one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classical import FoldedCode, LinearCode, block_weight, iter_codeword_chunks
from .errors import CapExceeded, RadiusTooLarge, ValidationError
from .gf import FieldCtx, matmul, nullspace, solve_right
from .polycode import evaluate_values, powers

GS_MULTIPLICITY_CAP = 8
FRS_SHIFT_CAP = 3  # interpolation variables; solution space has dim < v
FRS_ENUM_CAP = 1 << 16
_FRS_CHUNK = 1 << 10  # folded candidates evaluated at once


def johnson_radius_rs(q: int, ell: int) -> int:
    """floor((q-1)(1 - sqrt(ell/(q-1)))) = n - ceil(sqrt(n*ell)), exactly."""
    n = q - 1
    s = math.isqrt(n * ell)
    return n - s if s * s == n * ell else n - s - 1


def _monomial_count(d: int, wy: int) -> int:
    # monomials X^a Y^b with a + wy*b <= d (wy >= 1)
    if d < 0:
        return 0
    return sum(d - wy * b + 1 for b in range(d // wy + 1))


def gs_multiplicity(q: int, ell: int, e: int, m_cap: int = GS_MULTIPLICITY_CAP) -> tuple[int, int]:
    """Smallest interpolation multiplicity (and weighted degree) for radius e."""
    n = q - 1
    if e > johnson_radius_rs(q, ell):
        raise RadiusTooLarge(f"e={e} exceeds the Johnson radius {johnson_radius_rs(q, ell)}")
    t = n - e
    wy = max(ell - 1, 1)
    m = 1
    while True:
        d = t * m - 1
        if _monomial_count(d, wy) > n * m * (m + 1) // 2:
            if m > m_cap:
                raise CapExceeded(
                    f"radius e={e} on RS({q},{ell}) needs interpolation multiplicity "
                    f"{m} > cap {m_cap}", required=m)
            return m, d
        m += 1
        assert m <= 4 * n  # the Johnson precondition guarantees termination


def best_feasible_radius_rs(q: int, ell: int, m_cap: int) -> int:
    """Largest radius decodable without exceeding the multiplicity cap."""
    for e in range(johnson_radius_rs(q, ell), -1, -1):
        try:
            gs_multiplicity(q, ell, e, m_cap)
            return e
        except CapExceeded:
            continue
    return 0


def _distance(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(np.asarray(a) != np.asarray(b)))


def _dedupe_sorted(cands: list[np.ndarray]) -> list[np.ndarray]:
    seen = {}
    for c in cands:
        seen.setdefault(tuple(c.tolist()), c)
    return [seen[k] for k in sorted(seen)]


def list_decode_rs(ctx: FieldCtx, ell: int, received: np.ndarray, e: int,
                   m_cap: int = GS_MULTIPLICITY_CAP) -> list[np.ndarray]:
    """All message polynomials of degree < ell within distance e of received.

    Returns fixed-length coefficient arrays, sorted. Radii up to
    (n-ell)//2 go through Gao's unique decoder; larger ones through
    Guruswami-Sudan at the minimal sufficient multiplicity.
    """
    n = ctx.q - 1
    received = np.asarray(received, dtype=np.int64)
    if received.shape != (n,):
        raise ValidationError(f"received word must have length {n}")
    if not 1 <= ell <= n:
        raise ValidationError(f"ell={ell} out of range")
    if e < 0:
        raise ValidationError("radius must be nonnegative")
    if e > johnson_radius_rs(ctx.q, ell):
        raise RadiusTooLarge(
            f"e={e} exceeds the Johnson radius {johnson_radius_rs(ctx.q, ell)}")

    if e <= (n - ell) // 2:
        f = rs_unique_decode(ctx, ell, received)
        cands = [] if f is None else [f]
    else:
        cands = _guruswami_sudan(ctx, ell, received, e, m_cap)
    out = [c for c in cands if _distance(evaluate_values(ctx, c), received) <= e]
    out = _dedupe_sorted(out)
    assert all(len(c) == ell for c in out)
    return out


class _PrimeOps:
    """Scalar arithmetic of GF(p) on Python ints."""

    def __init__(self, p: int):
        self.p = p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def sub_scaled(self, acc: list[int], c: int, b: list[int], shift: int) -> None:
        """acc[shift + j] -= c * b[j], in place."""
        p, end = self.p, shift + len(b)
        acc[shift:end] = [(a - c * bj) % p for a, bj in zip(acc[shift:end], b)]


class _ExtOps:
    """Scalar arithmetic of GF(p^m) on Python ints: exp/log tables for
    products, a Zech-log table (log of 1 + omega^i) for sums."""

    def __init__(self, ctx: FieldCtx):
        self.n = ctx.q - 1
        self.exp = ctx._exp.tolist()  # length 2n, so log sums need no reduction
        self.log = ctx._log.tolist()
        self.zech = [self.log[v] if v else -1 for v in ctx.add(1, ctx.units()).tolist()]
        self.log_neg1 = self.n // 2 if ctx.p != 2 else 0  # -1 = omega^(n/2)

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la = self.log[a]
        z = self.zech[self.log[b] - la]  # a negative index wraps mod n
        return 0 if z < 0 else self.exp[la + z]

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        return self.exp[self.n - self.log[a]]

    def sub_scaled(self, acc: list[int], c: int, b: list[int], shift: int) -> None:
        """acc[shift + j] -= c * b[j], in place."""
        if not c:
            return
        exp, log, add = self.exp, self.log, self.add
        lc = (log[c] + self.log_neg1) % self.n
        for j, bj in enumerate(b, shift):
            if bj:
                acc[j] = add(acc[j], exp[lc + log[bj]])


@lru_cache(maxsize=8)
def _scalar_ops(ctx: FieldCtx) -> _PrimeOps | _ExtOps:
    return _PrimeOps(ctx.p) if ctx.m == 1 else _ExtOps(ctx)


@lru_cache(maxsize=4)
def _idft_matrix(ctx: FieldCtx) -> np.ndarray:
    """Interpolation over the positions omega^i: coefficient j of the
    polynomial through y is n^-1 sum_i y_i omega^(-ij), and n^-1 = -1."""
    return ctx.neg(powers(ctx, -np.arange(ctx.q - 1)))


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(ops: _PrimeOps | _ExtOps, num: list[int],
                 den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of coefficient lists (constant term first);
    ``den`` is trimmed and nonzero."""
    rem = _trim(list(num))
    dd = len(den) - 1
    if len(rem) <= dd:
        return [], rem
    inv_lead = ops.inv(den[-1])
    quot = [0] * (len(rem) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = ops.mul(rem[i + dd], inv_lead)
        if c:
            quot[i] = c
            ops.sub_scaled(rem, c, den, i)
    return quot, _trim(rem[:dd])


def rs_unique_decode(ctx: FieldCtx, ell: int, received: np.ndarray,
                     erased: np.ndarray | None = None) -> np.ndarray | None:
    """Gao's errors-and-erasures decoder for RS(q, ell) on GF(q)*.

    Returns the length-ell message of the codeword within (N - ell)//2
    errors of ``received`` on its N unerased positions (there is at most
    one), or None when there is none or N < ell. Interpolate g1 through the
    unerased points, take g0 = (x^n - 1) / erasure locator, run the
    extended Euclidean algorithm on (g0, g1) until the remainder g has
    degree < (N + ell)/2, and divide g by the multiplier v of g1. Since
    g = u*g0 + v*g1, the quotient agrees with received wherever v does not
    vanish, so it is within deg v <= (N - ell)/2 errors.
    """
    n = ctx.q - 1
    ops = _scalar_ops(ctx)
    g0 = [ctx.p - 1] + [0] * (n - 1) + [1]  # x^n - 1; p - 1 encodes -1
    g1 = _trim(matmul(ctx, _idft_matrix(ctx), received).tolist())
    n_avail = n
    if erased is not None and np.any(erased):
        locator = [1]
        for x in ctx.units()[erased].tolist():
            locator = [0] + locator
            ops.sub_scaled(locator, x, locator[1:], 0)
        g0, _ = _poly_divmod(ops, g0, locator)
        g1 = _poly_divmod(ops, g1, g0)[1]
        n_avail -= len(locator) - 1
    if n_avail < ell:
        return None
    v0, v1 = [], [1]
    while 2 * (len(g1) - 1) >= n_avail + ell:
        quot, rem = _poly_divmod(ops, g0, g1)
        v2 = v0 + [0] * (len(quot) + len(v1) - 1 - len(v0))
        for i, c in enumerate(quot):
            ops.sub_scaled(v2, c, v1, i)
        g0, g1, v0, v1 = g1, rem, v1, _trim(v2)
    f, rem = _poly_divmod(ops, g1, v1)
    if rem or len(f) > ell:
        return None
    out = np.zeros(ell, dtype=np.int64)
    out[: len(f)] = f
    return out


def _binom_field(ctx: FieldCtx, a: int, b: int) -> int:
    return math.comb(a, b) % ctx.p


def _guruswami_sudan(ctx: FieldCtx, ell: int, received: np.ndarray, e: int,
                     m_cap: int) -> list[np.ndarray]:
    n = ctx.q - 1
    m, d = gs_multiplicity(ctx.q, ell, e, m_cap)
    wy = max(ell - 1, 1)
    monomials = [(a, b) for b in range(d // wy + 1) for a in range(d - wy * b + 1)]
    col = {mono: i for i, mono in enumerate(monomials)}
    xs = ctx.units()

    n_rows = n * m * (m + 1) // 2
    mat = np.zeros((n_rows, len(monomials)), dtype=np.int64)
    row = 0
    # Hasse-derivative constraints: coefficient of X^da Y^db in Q(X+x, Y+y)
    for pt in range(n):
        x, y = int(xs[pt]), int(received[pt])
        xpow = [1]
        ypow = [1]
        for _ in range(d):
            xpow.append(ctx.mul(xpow[-1], x))
        max_b = d // wy
        for _ in range(max_b):
            ypow.append(ctx.mul(ypow[-1], y))
        for da in range(m):
            for db in range(m - da):
                r = mat[row]
                for (a, b), ci in col.items():
                    if a < da or b < db:
                        continue
                    c = ctx.mul(_binom_field(ctx, a, da), _binom_field(ctx, b, db))
                    c = ctx.mul(c, ctx.mul(xpow[a - da], ypow[b - db]))
                    r[ci] = c
                row += 1
    ker = nullspace(ctx, mat)
    assert ker.shape[0] > 0  # guaranteed by the monomial count
    qcoef = None
    for v in ker:
        if np.any(v):
            qcoef = v
            break
    deg_y = d // wy
    q_poly = np.zeros((d + 1, deg_y + 1), dtype=np.int64)
    for (a, b), ci in col.items():
        q_poly[a, b] = qcoef[ci]
    return _roth_ruckenstein(ctx, q_poly, ell)


def _bivar_strip_x(q: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.any(q != 0, axis=1))[0]
    if nz.size == 0:
        return q[:1]
    return q[int(nz[0]):]


def _univar_roots(ctx: FieldCtx, coeffs: np.ndarray) -> list[int]:
    elems = np.arange(ctx.q, dtype=np.int64)
    acc = np.zeros(ctx.q, dtype=np.int64)
    for c in coeffs[::-1].tolist():
        acc = ctx.add(ctx.mul(acc, elems), int(c))
    return np.nonzero(acc == 0)[0].tolist()


def _shift_y(ctx: FieldCtx, q: np.ndarray, gamma: int) -> np.ndarray:
    """Q(X, gamma + X*Y), which raises X-degree by up to the Y-degree."""
    dx, dy = q.shape[0] - 1, q.shape[1] - 1
    out = np.zeros((dx + dy + 1, dy + 1), dtype=np.int64)
    gpow = [1]
    for _ in range(dy):
        gpow.append(ctx.mul(gpow[-1], gamma))
    for j in range(dy + 1):
        colv = q[:, j]
        if not np.any(colv):
            continue
        for t in range(j + 1):
            c = ctx.mul(_binom_field(ctx, j, t), gpow[j - t])
            if c:
                out[t: t + dx + 1, t] = ctx.add(out[t: t + dx + 1, t], ctx.mul(c, colv))
    return out


def _roth_ruckenstein(ctx: FieldCtx, q_poly: np.ndarray, ell: int) -> list[np.ndarray]:
    """All f with deg f < ell and Q(X, f(X)) = 0, by depth-first coefficient search."""
    results: list[np.ndarray] = []

    def recurse(q: np.ndarray, prefix: list[int]) -> None:
        q = _bivar_strip_x(q)
        if len(prefix) == ell:
            # remaining tail must be zero: Q(X, 0) = the Y^0 column
            if not np.any(q[:, 0]):
                results.append(np.asarray(prefix, dtype=np.int64))
            return
        for gamma in _univar_roots(ctx, q[0]):
            recurse(_shift_y(ctx, q, gamma), prefix + [gamma])

    recurse(q_poly, [])
    return results


# -- folded Reed-Solomon --------------------------------------------------------

@dataclass(frozen=True)
class FrsParams:
    e: int
    v: int
    d: int
    windows: int  # equations per block, s - v + 1


def frs_achieved_radius(q: int, ell: int, s: int,
                        v_cap: int = FRS_SHIFT_CAP) -> FrsParams:
    """Guaranteed radius of the linear-algebraic decoder at this v cap.

    For each number of interpolation variables v, the degree budget D is the
    smallest making the homogeneous system underdetermined, and a block is
    wasted once fewer than (D+ell) window equations survive; the radius is
    the best over v. On desk-scale parameters this meets or beats the
    asymptotic folded-decoder bound wherever the latter is positive.
    """
    n_blocks = (q - 1) // s
    best = None
    for v in range(1, min(s, v_cap) + 1):
        windows = s - v + 1
        constraints = n_blocks * windows
        d = max(0, -(-(constraints + 1 - ell - v) // (v + 1)))
        t_min = -(-(d + ell) // windows)
        e = n_blocks - t_min
        if e < 0:
            continue
        if best is None or e > best.e:
            best = FrsParams(e=e, v=v, d=d, windows=windows)
    if best is None:
        best = FrsParams(e=0, v=1, d=max(0, (q - 1) - ell), windows=s)
    return best


def frs_paper_radius(q: int, ell: int, s: int) -> float:
    """The asymptotic folded-decoder radius (valid only for large s, q)."""
    n = q - 1
    rate = ell / n
    return n / s * (1 - (1 + 2 / math.sqrt(s)) * rate ** (1 - 1 / math.sqrt(s))) - 2


def list_decode_frs(ctx: FieldCtx, ell: int, s: int, blocks: np.ndarray, e: int,
                    v_cap: int = FRS_SHIFT_CAP,
                    enum_cap: int = FRS_ENUM_CAP) -> list[np.ndarray]:
    """Complete list of degree-<ell messages within e block errors.

    When s*e <= (n-ell)//2, Gao's decoder runs on the unfolded word and its
    answer is kept if it is within e blocks. This is exact: a message within
    e blocks is within s*e symbols, and at that radius there is at most one.
    Otherwise interpolates Q(X, Y_1..Y_v) = A_0(X) + sum A_i(X) Y_i over all
    windows of every received block, then intersects, over the whole
    interpolation nullspace, the affine systems a close message must
    satisfy. The final candidate space is enumerated (capped) and
    distance-filtered.
    """
    n = ctx.q - 1
    blocks = np.asarray(blocks, dtype=np.int64)
    n_blocks = n // s
    if blocks.shape != (n_blocks, s):
        raise ValidationError(f"expected folded shape {(n_blocks, s)}, got {blocks.shape}")
    params = frs_achieved_radius(ctx.q, ell, s, v_cap)
    if e > params.e:
        raise RadiusTooLarge(f"e={e} exceeds the achieved folded radius {params.e}")
    if s * e <= (n - ell) // 2:
        f = rs_unique_decode(ctx, ell, blocks.reshape(-1))
        if f is None or block_weight(evaluate_values(ctx, f) != blocks.reshape(-1), s) > e:
            return []
        return [f]
    v, d, windows = params.v, params.d, params.windows

    xs = ctx.units()
    a0_cols = d + ell
    ai_cols = d + 1
    ncols = a0_cols + v * ai_cols
    rows = np.zeros((n_blocks * windows, ncols), dtype=np.int64)
    r = 0
    for b in range(n_blocks):
        for j in range(windows):
            x = int(xs[b * s + j])
            xp = [1]
            for _ in range(a0_cols - 1):
                xp.append(ctx.mul(xp[-1], x))
            rows[r, :a0_cols] = xp
            for i in range(v):
                y = int(blocks[b, j + i])
                rows[r, a0_cols + i * ai_cols: a0_cols + (i + 1) * ai_cols] = \
                    ctx.mul(y, np.asarray(xp[:ai_cols], dtype=np.int64))
            r += 1
    ker = nullspace(ctx, rows)
    if ker.shape[0] == 0:
        return []

    # stack, over every interpolation solution, the linear system on f
    gamma = ctx.omega
    gpow_cache = {}

    def gpow(i: int, c: int) -> int:
        key = (i, c)
        if key not in gpow_cache:
            gpow_cache[key] = ctx.pow(gamma, i * c)
        return gpow_cache[key]

    mats = []
    rhss = []
    for sol in ker:
        a0 = sol[:a0_cols]
        ais = [sol[a0_cols + i * ai_cols: a0_cols + (i + 1) * ai_cols] for i in range(v)]
        m = np.zeros((a0_cols, ell), dtype=np.int64)
        for c in range(ell):
            for i in range(v):
                scale = gpow(i, c)
                ai = ais[i]
                for dd in range(ai_cols):
                    if ai[dd]:
                        m[dd + c, c] = ctx.add(int(m[dd + c, c]), ctx.mul(int(ai[dd]), scale))
        mats.append(m)
        rhss.append(ctx.neg(a0))
    big = np.vstack(mats)
    rhs = np.concatenate(rhss)

    part = solve_right(ctx, big, rhs)
    if part is None:
        return []
    ker_f = nullspace(ctx, big)
    dim = ker_f.shape[0]
    if ctx.q**dim > enum_cap:
        raise CapExceeded(f"folded candidate space has dimension {dim}", required=ctx.q**dim)
    out = []
    for chunk in iter_codeword_chunks(ctx, ker_f, chunk=_FRS_CHUNK):
        fs = ctx.add(part, chunk)
        words = evaluate_values(ctx, fs).reshape(-1, n_blocks, s)
        out.extend(fs[np.count_nonzero(np.any(words != blocks, axis=2), axis=1) <= e])
    return _dedupe_sorted(out)


# -- exhaustive oracle ------------------------------------------------------------

def brute_list_decode(code: LinearCode | FoldedCode, received: np.ndarray, e: int,
                      cap: int = 1 << 26) -> list[np.ndarray]:
    """Exact list by full codeword enumeration (test oracle)."""
    if isinstance(code, FoldedCode):
        lin, s = code.code, code.s
    else:
        lin, s = code, None
    ctx = lin.ctx
    total = ctx.q**lin.dim
    if total > cap:
        raise CapExceeded(f"enumeration needs {total} > cap {cap}", required=total)
    received = np.asarray(received, dtype=np.int64).reshape(-1)
    out = []
    for words in iter_codeword_chunks(ctx, lin.basis):
        if s is None:
            dist = np.count_nonzero(words != received[None, :], axis=1)
        else:
            diff = (words != received[None, :]).reshape(words.shape[0], -1, s)
            dist = np.count_nonzero(np.any(diff, axis=2), axis=1)
        for i in np.nonzero(dist <= e)[0].tolist():
            out.append(words[i].copy())
    return sorted(out, key=lambda w: tuple(w.tolist()))
