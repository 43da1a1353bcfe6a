"""List decoders for Reed-Solomon and folded Reed-Solomon codes.

Three engines, all returning the complete list of message polynomials
within the requested radius (every candidate is distance-filtered before
it is returned, so the output is exact, never a superset):

* the syndrome decoder, with erasures, for radii up to the unique-decoding
  bound: Berlekamp-Massey on the power sums of the error (J. Massey, 1969),
  Chien search and Forney's error values (G. D. Forney, 1965). At those
  radii Hamming balls are disjoint, so its one candidate is the whole list.
* Guruswami-Sudan bivariate interpolation with multiplicities, up to the
  Johnson radius (q-1)(1 - sqrt(ell/(q-1))). The multiplicity needed
  grows without bound as the radius approaches Johnson; calls that would
  exceed the multiplicity cap raise CapExceeded with the required value.
* the linear-algebraic folded decoder: degree-1 interpolation in v shifted
  evaluations, followed by solving the small linear system the candidate
  message must satisfy. Its guaranteed radius depends on the chosen v and
  is reported by ``frs_achieved_radius`` rather than asserted from
  asymptotic constants. When s*e <= (n-ell)//2 (every v = 1 choice is such
  a radius) the folded list is the unique decoder's answer on the unfolded
  word, kept if it is within e blocks: a message within e blocks is within
  s*e symbols, where there is at most one.

The bivariate steps are field linear algebra. The Guruswami-Sudan matrix
of Hasse-derivative constraints is one broadcast product of a binomial
table, a ``powers`` gather of x^k and a stack of y^k, and its nullspace
gives Q. The root search evaluates a univariate polynomial at every unit
with ``evaluate_values``, the Y-shift of Roth-Ruckenstein is one
``gf.matmul`` against a binomial-power matrix, and the folded decoder
builds its interpolation matrix with a ``powers`` gather and its system on
f with one ``gf.matmul`` against ``powers``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .classical import FoldedCode, LinearCode, block_weight, iter_codeword_chunks
from .errors import CapExceeded, RadiusTooLarge, ValidationError
from .gf import FieldCtx, frozen, matmul, nullspace, solve_right
from .polycode import element_powers, eval_table, evaluate_values, powers

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


@lru_cache(maxsize=None)
def best_feasible_radius_rs(q: int, ell: int, m_cap: int) -> int:
    """Largest radius decodable without exceeding the multiplicity cap."""
    for e in range(johnson_radius_rs(q, ell), -1, -1):
        try:
            gs_multiplicity(q, ell, e, m_cap)
            return e
        except CapExceeded:
            continue
    return 0


def _dedupe_sorted(cands: list[np.ndarray]) -> list[np.ndarray]:
    seen = {}
    for c in cands:
        seen.setdefault(tuple(c.tolist()), c)
    return [seen[k] for k in sorted(seen)]


def list_decode_rs(ctx: FieldCtx, ell: int, received: np.ndarray, e: int,
                   m_cap: int = GS_MULTIPLICITY_CAP) -> list[np.ndarray]:
    """All message polynomials of degree < ell within distance e of received.

    Returns fixed-length coefficient arrays, sorted. Radii up to
    (n-ell)//2 go through the unique decoder; larger ones through
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
    out = _dedupe_sorted([c for c in cands
                          if np.count_nonzero(evaluate_values(ctx, c) != received) <= e])
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

    def dot(self, a: list[int], b: list[int]) -> int:
        return sum(map(operator.mul, a, b)) % self.p

    def sub_scaled(self, a: list[int], c: int, b: list[int], shift: int) -> list[int]:
        """a - c * z^shift * b, cut to the length of a."""
        end = shift + len(b)
        return a[:shift] + [(x - c * y) % self.p for x, y in zip(a[shift:end], b)] + a[end:]


class _ExtOps:
    """Scalar arithmetic of GF(p^m) on Python ints: exp/log tables for
    products, a Zech-log table (log of 1 + omega^i) for sums."""

    def __init__(self, ctx: FieldCtx):
        self.n = ctx.q - 1
        self.exp = ctx._exp.tolist()  # length 2n, so log sums need no reduction
        self.log = ctx._log.tolist()
        self.zech = [self.log[v] if v else -1 for v in ctx.add(1, ctx.units()).tolist()]
        self.minus_one = int(ctx.neg(1))

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

    def dot(self, a: list[int], b: list[int]) -> int:
        return reduce(self.add, map(self.mul, a, b), 0)

    def sub_scaled(self, a: list[int], c: int, b: list[int], shift: int) -> list[int]:
        """a - c * z^shift * b, cut to the length of a."""
        c, end = self.mul(c, self.minus_one), shift + len(b)
        return a[:shift] + [self.add(x, self.mul(c, y)) for x, y in zip(a[shift:end], b)] + a[end:]


@lru_cache(maxsize=8)
def _scalar_ops(ctx: FieldCtx) -> _PrimeOps | _ExtOps:
    return _PrimeOps(ctx.p) if ctx.m == 1 else _ExtOps(ctx)


@lru_cache(maxsize=4)
def _idft_matrix(ctx: FieldCtx) -> np.ndarray:
    """Interpolation over the positions omega^i: coefficient j of the
    polynomial through y is n^-1 sum_i y_i omega^(-ij), and n^-1 = -1."""
    return frozen(ctx.neg(powers(ctx, -np.arange(ctx.q - 1))))


def _berlekamp_massey(ops: _PrimeOps | _ExtOps, syn: list[int], gamma: list[int],
                      t: int) -> tuple[list[int], int]:
    """Psi = Lambda * Gamma and deg Lambda from the power sums syn[:rho + 2t].

    Massey's shift-register synthesis started from the erasure locator Gamma
    of degree rho: the discrepancy at step k is coefficient rho + k of
    Psi * S, so this is the run on the Forney syndromes Gamma * S.
    """
    rho = len(gamma) - 1
    psi = gamma + [0] * (2 * t)  # deg Psi <= rho + deg Lambda <= rho + 2t
    prev, errs, shift, scale = gamma, 0, 0, 1  # lists cut to their degree bound
    rsyn, top = syn[::-1], len(syn) - 1 - rho
    for k in range(2 * t):
        shift += 1
        d = ops.dot(psi[: rho + errs + 1], rsyn[top - k:])  # sum_j Psi_j S_(rho + k - j)
        if d:
            new = ops.sub_scaled(psi, ops.mul(d, scale), prev, shift)
            if 2 * errs <= k:
                prev, errs, shift, scale = psi[: rho + errs + 1], k + 1 - errs, 0, ops.inv(d)
            psi = new
    return psi[: rho + errs + 1], errs


def rs_unique_decode(ctx: FieldCtx, ell: int, received: np.ndarray,
                     erased: np.ndarray | None = None) -> np.ndarray | None:
    """Errors-and-erasures syndrome decoder for RS(q, ell) on GF(q)*.

    Returns the length-ell message of the codeword within t = (N - ell)//2
    errors of ``received`` on its N unerased positions (there is at most
    one), or None when there is none or N < ell. The interpolant c of
    ``received`` has c[ell + k] = S_k = sum_i Y_i X_i^k over the error and
    erasure positions i, X_i = omega^-i and Y_i = -e_i X_i^ell. BM on
    rho + 2t of them gives Psi, whose zeros omega^i are the positions;
    Forney's formula gives e_i = omega^(i(ell-1)) Omega(omega^i)/Psi'(omega^i),
    Omega = S * Psi mod z^deg(Psi) (BM leaves no higher terms below rho + 2t).
    The answer is c minus the interpolant of e, if that has degree < ell.
    """
    n = ctx.q - 1
    where = [] if erased is None else np.flatnonzero(erased).tolist()
    rho = len(where)
    if n - rho < ell:
        return None
    idft = _idft_matrix(ctx)
    c = matmul(ctx, idft, received)
    syn = c[ell:].tolist()
    if not any(syn):
        return c[:ell]
    ops, t = _scalar_ops(ctx), (n - rho - ell) // 2
    gamma = [1]
    for i in where:  # Gamma *= 1 - omega^-i z
        gamma = ops.sub_scaled(gamma + [0], int(ctx.units()[-i % n]), gamma, 1)
    psi, errs = _berlekamp_massey(ops, syn, gamma, t)
    deg = rho + errs
    if errs > t:
        return None
    omega = [ops.dot(psi, syn[k::-1]) for k in range(deg)] + [0]
    deriv = [ops.mul(k % ctx.p, psi[k]) for k in range(1, deg + 1)] + [0]
    psi_at, omega_at, deriv_at = matmul(ctx, [psi, omega, deriv], eval_table(ctx, deg + 1))
    pos = np.flatnonzero(psi_at == 0)
    denom = deriv_at[pos].tolist()
    if len(pos) != deg or 0 in denom:
        return None
    e = [ops.mul(ops.mul(x, y), ops.inv(z)) for x, y, z in
         zip(ctx.units()[pos * (ell - 1) % n].tolist(), omega_at[pos].tolist(), denom)]
    e_coeffs = matmul(ctx, e, idft[pos])
    if e_coeffs[ell:].tolist() != syn:
        return None
    return ctx.sub(c[:ell], e_coeffs[:ell])


def _binom_table(ctx: FieldCtx, rows: int, cols: int) -> np.ndarray:
    """C(a, b) mod p for a < rows, b < cols; zero where b > a."""
    return np.array([[math.comb(a, b) % ctx.p for b in range(cols)] for a in range(rows)],
                    dtype=np.int64)


def _guruswami_sudan(ctx: FieldCtx, ell: int, received: np.ndarray, e: int,
                     m_cap: int) -> list[np.ndarray]:
    m, d = gs_multiplicity(ctx.q, ell, e, m_cap)
    wy = max(ell - 1, 1)
    deg_y = d // wy
    a, b = np.array([(a, b) for b in range(deg_y + 1) for a in range(d - wy * b + 1)]).T
    da, db = np.array([(da, db) for da in range(m) for db in range(m - da)]).T[:, :, None]
    # Hasse-derivative constraints, one row per (point, da, db): the coefficient
    # of X^da Y^db in Q(X+x, Y+y) is sum C(a,da) C(b,db) x^(a-da) y^(b-db) Q_ab.
    # Exponents below zero are clamped: the zero binomials clear those entries.
    binom = _binom_table(ctx, d + 1, m)
    xs = powers(ctx, np.arange(d + 1)).T[:, np.maximum(a - da, 0)]
    ys = np.stack([ctx.pow(received, k) for k in range(deg_y + 1)], axis=1)[:, np.maximum(b - db, 0)]
    mat = ctx.mul(ctx.mul(binom[a, da], binom[b, db]), ctx.mul(xs, ys))
    ker = nullspace(ctx, mat.reshape(-1, len(a)))
    assert ker.shape[0] > 0  # guaranteed by the monomial count; every row is nonzero
    q_poly = np.zeros((d + 1, deg_y + 1), dtype=np.int64)
    q_poly[a, b] = ker[0]
    return _roth_ruckenstein(ctx, q_poly, ell)


def _bivar_strip_x(q: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.any(q != 0, axis=1))[0]
    if nz.size == 0:
        return q[:1]
    return q[int(nz[0]):]


def _univar_roots(ctx: FieldCtx, coeffs: np.ndarray) -> list[int]:
    """Sorted roots in GF(q): the units where the evaluation vanishes, and 0
    when the constant term does."""
    roots = ctx.units()[evaluate_values(ctx, coeffs) == 0].tolist()
    return sorted(roots + [0] if coeffs[0] == 0 else roots)


def _shift_y(ctx: FieldCtx, q: np.ndarray, gamma: int) -> np.ndarray:
    """Q(X, gamma + X*Y), which raises X-degree by up to the Y-degree.

    Y^j = sum_t C(j,t) gamma^(j-t) X^t Y^t, so with M[j, t] = C(j,t) gamma^(j-t)
    column t of q @ M is the coefficient of Y^t, shifted down t powers of X.
    """
    dx, dy = q.shape[0] - 1, q.shape[1] - 1
    j, t = np.arange(dy + 1)[:, None], np.arange(dy + 1)[None, :]
    m = ctx.mul(_binom_table(ctx, dy + 1, dy + 1), element_powers(ctx, gamma, dy + 1)[(j - t) % (dy + 1)])  # 0 for t > j
    out = np.zeros((dx + dy + 1, dy + 1), dtype=np.int64)
    out[np.arange(dx + 1)[:, None] + t, t] = matmul(ctx, q, m)
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


def frs_achieved_radius(q: int, ell: int, s: int) -> FrsParams:
    """Guaranteed radius of the linear-algebraic decoder at the v cap.

    For each number of interpolation variables v, the degree budget D is the
    smallest making the homogeneous system underdetermined, and a block is
    wasted once fewer than (D+ell) window equations survive; the radius is
    the best over v. On desk-scale parameters this meets or beats the
    asymptotic folded-decoder bound wherever the latter is positive.
    """
    n_blocks = (q - 1) // s
    best = None
    for v in range(1, min(s, FRS_SHIFT_CAP) + 1):
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


def list_decode_frs(ctx: FieldCtx, ell: int, s: int, blocks: np.ndarray, e: int) -> list[np.ndarray]:
    """Complete list of degree-<ell messages within e block errors.

    When s*e <= (n-ell)//2, the unique decoder runs on the unfolded word and its
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
    params = frs_achieved_radius(ctx.q, ell, s)
    if e > params.e:
        raise RadiusTooLarge(f"e={e} exceeds the achieved folded radius {params.e}")
    if s * e <= (n - ell) // 2:
        f = rs_unique_decode(ctx, ell, blocks.reshape(-1))
        if f is None or block_weight(evaluate_values(ctx, f) != blocks.reshape(-1), s) > e:
            return []
        return [f]
    v, d, windows = params.v, params.d, params.windows

    # one row per window (block b, offset j) at x = omega^(b*s + j):
    # x^0..x^(a0_cols-1), then y_i * x^0..x^(ai_cols-1) with y_i = blocks[b, j + i]
    a0_cols, ai_cols = d + ell, d + 1
    xp = powers(ctx, np.arange(a0_cols))[:, (np.arange(n_blocks)[:, None] * s
                                             + np.arange(windows)).reshape(-1)].T
    ys = blocks[:, np.arange(windows)[:, None] + np.arange(v)].reshape(-1, v, 1)
    rows = np.hstack([xp, ctx.mul(ys, xp[:, None, :ai_cols]).reshape(len(xp), -1)])
    ker = nullspace(ctx, rows)
    if ker.shape[0] == 0:
        return []

    # stack, over every interpolation solution, the linear system on f: column c
    # of a solution's block is sum_i A_i * omega^(ic), shifted down c places
    scaled = matmul(ctx, ker[:, a0_cols:].reshape(-1, v, ai_cols).transpose(0, 2, 1)
                    .reshape(-1, v), powers(ctx, np.arange(v))[:, :ell])
    c = np.arange(ell)[None, :]
    big = np.zeros((len(ker), a0_cols, ell), dtype=np.int64)
    big[:, np.arange(ai_cols)[:, None] + c, c] = scaled.reshape(len(ker), ai_cols, ell)
    big = big.reshape(-1, ell)
    rhs = ctx.neg(ker[:, :a0_cols]).reshape(-1)

    part = solve_right(ctx, big, rhs)
    if part is None:
        return []
    ker_f = nullspace(ctx, big)
    dim = ker_f.shape[0]
    if ctx.q**dim > FRS_ENUM_CAP:
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
