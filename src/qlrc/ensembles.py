"""Random qLRC ensemble and AEL distance amplification.

Random ensemble: start from the block parity patterns (one weight-r X
check and one weight-r Z check per length-r block, mutually orthogonal),
then grow each check matrix by uniformly sampled rows from the orthogonal
complement of the other side. Sampling is deterministic per seed, with
per-step rejection of rows already in the span.

When the field characteristic divides r-1 the textbook Z pattern
(-(r-1), 1, ..., 1) degenerates: its leading entry vanishes, so block
start positions would lose their Z-side covering check and single-qudit
recovery would fail there. In that case an equivalent all-nonzero pattern
(1-c, 1, ..., 1, c) with the same support and the same orthogonality is
used instead.

AEL: concatenate an outer CSS code over GF(q^k_in) with an inner CSS code
over GF(q), fold Delta inner symbols per block (recovery blocks stay
inside one fold), and route sub-symbols along a sampled Delta-regular
bipartite graph. Exactness of the CSS condition after flattening rests on
two dualities: the outer Z side is flattened in the polynomial basis and
the X side in its trace-dual basis, and the inner logical sections are
chosen dual to each other. ``ael_build`` makes that choice once per side:
each side's ``AelSide`` holds its outer component, logical sections,
flattening and inner syndrome table, and encoding and decoding read only
that record. The decoder unroutes, looks every inner block up in the side's
table (misses become erasures), and finishes with an outer
errors-and-erasures Reed-Solomon decode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .classical import LinearCode, min_weight_below, quotient_representatives, rs_code
from .css import CssCode, PauliError, RecoverySet, contract_decode, css_new
from .errors import (
    AlphabetMismatch,
    CapExceeded,
    DecodingFailed,
    FoldingMismatch,
    SamplingExhausted,
    SamplingFailedAfterRetries,
    ValidationError,
)
from .gf import FieldCtx, RowSpace, field_new, frozen, matmul, nullspace, rref
from .listdec import rs_unique_decode
from .polycode import evaluate_values

_REJECTION_TRIES = 256
_DISTANCE_ATTEMPTS = 200  # seeds tried by sample_qlrc_with_distance
_EXPANDER_RETRIES = 32  # matching restarts in expander_sample


def stream_rng(seed: int, *path: int) -> np.random.Generator:
    """Named substream: PCG64 seeded by SeedSequence(seed, spawn_key=path)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


# -- random qLRC ensemble --------------------------------------------------------

def _block_patterns(ctx: FieldCtx, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight-r X and Z check patterns on one block, both all-nonzero."""
    x_pat = np.ones(r, dtype=np.int64)
    lead = ctx.neg((r - 1) % ctx.p)  # r - 1 in the prime subfield
    if lead != 0:
        z_pat = np.ones(r, dtype=np.int64)
        z_pat[0] = lead
        return x_pat, z_pat
    # characteristic divides r-1: use (1-c, 1, ..., 1, c), c the element "2"
    if ctx.q < 3:
        raise ValidationError(
            f"no all-nonzero weight-{r} Z check exists over GF(2) for odd r")
    c = 2
    z_pat = np.ones(r, dtype=np.int64)
    z_pat[0] = ctx.sub(1, c)
    z_pat[-1] = c
    assert z_pat[0] != 0 and matmul(ctx, x_pat, z_pat) == 0  # orthogonal to the X pattern
    return x_pat, z_pat


@dataclass(frozen=True, eq=False)
class RandomQlrc:
    css: CssCode
    n: int
    r: int
    ell: int
    seed: int
    hx: np.ndarray
    hz: np.ndarray

    @property
    def ctx(self) -> FieldCtx:
        return self.css.ctx

    @property
    def k(self) -> int:
        return self.css.k

    def descriptor(self) -> dict:
        d = self.ctx.descriptor()
        d.update(family="random_qlrc", n=self.n, r=self.r, ell=self.ell,
                 seed=self.seed, k=self.k)
        return d


def random_qlrc(n: int, r: int, ell: int, q: int, seed: int) -> RandomQlrc:
    """Sample the ensemble member for this seed.

    Preconditions: r | n, r >= 3, 1 <= ell <= n/2 - n/r (so k >= 0).
    The two initial pattern blocks are laid down, then 2*ell rows are
    drawn (X side first), each uniform over the complement of the other
    side's row span, rejecting rows already spanned.
    """
    if r < 3:
        raise ValidationError(f"locality r={r} must be >= 3")
    if n % r != 0:
        raise ValidationError(f"r={r} must divide n={n}")
    if not 1 <= ell <= n // 2 - n // r:
        raise ValidationError(f"ell={ell} outside [1, n/2 - n/r = {n // 2 - n // r}]")
    from .gf import field_from_order

    ctx = field_from_order(q)
    x_pat, z_pat = _block_patterns(ctx, r)
    blocks = n // r
    hx = np.zeros((blocks, n), dtype=np.int64)
    hz = np.zeros((blocks, n), dtype=np.int64)
    for b in range(blocks):
        hx[b, b * r:(b + 1) * r] = x_pat
        hz[b, b * r:(b + 1) * r] = z_pat

    rng = stream_rng(seed)

    def extend(target: np.ndarray, other: np.ndarray) -> np.ndarray:
        complement = nullspace(ctx, other)  # rows spanning rowspan(other)-perp
        span = RowSpace(ctx, target)
        for _ in range(_REJECTION_TRIES):
            cand = matmul(ctx, rng.integers(0, ctx.q, size=complement.shape[0]), complement)
            if not span.contains(cand):
                return np.vstack([target, cand])
        raise SamplingExhausted(
            "complement sampling kept landing inside the existing span")

    for _ in range(ell):
        hx = extend(hx, hz)
    for _ in range(ell):
        hz = extend(hz, hx)

    cx = LinearCode(ctx, nullspace(ctx, hx))
    cz = LinearCode(ctx, nullspace(ctx, hz))
    recovery = []
    for i in range(n):
        b = i // r
        recovery.append(RecoverySet(i, tuple(range(b * r, (b + 1) * r)),
                                    check_x=hx[b], check_z=hz[b]))
    code = css_new(cx, cz, recovery=recovery)
    out = RandomQlrc(css=code, n=n, r=r, ell=ell, seed=seed, hx=hx, hz=hz)
    assert out.k == n - 2 * (blocks + ell)
    return out


def certified_distance_at_least(code: CssCode, t: int) -> bool:
    """Exhaustively rule out words of weight < t in both distance sets."""
    if t <= 1:
        return True
    w, _ = min_weight_below(code.hz, code.ctx, t - 1, exclude=code.dual_x_space)
    if w is not None:
        return False
    w, _ = min_weight_below(code.hx, code.ctx, t - 1, exclude=code.dual_z_space)
    return w is None


def sample_qlrc_with_distance(n: int, r: int, ell: int, q: int, seed: int,
                              d_min: int) -> RandomQlrc:
    """Resample until the brute certificate d >= d_min holds."""
    for attempt in range(_DISTANCE_ATTEMPTS):
        cand = random_qlrc(n, r, ell, q, seed + attempt)
        if certified_distance_at_least(cand.css, d_min):
            return cand
    raise SamplingFailedAfterRetries(
        f"no sample with certified distance >= {d_min} in {_DISTANCE_ATTEMPTS} attempts")


@dataclass(frozen=True)
class GvEstimate:
    samples: int
    successes: int
    frequency: float
    wilson_low: float
    wilson_high: float
    bound: float
    epsilon: float
    distances: tuple[int, ...]


def gv_estimate(n: int, r: int, ell: int, q: int, delta: float, trials: int,
                seed: int, cap: int = 1 << 26) -> GvEstimate:
    """Empirical Pr[d >= delta n] against the ensemble's union bound.

    Distances are exact (brute enumeration per sample, capped). The
    reported bound 1 - 2 q^(-eps n) uses eps = ell/n - H_q(delta) and can
    be far below zero at desk scale, which makes the comparison vacuous
    but still faithful.
    """
    from .bounds import entropy_q, gv_probability_bound
    from .css import css_distance_brute

    dim = n - (n // r + ell)
    if q**dim > cap:
        raise CapExceeded(f"per-sample enumeration needs {q**dim} > cap {cap}",
                          required=q**dim)
    threshold = delta * n
    successes = 0
    dists = []
    for t in range(trials):
        code = random_qlrc(n, r, ell, q, seed + t)
        d, _, _ = css_distance_brute(code.css, cap=cap)
        dists.append(int(d))
        if d >= threshold:
            successes += 1
    freq = successes / trials
    z = 1.959963984540054  # 97.5% normal quantile
    denom = 1 + z * z / trials
    center = (freq + z * z / (2 * trials)) / denom
    half = z * math.sqrt(freq * (1 - freq) / trials + z * z / (4 * trials * trials)) / denom
    return GvEstimate(samples=trials, successes=successes, frequency=freq,
                      wilson_low=center - half, wilson_high=center + half,
                      bound=gv_probability_bound(n, ell, q, delta),
                      epsilon=ell / n - entropy_q(delta, q), distances=tuple(dists))


# -- expander graphs ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExpanderGraph:
    """Delta-regular bipartite graph as a union of Delta perfect matchings.

    matchings[t][v] is the right endpoint of left vertex v in matching t;
    the edge ordering at every vertex (on both sides) is the matching
    index, which is what makes the routing permutation reproducible from
    this array alone.
    """

    n: int
    delta: int
    matchings: np.ndarray  # (delta, n)
    seed: int | None = None

    @cached_property
    def biadjacency(self) -> np.ndarray:
        b = np.zeros((self.n, self.n), dtype=np.int64)
        for t in range(self.delta):
            b[np.arange(self.n), self.matchings[t]] += 1
        return b

    def route(self, left: int, slot: int) -> tuple[int, int]:
        """pi_G: (left vertex, edge index) -> (right vertex, edge index)."""
        return int(self.matchings[slot][left]), slot

    def descriptor(self) -> dict:
        return {"n": self.n, "delta": self.delta, "seed": self.seed,
                "matchings": self.matchings.tolist()}

    @staticmethod
    def identity(n: int, delta: int) -> "ExpanderGraph":
        """Degenerate multigraph routing every slot back to its own block."""
        return ExpanderGraph(n=n, delta=delta,
                             matchings=np.tile(np.arange(n), (delta, 1)))


def _random_perfect_matching(avail: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """Random perfect matching of the bipartite availability matrix.

    Randomized greedy pass, then augmenting paths; always succeeds when a
    perfect matching exists (it does for the regular remainders here).
    """
    n = avail.shape[0]
    match_l = np.full(n, -1, dtype=np.int64)
    match_r = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        choices = np.nonzero(avail[v] & (match_r == -1))[0]
        if choices.size:
            u = int(choices[rng.integers(choices.size)])
            match_l[v], match_r[u] = u, v
    for v in order:
        if match_l[v] != -1:
            continue
        # DFS augmenting path from v
        seen = np.zeros(n, dtype=bool)
        stack = [(v, iter(np.nonzero(avail[v])[0].tolist()))]
        parent: dict[int, int] = {}
        found = -1
        while stack:
            cur, it = stack[-1]
            advanced = False
            for u in it:
                if seen[u]:
                    continue
                seen[u] = True
                parent[u] = cur
                if match_r[u] == -1:
                    found = u
                    stack.clear()
                    advanced = True
                    break
                stack.append((int(match_r[u]), iter(np.nonzero(avail[int(match_r[u])])[0].tolist())))
                advanced = True
                break
            if not advanced:
                stack.pop()
        if found == -1:
            return None
        u = found
        while True:
            cur = parent[u]
            nxt = int(match_l[cur])
            match_l[cur], match_r[u] = u, cur
            if nxt == -1 and cur == v:
                break
            u = nxt
            if cur == v:
                break
    if np.any(match_l == -1):
        return None
    return match_l


def expander_sample(n: int, delta: int, seed: int) -> ExpanderGraph:
    """Union of delta random perfect matchings with no repeated edges."""
    if not 1 <= delta <= n:
        raise ValidationError(f"need 1 <= delta <= n for a simple graph, got delta={delta}, n={n}")
    rng = stream_rng(seed)
    for _ in range(_EXPANDER_RETRIES):
        avail = np.ones((n, n), dtype=bool)
        rows = []
        ok = True
        for _t in range(delta):
            m = _random_perfect_matching(avail, rng)
            if m is None:
                ok = False
                break
            rows.append(m)
            avail[np.arange(n), m] = False
        if ok:
            return ExpanderGraph(n=n, delta=delta, matchings=np.asarray(rows), seed=seed)
    raise SamplingFailedAfterRetries(
        f"no simple {delta}-regular sample after {_EXPANDER_RETRIES} retries")


def measure_lambda(graph: ExpanderGraph) -> float:
    """Second singular value of the biadjacency over its degree.

    Singular values below the standard numerical-rank tolerance
    (sigma_1 * n * eps, as in numpy's matrix_rank) are exact zeros of the
    integer matrix and are reported as such.
    """
    sv = np.linalg.svd(graph.biadjacency.astype(np.float64), compute_uv=False)
    if len(sv) < 2:
        return 0.0
    tol = sv[0] * graph.n * np.finfo(np.float64).eps
    s2 = sv[1] if sv[1] > tol else 0.0
    return float(s2 / graph.delta)


def ael_radius(alpha_in: float, alpha_out: float, lam: float) -> float:
    """alpha_in - lambda * sqrt(alpha_in / alpha_out)."""
    return alpha_in - lam * math.sqrt(alpha_in / alpha_out)


# -- logical sections ------------------------------------------------------------------

@dataclass(frozen=True)
class LogicalPair:
    """Dual logical sections of a CSS code: dot(lx[i], lz[j]) = delta_ij.
    ``logical_pair`` stores both frozen. Each side is also the other's reader:
    lx · w is the class of a C_Z word w modulo C_X-dual, and lz · w of a C_X word."""

    lz: np.ndarray  # k x n rows in C_Z, independent mod C_X-dual
    lx: np.ndarray  # k x n rows in C_X, adjusted to be dual to lz


def logical_pair(code: CssCode) -> LogicalPair:
    ctx = code.ctx
    lz = quotient_representatives(ctx, code.cz.basis, code.hx)
    lx = quotient_representatives(ctx, code.cx.basis, code.hz)
    assert lz.shape[0] == code.k and lx.shape[0] == code.k
    inv = _matrix_inverse(ctx, matmul(ctx, lx, lz.T))
    return LogicalPair(lz=frozen(lz), lx=frozen(matmul(ctx, inv, lx)))


def _matrix_inverse(ctx: FieldCtx, m: np.ndarray) -> np.ndarray:
    """A^-1 of a square A, read off rref([A | I]) = [I | A^-1]."""
    n = len(m)
    r, pivots = rref(ctx, np.hstack([m, np.eye(n, dtype=np.int64)]))
    if pivots != list(range(n)):
        raise ValidationError("logical pairing matrix is singular")
    return r[:, n:]


# -- flattening between GF(p^k) and GF(p)^k ----------------------------------------------

@dataclass(frozen=True, eq=False)
class Flattening:
    """GF(p^k) as a GF(p)-vector space: digits basis and its trace dual."""

    ctx: FieldCtx  # the extension field
    k: int
    basis: tuple[int, ...]  # p^0, p^1, ..., the polynomial basis
    dual: tuple[int, ...]  # trace-dual basis
    gram: np.ndarray  # Tr(b_i * b_j) over GF(p)

    def down(self, x: int | np.ndarray) -> np.ndarray:
        """Coordinates in the polynomial basis (the base-p digits); for an
        array of elements, one row of coordinates per element."""
        p = self.ctx.p
        return np.asarray(x, dtype=np.int64)[..., None] // p ** np.arange(self.k) % p

    def down_dual(self, x: int | np.ndarray) -> np.ndarray:
        """Coordinates in the trace-dual basis: a_i = Tr(x * b_i), which is
        GF(p)-linear in the digits of x, so one product with the Gram matrix."""
        return matmul(field_new(self.ctx.p), self.down(x), self.gram)

    def up(self, digits: np.ndarray) -> np.ndarray:
        """The element with these digits; one element per row of a 2-D array."""
        p = self.ctx.p
        return np.asarray(digits, dtype=np.int64) % p @ p ** np.arange(self.k)

    def up_dual(self, coords: np.ndarray) -> np.ndarray:
        """sum_i coords_i * dual_i: GF(p)-linear, so a product with the dual's digits."""
        p = self.ctx.p
        return self.up(matmul(field_new(p), np.asarray(coords) % p, self.down(self.dual)))


def flattening(ext: FieldCtx) -> Flattening:
    """Build the basis pair for an extension field over its prime subfield."""
    k = ext.m
    basis = ext.p ** np.arange(k)
    gram = ext.trace(ext.mul(basis[:, None], basis[None, :]))
    dual = matmul(ext, _matrix_inverse(field_new(ext.p), gram), basis)
    return Flattening(ctx=ext, k=k, basis=tuple(basis.tolist()), dual=tuple(dual.tolist()),
                      gram=frozen(gram))


# -- the AEL construction ------------------------------------------------------------------

_INNER_RADIUS = 1  # an inner table holds every error of weight <= 1


@dataclass(frozen=True, eq=False)
class InnerTable:
    """Bounded-distance coset-leader decoder of one inner parity check.

    A syndrome s is keyed by the integer sum_i s_i q^i; ``keys`` is sorted
    and ``leaders[j]`` is the lightest error whose syndrome has key ``keys[j]``.
    """

    parity: np.ndarray  # frozen
    place: np.ndarray  # q^i, the weight of syndrome digit i in its key
    keys: np.ndarray
    leaders: np.ndarray

    def decode(self, ctx: FieldCtx, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode each row: (the codewords, a mask of the rows whose syndrome
        is in the table); rows outside the table come back unchanged."""
        keys = self.place @ matmul(ctx, self.parity, words.T)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found = self.keys[at] == keys
        return ctx.sub(words, self.leaders[at] * found[:, None]), found


# perfbench/spans.py traces this function by name: its set-up span is the
# ensembles.inner_table.s metric, so it keeps the name of the lazy cache it replaced.
def _inner_decoder_cache(ctx: FieldCtx, parity: np.ndarray) -> InnerTable:
    """The inner syndrome table of ``parity``, radius ``_INNER_RADIUS``.

    The candidate leaders are the zero word, then every single-symbol error in
    (position, value) order; ``np.unique`` keeps the first one per syndrome.
    Raises CapExceeded when q^rows keys do not fit in an int64.
    """
    q = ctx.q
    rows, n = parity.shape
    if q**rows >= 1 << 63:
        raise CapExceeded(f"inner syndrome keys need q^rows = {q**rows} >= 2^63",
                          required=q**rows)
    singles = np.kron(np.eye(n, dtype=np.int64), np.arange(1, q)[:, None])
    leaders = np.vstack([np.zeros((1, n), dtype=np.int64), singles])
    place = q ** np.arange(rows, dtype=np.int64)
    keys, first = np.unique(place @ matmul(ctx, parity, leaders.T), return_index=True)
    return InnerTable(parity=frozen(parity), place=place, keys=keys, leaders=leaders[first])


@dataclass(frozen=True, eq=False)
class AelSide:
    """What one side (Z or X) of an AEL code encodes and decodes with.

    The Z side flattens outer symbols in the polynomial basis and the X side
    in its trace-dual basis. Each side encodes with its own logical sections
    and reads with the other side's, which are dual to them.
    """

    outer: LinearCode  # the outer component, an RS code
    outer_section: np.ndarray  # message -> outer word
    outer_reader: np.ndarray  # outer word -> message
    inner_section: np.ndarray  # coordinates of an outer symbol -> inner word
    inner_reader: np.ndarray  # inner word -> coordinates
    down: Callable[[np.ndarray], np.ndarray]  # outer symbol -> coordinates
    up: Callable[[np.ndarray], np.ndarray]  # coordinates -> outer symbol
    table: InnerTable  # built from this side's inner parity check


@dataclass(frozen=True, eq=False)
class AelCode:
    outer: CssCode  # over GF(q_in^k_in)
    inner: CssCode  # over GF(q_in), q_in prime
    graph: ExpanderGraph
    delta: int
    r_in: int
    css: CssCode  # the flattened, permuted concatenation over GF(q_in)
    sides: dict[str, AelSide]  # "z" and "x"
    perm: np.ndarray  # qudit routing: final position of pre-permutation index

    def side(self, name: str) -> AelSide:
        if name not in self.sides:
            raise ValidationError(f"unknown side {name!r}; expected 'z' or 'x'")
        return self.sides[name]

    @property
    def ctx(self) -> FieldCtx:
        return self.inner.ctx

    @property
    def n_qudits(self) -> int:
        return self.css.n

    @property
    def block_count(self) -> int:
        return self.n_qudits // self.delta

    @property
    def k_qudits(self) -> int:
        return self.css.k

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k_qudits, self.n_qudits)

    @property
    def locality(self) -> int:
        return self.delta * self.r_in

    @property
    def n_out(self) -> int:
        return self.outer.n

    @property
    def n_in(self) -> int:
        return self.inner.n


def ael_build(outer: CssCode, inner: CssCode, graph: ExpanderGraph, delta: int,
              r_in: int) -> AelCode:
    """Concatenate, fold by delta, and permute along the graph.

    Preconditions: the outer alphabet is GF(q_in^k_in) for the prime inner
    alphabet GF(q_in); delta divides n_in; the inner recovery sets are the
    aligned length-r_in blocks (so each one folds into a single component,
    r_in | delta); the graph has n_out * n_in / delta vertices per side.
    Both sides' inner syndrome tables are built here, with the code.
    """
    ctx_in = inner.ctx
    ctx_out = outer.ctx
    if ctx_in.m != 1:
        raise AlphabetMismatch("inner alphabet must be a prime field for flattening")
    k_in = inner.k
    if ctx_out.p != ctx_in.p or ctx_out.m != k_in:
        raise AlphabetMismatch(
            f"outer alphabet must be GF({ctx_in.q}^{k_in}), got GF({ctx_out.p}^{ctx_out.m})")
    n_in, n_out = inner.n, outer.n
    if n_in % delta != 0:
        raise FoldingMismatch(f"delta={delta} must divide n_in={n_in}")
    if delta % r_in != 0:
        raise FoldingMismatch(f"r_in={r_in} must divide delta={delta}")
    if inner.recovery is None:
        raise FoldingMismatch("inner code must carry block recovery metadata")
    for rs in inner.recovery:
        lo = (rs.position // r_in) * r_in
        if rs.members != tuple(range(lo, lo + r_in)):
            raise FoldingMismatch("inner recovery sets must be the aligned length-r blocks")
    n_blocks = n_out * n_in // delta
    if graph.n != n_blocks or graph.delta != delta:
        raise FoldingMismatch(
            f"graph must be {delta}-regular on {n_blocks} vertices, got {graph.delta} on {graph.n}")

    flat = flattening(ctx_out)
    inner_log = logical_pair(inner)
    outer_log = logical_pair(outer)
    sides = {
        "z": AelSide(outer=outer.cz, outer_section=outer_log.lz, outer_reader=outer_log.lx,
                     inner_section=inner_log.lz, inner_reader=inner_log.lx,
                     down=flat.down, up=flat.up,
                     table=_inner_decoder_cache(ctx_in, inner.hz)),
        "x": AelSide(outer=outer.cx, outer_section=outer_log.lx, outer_reader=outer_log.lz,
                     inner_section=inner_log.lx, inner_reader=inner_log.lz,
                     down=flat.down_dual, up=flat.up_dual,
                     table=_inner_decoder_cache(ctx_in, inner.hx)),
    }
    n_total = n_out * n_in

    def embed(rows_per_position: np.ndarray, position: int) -> np.ndarray:
        out = np.zeros((rows_per_position.shape[0], n_total), dtype=np.int64)
        out[:, position * n_in:(position + 1) * n_in] = rows_per_position
        return out

    def lift(side: AelSide) -> list[np.ndarray]:
        """Flatten outer rows (scaled by every basis element) through the
        inner logical section."""
        # both sides scale by the polynomial basis: the dual pairing is
        # realized by *reading coordinates* in dual bases
        return [matmul(ctx_in, side.down(ctx_out.mul(scalar, brow)), side.inner_section)
                .reshape(-1) for brow in side.outer.basis for scalar in flat.basis]

    cz_rows = lift(sides["z"])
    cx_rows = lift(sides["x"])
    for t in range(n_out):
        cz_rows.extend(embed(inner.hx, t))
        cx_rows.extend(embed(inner.hz, t))

    # routing: pre-permutation qudit (block i, slot j) lands at block
    # matchings[j][i], same slot
    perm = (graph.matchings.T * delta + np.arange(delta)).reshape(-1)

    def permute(rows: list[np.ndarray]) -> np.ndarray:
        arr = np.asarray(rows, dtype=np.int64)
        out = np.zeros_like(arr)
        out[:, perm] = arr
        return out

    cz = LinearCode(ctx_in, permute(cz_rows))
    cx = LinearCode(ctx_in, permute(cx_rows))
    css = css_new(cx, cz)
    code = AelCode(outer=outer, inner=inner, graph=graph, delta=delta, r_in=r_in,
                   css=css, sides=sides, perm=perm)
    assert code.k_qudits == outer.k * k_in
    return code


def ael_locality_structure(code: AelCode) -> list[tuple[int, tuple[int, ...]]]:
    """Per-qudit recovery partners after routing; verifies the locality claim.

    Every qudit's r_in - 1 partners land in distinct blocks, none its own,
    so recovering one erased block touches at most delta * (r_in - 1)
    other qudits: locality delta * r_in including the block itself.
    """
    out = []
    # qudit (t, u) has pre-permutation index t * n_in + u, and its recovery
    # group is the aligned run of r_in indices holding it
    for g, group in enumerate(code.perm.reshape(-1, code.r_in).tolist()):
        if len({p // code.delta for p in group}) != code.r_in:
            raise FoldingMismatch(f"recovery group {g} collides across blocks")
        out.extend((mine, tuple(group[:i] + group[i + 1:])) for i, mine in enumerate(group))
    return out


# -- AEL encoding and decoding -----------------------------------------------------------

def ael_encode(code: AelCode, msg: np.ndarray, side: str = "z") -> np.ndarray:
    """Canonical classical codeword carrying the outer message (stabilizer
    components zero)."""
    s = code.side(side)
    coords = s.down(matmul(code.outer.ctx, msg, s.outer_section))
    pre = matmul(code.ctx, coords, s.inner_section).reshape(-1)
    out = np.zeros_like(pre)
    out[code.perm] = pre
    return out


def rs_decode_errors_erasures(ctx: FieldCtx, ell: int, values: np.ndarray,
                              erased: np.ndarray) -> np.ndarray:
    """Unique-decode an RS word with erasures: 2E + F <= n - ell.

    The syndrome decoder ``listdec.rs_unique_decode`` with the erasure
    locator; raises DecodingFailed when no codeword sits within the radius.
    """
    erased = np.asarray(erased, dtype=bool)
    coeffs = rs_unique_decode(ctx, ell, values, erased)
    if coeffs is None:
        raise DecodingFailed(
            f"no RS codeword within the errors-and-erasures radius "
            f"({np.count_nonzero(~erased)} unerased symbols, dimension {ell})")
    return coeffs


@dataclass(frozen=True)
class AelDecodeResult:
    message: np.ndarray
    word: np.ndarray  # canonical re-encoding
    inner_failures: int


def ael_decode(code: AelCode, word: np.ndarray, side: str = "z") -> AelDecodeResult:
    """Unpermute, inner-decode every block (erase on failure), outer-decode.

    Each block is looked up in the side's inner syndrome table, which
    corrects one symbol; erasing the blocks it misses lets the outer
    errors-and-erasures decoder absorb them.
    """
    s = code.side(side)
    ctx_out = code.outer.ctx
    pre = np.asarray(word, dtype=np.int64)[code.perm]
    words, found = s.table.decode(code.ctx, pre.reshape(code.n_out, code.n_in))
    outer_word = s.up(matmul(code.ctx, s.inner_reader, words.T).T)
    erased = ~found
    outer_word[erased] = 0

    # outer code components are evaluation codes; decode in the quotient by
    # exact RS decoding and read out the logical class
    coeffs = rs_decode_errors_erasures(ctx_out, s.outer.dim, outer_word, erased)
    msg = matmul(ctx_out, s.outer_reader, evaluate_values(ctx_out, coeffs))
    return AelDecodeResult(message=msg, word=ael_encode(code, msg, side),
                           inner_failures=int(np.count_nonzero(erased)))


# -- the standard desk-scale instantiation ---------------------------------------------

@dataclass(frozen=True)
class AelStandard:
    """An AEL code together with its measured pseudorandomness and radii.
    Everything a decode reads, the inner syndrome tables included, is built
    with the code."""

    code: AelCode
    inner_sample: RandomQlrc
    lam: float
    alpha_in: Fraction
    alpha_out: Fraction
    alpha: float
    radius_blocks: int

    @property
    def inner_radius(self) -> int:
        """Errors per block the inner tables correct; the inner code is
        sampled with certified distance 2 * 1 + 1 = 3."""
        return _INNER_RADIUS

    def descriptor(self) -> dict:
        """Holds the ``ael_standard_build`` arguments, so it rebuilds the code."""
        return {
            "family": "ael",
            "seed": self.code.graph.seed,
            "q_in": self.code.ctx.q,
            "n_in": self.code.n_in,
            "r_in": self.code.r_in,
            "ell_in": self.inner_sample.ell,
            "ell_out": self.code.outer.cz.dim,
            "inner": self.inner_sample.descriptor(),
            "outer": {"q": self.code.outer.ctx.q, "ell": self.code.outer.cz.dim,
                      "n": self.code.n_out, "k": self.code.outer.k},
            "graph": self.code.graph.descriptor(),
            "delta": self.code.delta,
            "n_blocks": self.code.block_count,
            "n_qudits": self.code.n_qudits,
            "k_qudits": self.code.k_qudits,
            "lambda": self.lam,
            "alpha": self.alpha,
            "radius_blocks": self.radius_blocks,
        }


def ael_standard_build(seed: int, q_in: int = 5, n_in: int = 24, r_in: int = 3,
                       ell_in: int = 3, ell_out: int = 13, delta: int = 24) -> AelStandard:
    """The desk-scale AEL instantiation: brute-validated random inner code,
    CSS(RS, RS) outer code, sampled graph with measured lambda.

    The default geometry (24 blocks of 24 qudits, complete bipartite
    routing with measured lambda = 0) is the smallest admissible one whose
    amplification radius alpha * n_blocks reaches a whole block; sparser
    sampled graphs at this scale provably leave it at zero.
    """
    inner = sample_qlrc_with_distance(n_in, r_in, ell_in, q_in, seed, 2 * _INNER_RADIUS + 1)
    ctx_out = field_new(q_in, inner.k)
    q_out = ctx_out.q
    if 2 * ell_out < q_out:
        raise ValidationError(f"outer needs 2*ell >= q_out, got ell={ell_out}, q={q_out}")
    a = rs_code(ctx_out, ell_out)
    outer = css_new(a, a)
    n_out = q_out - 1
    n_blocks = n_out * n_in // delta
    graph = expander_sample(n_blocks, delta, seed)
    lam = measure_lambda(graph)
    code = ael_build(outer, inner.css, graph, delta, r_in)

    alpha_in = Fraction(_INNER_RADIUS, n_in)
    d_out = q_out - ell_out
    alpha_out = Fraction((d_out - 1) // 2, n_out)
    alpha = ael_radius(float(alpha_in), float(alpha_out), lam)
    if lam == 0.0:
        radius_blocks = max(math.floor(alpha_in * n_blocks), 0)  # exact
    else:
        radius_blocks = max(math.floor(alpha * n_blocks), 0)
    return AelStandard(code=code, inner_sample=inner, lam=lam, alpha_in=alpha_in,
                       alpha_out=alpha_out, alpha=alpha, radius_blocks=radius_blocks)


def random_block_pauli(ctx: FieldCtx, n_blocks: int, delta: int, weight: int,
                       rng: np.random.Generator) -> PauliError:
    """A Pauli touching exactly `weight` folded blocks (all slots corrupted)."""
    blocks = rng.choice(n_blocks, size=weight, replace=False)
    n = n_blocks * delta
    bx = np.zeros(n, dtype=np.int64)
    bz = np.zeros(n, dtype=np.int64)
    for b in blocks.tolist():
        sl = slice(b * delta, (b + 1) * delta)
        while True:
            cx = rng.integers(0, ctx.q, size=delta)
            cz = rng.integers(0, ctx.q, size=delta)
            if np.any(cx) or np.any(cz):
                bx[sl], bz[sl] = cx, cz
                break
    return PauliError(bx, bz)


def ael_quantum_decode(std: AelStandard, err: PauliError) -> tuple[PauliError, PauliError]:
    """Syndrome-driven Pauli correction through the two AEL classical decoders,
    under ``css.contract_decode`` with radius ``std.radius_blocks`` blocks."""
    code = std.code
    return contract_decode(code.css, err, lambda t: ael_decode(code, t, "x").word,
                           lambda t: ael_decode(code, t, "z").word,
                           err.block_weight(code.delta), std.radius_blocks)
