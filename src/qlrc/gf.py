"""Exact arithmetic in GF(p^m) and linear algebra over it.

Field elements are canonical integers in ``[0, q)``. For a prime field the
integer is the residue itself; for an extension field the base-p digits of
the integer are the coefficients of the polynomial representative, so the
element ``c_0 + c_1*X + ... + c_{m-1}*X^{m-1}`` is encoded as
``sum(c_k * p**k)``. All arithmetic is exact integer arithmetic -- no
floating point ever touches a field element.

Deterministic canonical choices (these pin the byte-exact serialization of
every code built on top):

* the modulus of an extension field is the monic irreducible polynomial of
  degree m whose integer encoding is smallest;
* the generator ``omega`` is the smallest element (in the integer encoding
  order) of multiplicative order exactly q-1.

An extension field is built with the GF(p) linear algebra below, on base-p
digit vectors. A candidate modulus f has the companion matrix C, the matrix
of multiplication by X mod f. Then C^(p^k) - C multiplies by X^(p^k) - X,
so it has rank m exactly when gcd(f, X^(p^k) - X) = 1. Since X^(p^k) - X is
the product of the monic irreducibles of degree dividing k, f is
irreducible iff that rank is m for every 1 <= k <= m/2 (Rabin's criterion).
An element g acts as g(C) = sum g_i C^i, and g has order q-1 iff
g(C)^((q-1)/l) != I for every prime l dividing q-1. The exp table is the
orbit of the digit vector of 1 under omega(C), built in blocks of about
sqrt(q) rows, so no (q x m) digit matrix is ever held.

Each ``FieldCtx`` operation has one path: elementwise over numpy integer
arrays, with a Python int or numpy scalar taken as a 0-d array (a 0-d
result comes back as a hashable numpy scalar). There is no scalar branch;
callers that need many field values gather them from ``units()``, the
powers of omega in position order, or batch them into one array call.
Extension fields keep exp/log tables (built once at construction), which
caps them at q <= 2**22; prime fields have no tables and work for any
prime below 2**31 with int64 arithmetic. Roots of unity and the cosets of
Omega_r are strided reads of ``units()``.

``matmul(ctx, a, b)`` is the one linear-combination kernel: ``a @ b`` over
the field with numpy's 1-D/2-D shape rules, as one exact BLAS product over
GF(p) reduced once: float32 while K*m*(p-1)^2 < 2**24 (K the inner
dimension), else float64. An extension field expands one operand into its
GF(p) multiplication matrices (M(a)[u, t] = digit u of a*X^t, one product of
a's digits with the stacked companion powers C^t) and multiplies them by the
other operand's digits. A read-only 2-D operand that owns its data (see
``frozen``) is prepared once: its cast or expansion is cached by ``id`` and
dropped by a weakref callback when it dies; views are never cached. Only
large primes, at K*(p-1)^2 >= 2**53, sum int64 products over row blocks.

``rref`` is the one elimination. ``rank``, ``nullspace``, ``solve_right``,
``Solver`` and ``RowSpace`` read their answers off its pivots with fancy
indexing and ``matmul``; none of them loops over field elements.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonPrimeCharacteristic, NotADivisor, Overflow, ZeroElement

_EXT_TABLE_CAP = 1 << 22  # exp/log tables for extension fields


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return _factorize(n) == [n]


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """A finite field GF(p^m) with its canonical generator.

    Immutable after construction; safe to share freely. Use
    :func:`field_new` rather than instantiating directly.
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...]  # monic, length m+1; () for prime fields
    omega: int
    _exp: np.ndarray = field(repr=False, default=None)
    _log: np.ndarray = field(repr=False, default=None)
    _inv_table: np.ndarray = field(repr=False, default=None)
    _units: np.ndarray = field(repr=False, default=None)
    _companion: np.ndarray = field(repr=False, default=None)  # C^0..C^(m-1), (m, m*m)
    _digit_table: np.ndarray = field(repr=False, default=None)  # base-p digits of 0..q-1

    # -- arithmetic: one elementwise array path; an int is a 0-d array ------

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, sub=False)

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, sub=True)

    def neg(self, a):
        return self.sub(0, a)

    def _digitwise(self, a, b, sub: bool):
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        pk = 1
        ra, rb = a, b
        for _ in range(self.m):
            da, db = ra % p, rb % p
            out = out + ((da - db) % p if sub else (da + db) % p) * pk
            ra, rb = ra // p, rb // p
            pk *= p
        return out

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        a, b = np.asarray(a), np.asarray(b)
        return np.where((a == 0) | (b == 0), 0, self._exp[self._log[a] + self._log[b]])[()]

    def inv(self, a):
        a = np.asarray(a)
        if not a.all():
            raise ZeroElement("zero has no inverse")
        if self.m > 1:
            return self._exp[(self.q - 1) - self._log[a]]
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.p - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        a, e = np.asarray(a), int(e)
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = np.ones_like(a)
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out[()]

    def trace(self, a):
        """Trace to the prime subfield, elementwise: a + a^p + ... + a^(p^(m-1))."""
        out = 0
        for _ in range(self.m):
            out = self.add(out, a)
            a = self.pow(a, self.p)
        return out

    # -- structure -----------------------------------------------------------

    def units(self) -> np.ndarray:
        """Nonzero elements in position order omega^0..omega^(q-2); built once, read-only."""
        if self._units is None:
            if self.m == 1:
                out = np.empty(self.q - 1, dtype=np.int64)
                cur = 1
                for i in range(self.q - 1):
                    out[i] = cur
                    cur = (cur * self.omega) % self.p
            else:
                out = self._exp[: self.q - 1].copy()
            out.flags.writeable = False
            object.__setattr__(self, "_units", out)
        return self._units

    def descriptor(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus), "omega": self.omega}

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.omega))

    def __repr__(self):
        return f"GF({self.q})" if self.m == 1 else f"GF({self.p}^{self.m})"


@lru_cache(maxsize=None)
def field_new(p: int, m: int = 1) -> FieldCtx:
    """Construct GF(p^m) with canonical modulus and generator.

    Raises NonPrimeCharacteristic, Overflow (q >= 2**32, or an extension
    field too large for its exp/log tables).
    """
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    q = p**m
    if q >= 1 << 32:
        raise Overflow(f"q = {q} exceeds the 2^32 cap")
    if m > 1 and q > _EXT_TABLE_CAP:
        raise Overflow(f"extension field GF({q}) exceeds the exp/log table cap {_EXT_TABLE_CAP}")

    if m == 1:
        omega = _smallest_primitive_prime(p)
        ctx = FieldCtx(p=p, m=1, q=q, modulus=(), omega=omega)
        if p <= 1 << 20:
            inv = np.zeros(p, dtype=np.int64)
            inv[1:] = ctx.pow(np.arange(1, p, dtype=np.int64), p - 2)
            object.__setattr__(ctx, "_inv_table", inv)
        return ctx

    modulus, omega, exp_table, companion = _build_extension(p, m)
    log_table = np.full(q, -1, dtype=np.int64)
    log_table[exp_table] = np.arange(q - 1)
    digit_table, rest = np.empty((q, m), dtype=np.uint8 if p < 256 else np.uint16), np.arange(q)
    for u in range(m):
        rest, digit_table[:, u] = np.divmod(rest, p)
    return FieldCtx(p=p, m=m, q=q, modulus=modulus, omega=omega,
                    _exp=np.concatenate([exp_table, exp_table]), _log=log_table,
                    _companion=frozen(companion), _digit_table=digit_table)


def _mat_pow(ctx: FieldCtx, a: np.ndarray, e: int) -> np.ndarray:
    """a**e for a square matrix over ctx, by repeated squaring."""
    out = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            out = matmul(ctx, out, a)
        a = matmul(ctx, a, a)
        e >>= 1
    return out


def _build_extension(p: int, m: int) -> tuple[tuple[int, ...], int, np.ndarray, np.ndarray]:
    """Canonical modulus, omega, exp table (omega^0..omega^(q-2)) and the
    stacked companion powers (m x m*m) of GF(p^m), m >= 2."""
    base = field_new(p)
    q, digits, eye = p**m, p ** np.arange(m), np.eye(m, dtype=np.int64)
    for low in range(q):  # candidate f = X^m + sum f_i X^i, f_i the digits of low
        tail = low // digits % p
        comp = np.eye(m, k=-1, dtype=np.int64)
        comp[:, -1] = base.neg(tail)
        if all(rank(base, base.sub(_mat_pow(base, comp, p**k), comp)) == m
               for k in range(1, m // 2 + 1)):
            break
    powers = np.array([_mat_pow(base, comp, i) for i in range(m)]).reshape(m, m * m)
    primes = _factorize(q - 1)
    for omega in range(p, q):  # GF(p)* has order p-1 < q-1, so skip it
        mult = matmul(base, omega // digits % p, powers).reshape(m, m)  # omega(C)
        if all(np.any(_mat_pow(base, mult, (q - 1) // ell) != eye) for ell in primes):
            break
    # the orbit of 1 under omega(C) in blocks of about sqrt(q) digit rows:
    # each block is the one before times omega^len(block)
    block = eye[:1]
    while len(block) ** 2 < q:
        block = np.vstack([block, matmul(base, block, _mat_pow(base, mult, len(block)).T)])
    jump, chunks = _mat_pow(base, mult, len(block)).T, []
    for _ in range(0, q - 1, len(block)):
        chunks.append(block @ digits)
        block = matmul(base, block, jump)
    return tuple(tail.tolist()) + (1,), omega, np.concatenate(chunks)[: q - 1], powers


def _smallest_primitive_prime(p: int) -> int:
    if p == 2:
        return 1
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


def field_from_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q, via field_new on its decomposition."""
    if q < 2:
        raise NonPrimeCharacteristic(f"q={q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            qq = q
            while qq % p == 0:
                qq //= p
                m += 1
            if qq != 1:
                raise NonPrimeCharacteristic(f"q={q} is not a prime power")
            return field_new(p, m)
        if p * p > q:
            break
    return field_new(q, 1)


def coset_stride(q: int, r: int) -> int:
    """(q-1)/r: the exponent step between consecutive r-th roots of unity,
    so also the position stride inside a coset of Omega_r."""
    if r < 1 or (q - 1) % r != 0:
        raise NotADivisor(f"r={r} does not divide q-1={q - 1}")
    return (q - 1) // r


def root_of_unity(ctx: FieldCtx, r: int) -> int:
    """The canonical primitive r-th root of unity omega^((q-1)/r)."""
    return ctx.units()[coset_stride(ctx.q, r) % (ctx.q - 1)]


def coset(ctx: FieldCtx, r: int, x: int) -> frozenset[int]:
    """The multiplicative coset x*Omega_r of the r-th roots of unity."""
    if x == 0:
        raise ZeroElement("cosets of Omega_r live in the multiplicative group")
    return frozenset(ctx.mul(x, ctx.units()[:: coset_stride(ctx.q, r)]).tolist())


# -- linear algebra over GF(q) -----------------------------------------------

def rref(ctx: FieldCtx, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form. Returns (R, pivot_columns).

    R has the same shape as ``mat``; zero rows sink to the bottom. When
    column c is eliminated the pivot row is zero left of c, so only
    columns c onward are updated.
    """
    a = np.array(mat, dtype=np.int64, copy=True)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = ctx.mul(a[r, c:], ctx.inv(a[r, c]))
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if np.any(mask):
            a[mask, c:] = ctx.sub(a[mask, c:], ctx.mul(col[mask, None], a[r, c:][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots


def rank(ctx: FieldCtx, mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    return len(rref(ctx, mat)[1])


def nullspace(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    """Basis (as rows) of {v : mat @ v = 0}."""
    mat = np.asarray(mat, dtype=np.int64)
    rows, cols = mat.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(ctx, mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = ctx.neg(r[: len(pivots), free].T)
    return basis


def solve_right(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of a @ x = b, or None if inconsistent."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    aug = np.concatenate([a, b[:, None]], axis=1)
    r, pivots = rref(ctx, aug)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[: len(pivots), cols]
    return x


class Solver:
    """Repeated solves of A x = b against a fixed A (factorized once)."""

    def __init__(self, ctx: FieldCtx, a: np.ndarray):
        a = np.asarray(a, dtype=np.int64)
        m, n = a.shape
        r, pivots = rref(ctx, np.concatenate([a, np.eye(m, dtype=np.int64)], axis=1))
        self.ctx, self.n, self.pivots = ctx, n, [p for p in pivots if p < n]
        self.transform = frozen(r[:, n:])  # T with T @ A in reduced form
        self.row_space = RowSpace.from_rref(ctx, r[:, :n], self.pivots)  # = rref(A), pivots and all

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        tb = matmul(self.ctx, self.transform, b)
        k = len(self.pivots)
        if np.any(tb[k:]):
            return None
        x = np.zeros(self.n, dtype=np.int64)
        x[self.pivots] = tb[:k]
        return x


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only int64 copy of ``a``: how an owner stores a fixed matrix."""
    a = np.array(a, dtype=np.int64)
    a.flags.writeable = False
    return a


_MATMUL_BLOCK_CELLS = 1 << 18  # products held at once by the large-prime path
# id(frozen operand) -> (weakref to it, {(side, p, modulus): prepared form})
_PREPARED: dict[int, tuple[weakref.ref, dict]] = {}


def _prepared(ctx: FieldCtx, x: np.ndarray, side: int, dtype) -> np.ndarray | None:
    """The float form of a frozen 2-D operand (side 0 left, 1 right), cached;
    None for any other operand. It is x's cast, or its ``_expand``."""
    if x.base is not None or x.ndim != 2 or x.flags.writeable:  # a view is never cached
        return None
    key = id(x)
    entry = _PREPARED.get(key)
    if entry is None or entry[0]() is not x:
        entry = _PREPARED[key] = (weakref.ref(x, lambda _, key=key: _PREPARED.pop(key, None)), {})
    forms, which = entry[1], (side, ctx.p, ctx.modulus)
    if which not in forms:
        forms[which] = x.astype(dtype) if ctx.m == 1 else _expand(ctx, x, side).astype(dtype)
    return forms[which]


def _expand(ctx: FieldCtx, x: np.ndarray, side: int) -> np.ndarray:
    """x's entries as multiplication matrices over GF(p), in one (rows*m x
    cols*m) matrix. As the left operand (side 0), row i*m+u and column t*m+v
    hold digit u of x[i, t]*X^v; as the right one, row i*m+v, column t*m+u."""
    (rows, cols), m = x.shape, ctx.m
    mats = matmul(field_new(ctx.p), ctx._digit_table.take(x, axis=0).reshape(-1, m),
                  ctx._companion)  # x(C), one flattened m x m block per entry
    order = (0, 2, 1, 3) if side == 0 else (0, 3, 1, 2)
    return mats.reshape(rows, cols, m, m).transpose(order).reshape(rows * m, cols * m)


def matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field, with numpy's shapes (1-D or 2-D operands).

    Entries are canonical elements; the module docstring gives the paths.
    The large-prime path holds about ``_MATMUL_BLOCK_CELLS`` products at once.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    p, m = ctx.p, ctx.m
    span = len(b) * m * (p - 1) ** 2  # bounds every partial sum
    if span >= 1 << 53:  # m = 1: an extension field has q <= 2**22, so K >= 2**30
        a2, b2 = np.atleast_2d(a), (b[:, None] if b.ndim == 1 else b)
        out = np.zeros((len(a2), b2.shape[1]), dtype=np.int64)
        step = max(1, _MATMUL_BLOCK_CELLS // max(1, b2.size))
        for lo in range(0, len(a2), step):
            out[lo:lo + step] = (a2[lo:lo + step, :, None] * b2 % p).sum(axis=1) % p
        return out.reshape(a.shape[:-1] + b.shape[1:])
    dtype = np.float32 if span < 1 << 24 else np.float64
    fa, fb = _prepared(ctx, a, 0, dtype), _prepared(ctx, b, 1, dtype)
    if m == 1:
        x = a.astype(dtype) if fa is None else fa
        y = b.astype(dtype) if fb is None else fb
        return (x @ y).astype(np.int64) % p
    a2 = a[None] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    (rows, k), cols, pk = a2.shape, b2.shape[1], p ** np.arange(m)
    if fa is None and (fb is not None or b2.size < a2.size):  # expand b; digit u at j*m+u
        fb = _expand(ctx, b2, 1).astype(dtype) if fb is None else fb
        digits = ctx._digit_table.take(a2, axis=0).reshape(rows, k * m)
        out = ((digits.astype(dtype) @ fb).astype(np.int64) % p).reshape(rows, cols, m) @ pk
    else:  # expand a; digit u of the product's row i at row i*m+u
        fa = _expand(ctx, a2, 0).astype(dtype) if fa is None else fa
        digits = ctx._digit_table.take(b2, axis=0).transpose(0, 2, 1).reshape(k * m, cols)
        out = pk @ ((fa @ digits.astype(dtype)).astype(np.int64) % p).reshape(rows, m, cols)
    return out.reshape(a.shape[:-1] + b.shape[1:])


class RowSpace:
    """A row space with a cached RREF for fast membership queries."""

    def __init__(self, ctx: FieldCtx, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.int64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D array")
        r, pivots = rref(ctx, basis)
        self.ctx, self.rref, self.pivots = ctx, frozen(r[: len(pivots)]), pivots

    @classmethod
    def from_rref(cls, ctx: FieldCtx, r: np.ndarray, pivots: list[int]) -> "RowSpace":
        space = cls.__new__(cls)  # r is already in RREF with these pivots
        space.ctx, space.rref, space.pivots = ctx, frozen(r[: len(pivots)]), pivots
        return space

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v modulo the row space (zero iff member).

        Every RREF row is zero at the other rows' pivots, so the coefficient
        of row i is v's own entry at pivot i: the residue is one product.
        """
        v = np.asarray(v, dtype=np.int64)
        return self.ctx.sub(v, matmul(self.ctx, v[self.pivots], self.rref))

    def contains(self, v: np.ndarray) -> bool:
        return not np.any(self.reduce(v))

    def coordinates(self, v: np.ndarray) -> np.ndarray | None:
        """Coefficients of v in the RREF basis, or None if not a member."""
        if np.any(self.reduce(v)):
            return None
        return np.asarray(v, dtype=np.int64)[self.pivots]

    def __eq__(self, other):
        return (isinstance(other, RowSpace) and self.ctx == other.ctx
                and self.pivots == other.pivots
                and bool(np.array_equal(self.rref, other.rref)))

    def __hash__(self):  # pragma: no cover - not used as dict key in hot paths
        return hash((self.ctx, tuple(self.pivots)))
