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

``field_new`` returns one ``FieldCtx`` per field however it is spelled
(``field_new(5)``, ``field_new(5, 1)``, ``field_from_order(5)``), so fields
compare and hash by identity: a cache keyed by a field hashes no descriptor.

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

``rref`` is the one elimination, Gauss-Jordan with delayed reduction. It
copies the input with its rows sorted by nonzero count, sparsest first
(Markowitz's fill-reducing order; the sort is stable, so a uniformly dense
matrix keeps its order). A pivot taken from a sparse row hits few other
rows, so the dense rows are reached last and fill fewer rows; on the
290 x 576 AEL generators over GF(5) this cuts the row updates by 37-46%.
An RREF is unique, so the order changes the work and not the result. Over
GF(p) each pivot step subtracts its rank-1 update in place from unreduced
int64 entries, and only what the step reads is reduced mod p: column c,
read once per step to find the pivot and give the multipliers, and the
pivot row before it is scaled by the inverse of the pivot, a Python
``pow(x, -1, p)``. A bound on |entry| grows by (p-1)^2 a step; before it
would pass 2**63 the whole active block is reduced, which is every step for
p near 2**31 and never at GF(127) sizes. The pivot column is written as a
unit vector, and R is reduced once at the end. An extension field has no
such headroom (its entries are codes, not residues), so the same loop keeps
them canonical with ``sub`` and ``mul`` and inverts the pivot with ``inv``.
``rank``, ``kernel``, ``nullspace``, ``solve_right`` and ``RowSpace`` read
their answers off its pivots with fancy indexing and ``matmul``; none of
them loops over field elements.
``kernel`` reads the kernel off an RREF that is already in hand, so an owner
that keeps one elimination (``classical.LinearCode``) gets its dual from it.

A ``RowSpace`` basis is the identity on its pivot columns, so ``apply``
(basis @ v = v[pivots] + block @ v[free]), ``residue`` (v[free] - v[pivots]
@ block, the residue on the free columns; it is 0 at the pivots) and
``contains`` read only ``block``, the basis on the free columns (found by
``np.delete``, not ``np.setdiff1d``, which imports ``numpy.ma``), built at
its first read.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    :func:`field_new`, never the constructor: fields compare by identity.
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
        out, pk = 0, 1
        for _ in range(self.m):
            da, db = a % p, b % p
            out = out + (da - db if sub else da + db) % p * pk
            a, b, pk = a // p, b // p, pk * p
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

    def __repr__(self):
        return f"GF({self.q})" if self.m == 1 else f"GF({self.p}^{self.m})"


def field_new(p: int, m: int = 1) -> FieldCtx:
    """GF(p^m) with canonical modulus and generator, one instance per field.

    Raises NonPrimeCharacteristic, Overflow (q >= 2**32, or an extension
    field too large for its exp/log tables).
    """
    return _field(p, m)


@lru_cache(maxsize=None)
def _field(p: int, m: int) -> FieldCtx:
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
    primes = _factorize(q)  # empty for q < 2
    if len(primes) != 1:
        raise NonPrimeCharacteristic(f"q={q} is not a prime power")
    p, m = primes[0], 1
    while p**m < q:
        m += 1
    return field_new(p, m)


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

    R has the same shape as ``mat``; zero rows sink to the bottom. The rows
    are eliminated sparsest first (a stable sort, so equally dense rows keep
    their order); an RREF is unique, so the order changes the work and not R.
    The pivot row of column c is zero left of c, so only the columns after c
    are updated. The module docstring says which entries are reduced, and when.
    """
    a = np.asarray(mat, dtype=np.int64)
    a = a[np.argsort(np.count_nonzero(a, axis=1), kind="stable")]  # a C-order copy
    rows, cols = a.shape
    p, prime = ctx.p, ctx.m == 1
    canon = (lambda x: x % p) if prime else (lambda x: x)
    headroom, bound = (1 << 63) - 1 - (p - 1) ** 2, p - 1  # bound: max |entry| after the pivots
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = canon(a[:, c])
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        scale = pow(int(col[i]), -1, p) if prime else ctx.inv(col[i])
        if i != r:
            a[[r, i]], col[[r, i]] = a[[i, r]], col[[i, r]]
        row = ctx.mul(canon(a[r, c + 1:]), scale)
        col[r] = 0
        hit = col.nonzero()[0]
        hit = hit if 2 * hit.size <= rows else slice(None)  # dense: every row, in place
        if prime:
            if bound > headroom:
                a[:, c + 1:] %= p
                bound = p - 1
            a[hit, c + 1:] -= col[hit, None] * row
            bound += (p - 1) ** 2
        else:
            a[hit, c + 1:] = ctx.sub(a[hit, c + 1:], ctx.mul(col[hit, None], row))
        a[:, c], a[r, c], a[r, c + 1:] = 0, 1, row
        pivots.append(c)
    return canon(a), pivots


def rank(ctx: FieldCtx, mat: np.ndarray) -> int:
    return len(rref(ctx, mat)[1])


def kernel(ctx: FieldCtx, r: np.ndarray, pivots: list[int]) -> tuple[np.ndarray, list[int]]:
    """Kernel basis (as rows) of a matrix whose RREF is (r, pivots), and its
    free columns F: row j is 1 at F[j] and 0 at the other free columns."""
    free = sorted(set(range(r.shape[1])).difference(pivots))
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = ctx.neg(r[: len(pivots), free].T)
    return basis, free


def nullspace(ctx: FieldCtx, mat: np.ndarray) -> np.ndarray:
    """Basis (as rows) of {v : mat @ v = 0}."""
    return kernel(ctx, *rref(ctx, np.asarray(mat, dtype=np.int64)))[0]


def solve_right(ctx: FieldCtx, a: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(x, K): one solution x of a @ x = b (None if inconsistent) and the kernel
    basis K of a (as ``nullspace`` gives it), both read off one RREF of [a | b]."""
    cols = np.shape(a)[1]
    r, pivots = rref(ctx, np.column_stack([a, b]))
    ker = kernel(ctx, r[:, :cols], [c for c in pivots if c < cols])[0]
    if cols in pivots:
        return None, ker
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[: len(pivots), cols]
    return x, ker


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
    """A row space kept as a basis in which each row is 1 at its own pivot
    column and 0 at the other rows' pivots, for fast membership queries.

    An RREF is one such basis; so is a kernel basis from ``kernel``, with the
    free columns as its pivots.
    """

    def __init__(self, ctx: FieldCtx, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.int64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D array")
        r, pivots = rref(ctx, basis)
        self.ctx, self.pivot_basis, self.pivots = ctx, frozen(r[: len(pivots)]), frozen(pivots)

    @classmethod
    def from_pivot_basis(cls, ctx: FieldCtx, basis: np.ndarray, pivots: list[int]) -> "RowSpace":
        space = cls.__new__(cls)  # basis[:, pivots] is already the identity
        space.ctx, space.pivot_basis = ctx, frozen(basis[: len(pivots)])
        space.pivots = frozen(pivots)
        return space

    @cached_property
    def free(self) -> np.ndarray:
        return frozen(np.delete(np.arange(self.pivot_basis.shape[1]), self.pivots))

    @cached_property
    def block(self) -> np.ndarray:
        return frozen(self.pivot_basis[:, self.free])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``pivot_basis @ v``; a stack of vectors, one per row, maps row by row."""
        v = np.asarray(v, dtype=np.int64)  # take(axis=-1) is v[..., cols], without its cost
        at_free = matmul(self.ctx, self.block, v.take(self.free, axis=-1).T).T
        return self.ctx.add(v.take(self.pivots, axis=-1), at_free)

    def residue(self, v: np.ndarray) -> np.ndarray:
        """Residue of v (of each row of a stack) modulo the row space on the
        ``free`` columns, zero iff member (it is zero at the pivots)."""
        v = np.asarray(v, dtype=np.int64)
        at_pivots = matmul(self.ctx, v.take(self.pivots, axis=-1), self.block)
        return self.ctx.sub(v.take(self.free, axis=-1), at_pivots)

    def contains(self, v: np.ndarray) -> bool:
        """Whether v, or every row of a stack, lies in the row space."""
        return not np.any(self.residue(v))
