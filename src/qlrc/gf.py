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

Vectorized operations accept numpy integer arrays and operate elementwise.
Extension fields keep exp/log tables (built once at construction), which
caps them at q <= 2**22; prime fields have no tables and work for any
prime below 2**31 with int64 arithmetic.

``matmul(ctx, a, b)`` is the one linear-combination kernel: ``a @ b`` over
the field with numpy's 1-D/2-D shape rules, reduced once per product. A
prime field accumulates in float64 while every partial sum k(p-1)^2 stays
below 2**53 (exact, and BLAS-backed); beyond that, and for every extension
field, the products are summed per base-p digit over bounded row blocks.

``rref`` is the one elimination. ``rank``, ``nullspace``, ``solve_right``,
``Solver`` and ``RowSpace`` read their answers off its pivots with fancy
indexing and ``matmul``; none of them loops over field elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    CapExceeded,
    NonPrimeCharacteristic,
    NotADivisor,
    Overflow,
    ZeroElement,
)

_EXT_TABLE_CAP = 1 << 22  # exp/log tables for extension fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


# -- polynomial helpers over GF(p), used only during field construction ------

def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for i in range(len(res) - 1, m - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(m):
                res[i - m + j] = (res[i - m + j] - c * mod[j]) % p
    return tuple(res[:m])


def _poly_divides(d: tuple[int, ...], f: tuple[int, ...], p: int) -> bool:
    """Whether monic d divides f over GF(p)."""
    rem = list(f)
    dd = len(d) - 1
    while len(rem) - 1 >= dd:
        c = rem[-1]
        if c:
            for j in range(len(d)):
                rem[len(rem) - 1 - dd + j] = (rem[len(rem) - 1 - dd + j] - c * d[j]) % p
        rem.pop()
        while rem and rem[-1] == 0 and len(rem) - 1 >= dd:
            rem.pop()
    return all(c == 0 for c in rem)


def _int_to_poly(v: int, p: int, deg: int) -> tuple[int, ...]:
    out = []
    for _ in range(deg + 1):
        out.append(v % p)
        v //= p
    return tuple(out)


def _irreducible(poly: tuple[int, ...], p: int) -> bool:
    m = len(poly) - 1
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for v in range(p**d):
            cand = _int_to_poly(v, p, d - 1) + (1,)
            if _poly_divides(cand, poly, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    for low in range(p**m):
        cand = _int_to_poly(low, p, m - 1) + (1,)
        if _irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # cannot happen


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

    # -- scalar/array arithmetic (all polymorphic in int vs ndarray) --------

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, sub=False)

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, sub=True)

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        return self._digitwise(0 if np.isscalar(a) else np.zeros_like(a), a, sub=True)

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
        if np.isscalar(a) and np.isscalar(b):
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        a, b = np.asarray(a), np.asarray(b)
        out = self._exp[self._log[a] + self._log[b]]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        if np.isscalar(a):
            if a == 0:
                raise ZeroElement("zero has no inverse")
            if self.m == 1:
                return pow(int(a), self.p - 2, self.p)
            return int(self._exp[(self.q - 1) - self._log[a]])
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroElement("zero has no inverse")
        if self.m == 1:
            if self._inv_table is not None:
                return self._inv_table[a]
            return self.pow(a, self.p - 2)
        return self._exp[(self.q - 1) - self._log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if np.isscalar(a):
            if self.m == 1:
                return pow(int(a), int(e), self.p) if e >= 0 else self.inv(pow(int(a), -int(e), self.p))
            if a == 0:
                return 0 if e > 0 else 1
            le = (self._log[a] * e) % (self.q - 1)
            return int(self._exp[le])
        a = np.asarray(a)
        e = int(e)
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = np.ones_like(a)
        base = a.copy()
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def dot(self, u: np.ndarray, v: np.ndarray) -> int:
        """Standard dot product of two vectors."""
        return int(matmul(self, u, v))

    def trace(self, a: int) -> int:
        """Trace to the prime subfield: a + a^p + ... + a^(p^(m-1))."""
        out, cur = 0, int(a)
        for _ in range(self.m):
            out = self.add(out, cur)
            cur = self.pow(cur, self.p)
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
        return isinstance(other, FieldCtx) and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

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
            units = np.arange(1, p, dtype=np.int64)
            inv[1:] = _batch_inv_prime(units, p)
            object.__setattr__(ctx, "_inv_table", inv)
        return ctx

    modulus = _smallest_irreducible(p, m)
    omega, exp_table = _find_generator_ext(p, m, modulus)
    log_table = np.full(q, -1, dtype=np.int64)
    log_table[exp_table[: q - 1]] = np.arange(q - 1)
    exp_ext = np.concatenate([exp_table[: q - 1], exp_table[: q - 1]])
    ctx = FieldCtx(p=p, m=m, q=q, modulus=modulus, omega=omega,
                   _exp=exp_ext, _log=log_table)
    return ctx


def _batch_inv_prime(a: np.ndarray, p: int) -> np.ndarray:
    out = np.ones_like(a)
    base = a.copy()
    e = p - 2
    while e:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


def _smallest_primitive_prime(p: int) -> int:
    if p == 2:
        return 1
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


def _mul_raw_ext(a: int, b: int, p: int, modulus: tuple[int, ...]) -> int:
    m = len(modulus) - 1
    pa = _int_to_poly(a, p, m - 1)
    pb = _int_to_poly(b, p, m - 1)
    pr = _poly_mulmod(pa, pb, modulus, p)
    v = 0
    for c in reversed(pr):
        v = v * p + c
    return v


def _find_generator_ext(p: int, m: int, modulus: tuple[int, ...]) -> tuple[int, np.ndarray]:
    q = p**m
    n = q - 1
    factors = _factorize(n)

    def order_ok(g: int) -> bool:
        for f in factors:
            e = n // f
            acc, base = 1, g
            while e:
                if e & 1:
                    acc = _mul_raw_ext(acc, base, p, modulus)
                base = _mul_raw_ext(base, base, p, modulus)
                e >>= 1
            if acc == 1:
                return False
        return True

    for g in range(2, q):
        if order_ok(g):
            exp_table = np.empty(n, dtype=np.int64)
            cur = 1
            for i in range(n):
                exp_table[i] = cur
                cur = _mul_raw_ext(cur, g, p, modulus)
            if cur != 1:
                continue  # paranoia; order check above makes this unreachable
            return g, exp_table
    raise AssertionError("no generator found")


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


def root_of_unity(ctx: FieldCtx, r: int) -> int:
    """The canonical primitive r-th root of unity omega^((q-1)/r)."""
    n = ctx.q - 1
    if r < 1 or n % r != 0:
        raise NotADivisor(f"r={r} does not divide q-1={n}")
    return ctx.pow(ctx.omega, n // r)


def coset(ctx: FieldCtx, r: int, x: int) -> frozenset[int]:
    """The multiplicative coset x*Omega_r of the r-th roots of unity."""
    if x == 0:
        raise ZeroElement("cosets of Omega_r live in the multiplicative group")
    wr = root_of_unity(ctx, r)
    out = []
    cur = int(x)
    for _ in range(r):
        out.append(cur)
        cur = ctx.mul(cur, wr)
    return frozenset(out)


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
        a[r, c:] = ctx.mul(a[r, c:], ctx.inv(int(a[r, c])))
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
        self.ctx = ctx
        a = np.asarray(a, dtype=np.int64)
        m, n = a.shape
        aug = np.concatenate([a, np.eye(m, dtype=np.int64)], axis=1)
        r, pivots = rref(ctx, aug)
        pivots = [p for p in pivots if p < n]
        self.n = n
        self.pivots = pivots
        self.transform = r[:, n:]  # T with T @ A in reduced form

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        tb = matmul(self.ctx, self.transform, b)
        k = len(self.pivots)
        if np.any(tb[k:]):
            return None
        x = np.zeros(self.n, dtype=np.int64)
        x[self.pivots] = tb[:k]
        return x


_MATMUL_BLOCK_CELLS = 1 << 18  # products held at once by the digit path


def matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field, with numpy's shapes (1-D or 2-D operands).

    Entries are canonical elements. Prime fields with k(p-1)^2 < 2**53 reduce
    the exact float64 product once. Otherwise the products are formed a block
    of rows at a time and summed per base-p digit, so at most about
    ``_MATMUL_BLOCK_CELLS`` exist at once.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    shape = a.shape[:-1] + b.shape[1:]
    a2 = np.atleast_2d(a)
    b2 = b[:, None] if b.ndim == 1 else b
    p = ctx.p
    k, cols = b2.shape
    if ctx.m == 1 and k * (p - 1) ** 2 < 1 << 53:
        out = (a2.astype(np.float64) @ b2.astype(np.float64)).astype(np.int64) % p
    else:
        out = np.zeros((a2.shape[0], cols), dtype=np.int64)
        step = max(1, _MATMUL_BLOCK_CELLS // max(1, k * cols))
        for lo in range(0, a2.shape[0], step):
            prods = ctx.mul(a2[lo:lo + step, :, None], b2[None, :, :])
            pk = 1
            for _ in range(ctx.m):
                out[lo:lo + step] += (prods // pk % p).sum(axis=1) % p * pk
                pk *= p
    return out.reshape(shape)


class RowSpace:
    """A row space with a cached RREF for fast membership queries."""

    def __init__(self, ctx: FieldCtx, basis: np.ndarray):
        self.ctx = ctx
        basis = np.asarray(basis, dtype=np.int64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D array")
        r, pivots = rref(ctx, basis)
        self.rref = r[: len(pivots)]
        self.pivots = pivots

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
