"""Quantum Tamo-Barg codes and their folded variants.

A qTB code is CSS(C, C) for the evaluation code C on the enlarged
Tamo-Barg support. Its dual sits inside it, and the piecewise-linear space
(exponents 1 mod r) supplies one weight-r parity check per coset of the
r-th roots of unity, which is the whole local-recovery story: the recovery
sets are exactly those cosets and partition the positions.

Folding regroups s consecutive positions per symbol. It preserves the
dimension and the locality; the recovery set of a folded block is its
r-1 sibling blocks (the blocks of the same coset group), and recovery
works position-by-position inside the block.

Locality r composite is accepted only behind ``allow_composite_locality``:
the construction goes through, but every distance or radius theorem
downstream assumes r prime and will refuse such codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classical import LinearCode, eval_code
from .css import CssCode, RecoverySet, css_new
from .errors import BadLocality, FoldNotDividing, SiblingErased
from .gf import FieldCtx, _is_prime, coset_stride, field_from_order, matmul
from .polycode import _check_qtb_params, coset_index_groups, support_piecewise, support_qtb


def qtb_dim(q: int, r: int, ell: int) -> int:
    """Exact dimension: 1 + #{q-ell <= i <= ell-1 : i != +-1 mod r}."""
    _check_qtb_params(q, r, ell)
    return 1 + sum(1 for i in range(q - ell, ell) if i % r not in (1, r - 1))


def qtb_dim_window(q: int, r: int, ell: int) -> tuple[int, float, float]:
    """(exact k, the (2*ell-q)(1-2/r) approximation, their difference)."""
    k = qtb_dim(q, r, ell)
    approx = (2 * ell - q) * (1 - 2 / r)
    return k, approx, k - approx


@dataclass(frozen=True, eq=False)
class QtbCode:
    ctx: FieldCtx
    r: int
    ell: int
    css: CssCode
    bperp: LinearCode  # the piecewise-linear space, inside both duals
    prime_locality: bool

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def n(self) -> int:
        return self.q - 1

    @property
    def k(self) -> int:
        return self.css.k

    @property
    def code(self) -> LinearCode:
        """The single classical component (C_X = C_Z)."""
        return self.css.cx

    def descriptor(self) -> dict:
        d = self.ctx.descriptor()
        d.update(family="qtb", r=self.r, ell=self.ell, s=1, n=self.n, k=self.k)
        return d


def _coset_checks(ctx: FieldCtx, r: int) -> tuple[RecoverySet, ...]:
    units = ctx.units()
    groups = coset_index_groups(ctx.q, r)
    out = []
    for group in groups:
        check = np.zeros(ctx.q - 1, dtype=np.int64)
        check[group] = units[group]  # the piecewise function x on this coset
        for i in group.tolist():
            out.append(RecoverySet(i, tuple(group.tolist()), check, check))
    out.sort(key=lambda rs: rs.position)
    return tuple(out)


def qtb_new(q: int, r: int, ell: int, allow_composite_locality: bool = False) -> QtbCode:
    """Construct the quantum Tamo-Barg code CSS(C, C) with parameters q, r, ell."""
    _check_qtb_params(q, r, ell)
    if not allow_composite_locality and not _is_prime(r):
        raise BadLocality(
            f"r={r} is composite; the distance and decoding theorems need r prime "
            "(pass allow_composite_locality=True to construct anyway)")
    ctx = field_from_order(q)
    code = eval_code(ctx, support_qtb(q, r, ell))
    bperp = eval_code(ctx, support_piecewise(q, r))
    css = css_new(code, code, recovery=_coset_checks(ctx, r))
    # the piecewise space must sit inside the dual: these rows are the checks
    dual = css.dual_x_space
    for row in bperp.basis:
        assert dual.contains(row)
    out = QtbCode(ctx=ctx, r=r, ell=ell, css=css, bperp=bperp,
                  prime_locality=_is_prime(r))
    assert out.k == qtb_dim(q, r, ell)
    return out


@dataclass(frozen=True, eq=False)
class FqtbCode:
    base: QtbCode
    s: int

    @property
    def ctx(self) -> FieldCtx:
        return self.base.ctx

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def r(self) -> int:
        return self.base.r

    @property
    def ell(self) -> int:
        return self.base.ell

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def block_count(self) -> int:
        return (self.q - 1) // self.s

    @cached_property
    def block_coset_groups(self) -> np.ndarray:
        """Block indices grouped by coset: row g holds r sibling blocks."""
        block_stride = coset_stride(self.q, self.r) // self.s
        g = np.arange(block_stride)[:, None]
        k = np.arange(self.r)[None, :]
        return g + k * block_stride

    def siblings(self, block: int) -> tuple[int, ...]:
        block_stride = coset_stride(self.q, self.r) // self.s
        group = self.block_coset_groups[block % block_stride]
        return tuple(int(b) for b in group if b != block)

    def descriptor(self) -> dict:
        d = self.base.descriptor()
        d.update(family="fqtb", s=self.s)
        return d


def fqtb_new(q: int, r: int, ell: int, s: int,
             allow_composite_locality: bool = False) -> FqtbCode:
    base = qtb_new(q, r, ell, allow_composite_locality)
    if ((q - 1) // r) % s != 0:
        raise FoldNotDividing(f"s={s} must divide (q-1)/r={(q - 1) // r}")
    return FqtbCode(base=base, s=s)


def is_piecewise_linear(ctx: FieldCtx, values: np.ndarray, r: int) -> bool:
    """Whether the word is beta*x on every coset x*Omega_r (some beta per coset)."""
    slopes = ctx.div(np.asarray(values, dtype=np.int64), ctx.units()).reshape(r, -1)
    return bool(np.all(slopes == slopes[0]))  # column g: the slopes on coset g


def fqtb_recover_block(code: FqtbCode, blocks: np.ndarray, block: int,
                       erased: set[int] | frozenset[int] = frozenset()) -> np.ndarray:
    """Rebuild one folded block from its r-1 sibling blocks.

    Every position of the erased block is recovered from its own coset,
    whose other members live exactly in the sibling blocks; any erased
    sibling makes that impossible at this locality.
    """
    ctx = code.ctx
    s = code.s
    blocks = np.asarray(blocks, dtype=np.int64)
    sibs = code.siblings(block)
    bad = set(erased) & set(sibs)
    if bad:
        raise SiblingErased(f"sibling blocks {sorted(bad)} of block {block} are erased")
    units = ctx.units()
    pos = block * s + np.arange(s)
    # the coset check sums x * value to zero; row j lists the other positions of pos[j]'s coset
    others = (pos[:, None] + coset_stride(code.q, code.r) * np.arange(1, code.r)) % (code.q - 1)
    acc = matmul(ctx, ctx.mul(units[others], blocks.reshape(-1)[others]),
                 np.ones(code.r - 1, dtype=np.int64))
    return ctx.neg(ctx.div(acc, units[pos]))
