"""CSS codes and Pauli errors in the symplectic (Pauli-frame) picture.

No quantum state is ever simulated: an n-qudit Pauli X^bx Z^bz is the pair
(bx, bz) of GF(q)^n vectors, modulo global phase. The convention fixed here
and used consistently across the package:

* a Pauli acts trivially on the code space iff bx in C_Z-dual and
  bz in C_X-dual (those are the stabilizer X- and Z-parts);
* the measurable syndrome of the X part is H_X @ bx, where the rows of
  H_X span C_X-dual (the parity-check matrix of C_X), and symmetrically
  for the Z part;
* consequently the X part is corrected by a decoder for the classical
  code C_X whose output is allowed to be off by an element of C_Z-dual,
  exactly the classical contract the Tamo-Barg decoders satisfy.

Distance is min weight over (C_Z \\ C_X-dual) union (C_X \\ C_Z-dual),
computed exactly by ``classical.min_weight_excluding``'s Brouwer-Zimmermann
search (symmetric sides are searched once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .classical import DEFAULT_CAP, LinearCode, block_weight, min_weight_excluding
from .errors import (
    DecodeContractViolation,
    DecodingFailed,
    NoCoveringCheck,
    OrthogonalityViolation,
    ValidationError,
    ZeroPivot,
)
from .gf import FieldCtx, RowSpace, matmul, nullspace, rank


@dataclass(frozen=True, eq=False)
class PauliError:
    """X^bx Z^bz up to phase; weight counts qudits touched by either part."""

    bx: np.ndarray
    bz: np.ndarray

    def __post_init__(self):
        bx = np.asarray(self.bx, dtype=np.int64)
        bz = np.asarray(self.bz, dtype=np.int64)
        if bx.shape != bz.shape or bx.ndim != 1:
            raise ValueError("bx and bz must be 1-D arrays of equal length")
        object.__setattr__(self, "bx", bx)
        object.__setattr__(self, "bz", bz)

    @property
    def n(self) -> int:
        return len(self.bx)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero((self.bx != 0) | (self.bz != 0)))

    def block_weight(self, s: int) -> int:
        return block_weight((self.bx != 0) | (self.bz != 0), s)

    def support(self) -> np.ndarray:
        return np.nonzero((self.bx != 0) | (self.bz != 0))[0]


@dataclass(frozen=True)
class RecoverySet:
    """Recovery metadata for one position: I_i and the two covering checks."""

    position: int
    members: tuple[int, ...]
    check_x: np.ndarray  # element of C_X-dual with position in its support
    check_z: np.ndarray  # element of C_Z-dual with position in its support


@dataclass(frozen=True, eq=False)
class CssCode:
    cx: LinearCode
    cz: LinearCode
    recovery: tuple[RecoverySet, ...] | None = None

    @property
    def ctx(self) -> FieldCtx:
        return self.cx.ctx

    @property
    def n(self) -> int:
        return self.cx.n

    @property
    def k(self) -> int:
        return self.n - (self.n - self.cx.dim) - (self.n - self.cz.dim)

    @property
    def hx(self) -> np.ndarray:
        """Parity-check matrix of C_X; rows span C_X-dual."""
        return self.cx.dual_basis

    @property
    def hz(self) -> np.ndarray:
        return self.cz.dual_basis

    @property
    def dual_x_space(self) -> RowSpace:
        return self.cx.dual_space

    @property
    def dual_z_space(self) -> RowSpace:
        return self.cz.dual_space

    @property
    def symmetric(self) -> bool:
        return self.cx is self.cz or self.cx.same_row_space(self.cz)


def css_new(cx: LinearCode, cz: LinearCode,
            recovery: Sequence[RecoverySet] | None = None) -> CssCode:
    """Validate the CSS condition C_X-dual inside C_Z and build the code.

    On violation the raised error carries a witness: a pair of dual basis
    vectors with nonzero dot product.
    """
    if cx.ctx != cz.ctx:
        raise ValidationError("component codes live over different fields")
    if cx.n != cz.n:
        raise ValidationError(f"block lengths differ: {cx.n} vs {cz.n}")
    ctx = cx.ctx
    hx, hz = cx.dual_basis, cz.dual_basis
    bad = np.argwhere(matmul(ctx, hx, hz.T) != 0)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise OrthogonalityViolation(
            f"C_X-dual row {i} is not orthogonal to C_Z-dual row {j}",
            witness=(hx[i].copy(), hz[j].copy()))
    return CssCode(cx, cz, recovery=tuple(recovery) if recovery is not None else None)


def syndrome(code: CssCode, err: PauliError) -> tuple[np.ndarray, np.ndarray]:
    """(H_X @ bx, H_Z @ bz): everything the stabilizer measurements reveal. Each
    is ``RowSpace.apply``, which reads H only off its pivot (identity) columns."""
    return code.dual_x_space.apply(err.bx), code.dual_z_space.apply(err.bz)


def is_logical_identity(code: CssCode, err: PauliError) -> bool:
    return code.dual_z_space.contains(err.bx) and code.dual_x_space.contains(err.bz)


def coset_representative(code: CssCode, side: str, syn: np.ndarray) -> np.ndarray:
    """Any vector with the given syndrome: ``syn`` on the free columns F of
    the component code's RREF, where its parity-check matrix is the
    identity, and 0 elsewhere. No elimination runs."""
    space = code.dual_x_space if side == "x" else code.dual_z_space
    syn = np.asarray(syn, dtype=np.int64)
    if syn.shape != (space.dim,):
        raise ValidationError(f"syndrome has shape {syn.shape}, expected ({space.dim},)")
    out = np.zeros(code.n, dtype=np.int64)
    out[space.pivots] = syn
    return out


def css_decode(code: CssCode, sx: np.ndarray, sz: np.ndarray,
               dec_x: Callable[[np.ndarray], np.ndarray],
               dec_z: Callable[[np.ndarray], np.ndarray]) -> PauliError:
    """Syndrome-driven correction via two classical decoders.

    dec_x receives a corrupted C_X codeword and must return a codeword of
    C_X within C_Z-dual of the true one (mirrored for dec_z); then applying
    the inverse of the returned Pauli leaves a logical identity.
    """
    ctx = code.ctx
    tx = coset_representative(code, "x", sx)
    tz = coset_representative(code, "z", sz)
    bx = ctx.sub(tx, np.asarray(dec_x(tx), dtype=np.int64))
    bz = ctx.sub(tz, np.asarray(dec_z(tz), dtype=np.int64))
    return PauliError(bx, bz)


def residual_after_correction(ctx: FieldCtx, err: PauliError, corr: PauliError) -> PauliError:
    return PauliError(ctx.sub(err.bx, corr.bx), ctx.sub(err.bz, corr.bz))


def check_error(code: CssCode, err: PauliError) -> None:
    both = np.concatenate((err.bx, err.bz)).view(np.uint64)  # a negative entry wraps past q
    if err.n != code.n or int(both.max()) >= code.ctx.q:
        raise ValidationError(f"a Pauli error on this code has {code.n} entries in [0, {code.ctx.q})")


def contract_decode(code: CssCode, err: PauliError,
                    dec_x: Callable[[np.ndarray], np.ndarray],
                    dec_z: Callable[[np.ndarray], np.ndarray],
                    weight: int, radius: int) -> tuple[PauliError, PauliError]:
    """``css_decode`` of err's syndromes: (correction, residual). Within the
    radius a DecodingFailed or a non-identity residual raises
    DecodeContractViolation; beyond it DecodingFailed propagates."""
    sx, sz = syndrome(code, err)
    try:
        corr = css_decode(code, sx, sz, dec_x, dec_z)
    except DecodingFailed as exc:
        if weight > radius:
            raise
        raise DecodeContractViolation(
            f"decoder failed for weight {weight} <= radius {radius}: {exc}") from exc
    residual = residual_after_correction(code.ctx, err, corr)
    if weight <= radius and not is_logical_identity(code, residual):
        raise DecodeContractViolation(
            f"non-identity residual for weight {weight} <= radius {radius}")
    return corr, residual


def css_distance_brute(code: CssCode, cap: int = DEFAULT_CAP,
                       fold_s: int | None = None) -> tuple[int, np.ndarray, str]:
    """Exact CSS distance with a witness word and the side it came from.

    The minimum weight over C_Z \\ C_X-dual and over C_X \\ C_Z-dual (one
    search when C_X = C_Z), each from ``classical.min_weight_excluding``,
    whose witness is the minimum-weight word of lowest message index; a tie
    goes to Z. The cap bounds the words each search weighs. With ``fold_s``
    the distance counts nonzero blocks. Raises ValidationError for k = 0 and
    FoldMismatch when ``fold_s`` is not a positive divisor of n.
    """
    if code.k == 0:
        raise ValidationError("the code encodes no qudits (k = 0), so it has no distance")
    d_z, wit_z = min_weight_excluding(code.cz, code.cx.dual(), cap=cap, fold_s=fold_s)
    if code.symmetric:
        d_x, wit_x = d_z, wit_z
    else:
        d_x, wit_x = min_weight_excluding(code.cx, code.cz.dual(), cap=cap, fold_s=fold_s)
    if d_z <= d_x:
        return int(d_z), wit_z, "z"
    return int(d_x), wit_x, "x"


def can_decode_erasures(code: CssCode, positions: Sequence[int]) -> bool:
    """Whether erasing the given qudits is correctable.

    True iff no element of (C_Z \\ C_X-dual) or (C_X \\ C_Z-dual) is
    supported inside the erased set, by comparing the dimensions of the
    restrictions (a kernel computation, no enumeration).
    """
    ctx = code.ctx
    outside = np.ones(code.n, dtype=bool)
    positions = list(positions)
    outside[positions] = False

    def restricted_dim(basis: np.ndarray) -> int:
        if basis.shape[0] == 0:
            return 0
        return basis.shape[0] - rank(ctx, basis[:, outside])

    return (restricted_dim(code.cz.basis) == restricted_dim(code.hx)
            and restricted_dim(code.cx.basis) == restricted_dim(code.hz))


# -- local recovery -----------------------------------------------------------

def _checks_supported_in(ctx: FieldCtx, gen: np.ndarray, support: list[int],
                         position: int) -> np.ndarray | None:
    """A dual check of span-ker(gen) supported in `support`, nonzero at `position`."""
    cols = gen[:, support]
    ker = nullspace(ctx, cols)  # rows w with gen[:, support] @ w = 0
    pos_local = support.index(position)
    for w in ker:
        if w[pos_local] != 0:
            out = np.zeros(gen.shape[1], dtype=np.int64)
            out[support] = w
            return out
    return None


def local_recovery_sets(code: CssCode, r: int) -> tuple[RecoverySet, ...]:
    """Per-position recovery sets of size <= r, from metadata or by search.

    With structural metadata (Tamo-Barg cosets, random-qLRC blocks) this is
    a verification; otherwise every support of size r containing the
    position is tried exhaustively, so a NoCoveringCheck answer is a proof
    that the position is not locally recoverable at locality r.
    """
    import itertools

    ctx = code.ctx
    if code.recovery is not None:
        for rs in code.recovery:
            if len(rs.members) > r:
                raise NoCoveringCheck(f"stored recovery set at {rs.position} has size {len(rs.members)} > {r}")
            _verify_recovery_set(code, rs)
        return code.recovery

    out = []
    for i in range(code.n):
        found = None
        for rest in itertools.combinations([j for j in range(code.n) if j != i], r - 1):
            supp = sorted((i,) + rest)
            wx = _checks_supported_in(ctx, code.cx.basis, supp, i)
            if wx is None:
                continue
            wz = _checks_supported_in(ctx, code.cz.basis, supp, i)
            if wz is None:
                continue
            found = RecoverySet(i, tuple(supp), wx, wz)
            break
        if found is None:
            raise NoCoveringCheck(f"position {i} has no covering check pair at locality {r}")
        out.append(found)
    return tuple(out)


def _verify_recovery_set(code: CssCode, rs: RecoverySet) -> None:
    union = set(np.nonzero(rs.check_x)[0].tolist()) | set(np.nonzero(rs.check_z)[0].tolist())
    if not union <= set(rs.members):
        raise ValidationError(f"checks at {rs.position} leave the stored recovery set")
    if rs.check_x[rs.position] == 0 or rs.check_z[rs.position] == 0:
        raise ZeroPivot(f"stored checks do not cover position {rs.position}")
    if not code.dual_x_space.contains(rs.check_x):
        raise ValidationError(f"stored X check at {rs.position} is not in C_X-dual")
    if not code.dual_z_space.contains(rs.check_z):
        raise ValidationError(f"stored Z check at {rs.position} is not in C_Z-dual")


def recover_pauli(code: CssCode, rs: RecoverySet, err: PauliError) -> PauliError:
    """Correct a single-qudit Pauli at rs.position from two check syndromes.

    Only the syndromes of the covering checks are consumed: the Z-type
    stabilizer built from check_x reveals the X component, and vice versa.
    Returns the correction (to be subtracted from the error).
    """
    ctx = code.ctx
    i = rs.position
    bx, bz = np.zeros(code.n, dtype=np.int64), np.zeros(code.n, dtype=np.int64)
    bx[i] = ctx.div(matmul(ctx, rs.check_x, err.bx), rs.check_x[i])
    bz[i] = ctx.div(matmul(ctx, rs.check_z, err.bz), rs.check_z[i])
    return PauliError(bx, bz)


# -- error sampling -------------------------------------------------------------

def random_pauli(ctx: FieldCtx, n: int, weight: int, model: str,
                 rng: np.random.Generator) -> PauliError:
    """A Pauli of the exact given weight under an error model.

    Models: ``mixed`` draws a uniform nonzero (x, z) pair per hit qudit;
    ``x-only`` / ``z-only`` restrict to one component.
    """
    support = rng.choice(n, size=weight, replace=False)
    bx, bz = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    q = ctx.q
    for i in support.tolist():
        if model == "x-only":
            bx[i] = int(rng.integers(1, q))
        elif model == "z-only":
            bz[i] = int(rng.integers(1, q))
        elif model == "mixed":
            pair = int(rng.integers(1, q * q))
            bx[i], bz[i] = pair % q, pair // q
        else:
            raise ValidationError(f"unknown error model {model!r}")
    return PauliError(bx, bz)
