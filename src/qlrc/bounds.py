"""Closed-form bounds, radii, and inequality verifiers.

Every algebraic quantity is computed in exact rational arithmetic; values
of the form A + B*sqrt(R) with rational A, B, R get exact integer floors
and ceilings through `surd_floor`/`surd_ceil`, so the sandwich arguments
(e.g. forcing a small code's distance between a lower bound of 1.39 and a
cap of 2) can never be corrupted by rounding. The only float-valued
formulas are the inherently transcendental ones (q-ary entropy, and the
asymptotic folded list-decoding radius with its irrational exponent).

Integer distance lower bounds round up; integer decoding radii round
down: always the conservative direction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapExceeded, DomainError, HypothesisViolated, ViolationFound
from .gf import FieldCtx, _is_prime, field_from_order, root_of_unity

UNCERTAINTY_LOCALITY_CAP = 13  # minor count C(2r, r) explodes beyond this


# -- exact arithmetic on A + B*sqrt(R) -----------------------------------------

def _surd_geq(a: Fraction, b: Fraction, rad: Fraction, z: Fraction) -> bool:
    """Exact test: a + b*sqrt(rad) >= z, for rational a, b, rad >= 0."""
    if rad < 0:
        raise DomainError("negative radicand")
    diff = a - z
    if b >= 0:
        if diff >= 0:
            return True
        return b * b * rad >= diff * diff
    if diff < 0:
        return False
    return diff * diff >= b * b * rad


def surd_floor(a: Fraction, b: Fraction, rad: Fraction) -> int:
    """Exact floor of a + b*sqrt(rad)."""
    guess = math.floor(float(a) + float(b) * math.sqrt(float(rad)))
    while not _surd_geq(a, b, rad, Fraction(guess)):
        guess -= 1
    while _surd_geq(a, b, rad, Fraction(guess + 1)):
        guess += 1
    return guess


def surd_ceil(a: Fraction, b: Fraction, rad: Fraction) -> int:
    """Exact ceiling of a + b*sqrt(rad)."""
    return -surd_floor(-a, -b, rad)


# -- Singleton-type bounds -------------------------------------------------------

def singleton_quantum(n: int, k: int) -> int:
    """Largest d with k <= n - 2(d-1)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return (n - k) // 2 + 1


def singleton_classical(n: int, k: int) -> int:
    """Largest d with k <= n - (d-1)."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return n - k + 1


def singleton_qlrc_general(n: int, d: int, r: int) -> int:
    """Dimension cap for any qLRC of the given distance and locality."""
    if d < 1 or r < 2:
        raise DomainError("need d >= 1 and r >= 2")
    s1 = (n - (d - 1)) // r
    s2 = (n - 2 * (d - 1) - s1) // r
    return n - 2 * (d - 1) - s1 - s2


def singleton_qlrc_partition(n: int, d: int, r: int) -> int:
    """Dimension cap when the recovery sets partition [n] with size r."""
    if d < 1 or r < 2:
        raise DomainError("need d >= 1 and r >= 2")
    if n % r != 0:
        raise DomainError(f"partition structure needs r | n, got n={n}, r={r}")
    val = Fraction(r - 2, r) * n - 2 * (d - 1 - math.ceil(Fraction(d - 1, r - 1)))
    return math.floor(val)


def partition_cap_distance(n: int, k: int, r: int) -> int:
    """Largest d the partition bound allows at dimension k."""
    d = 1
    while singleton_qlrc_partition(n, d + 1, r) >= k:
        d += 1
    return d


# -- quantum Tamo-Barg distance -----------------------------------------------------

def _require_qtb(q: int, r: int, ell: int) -> None:
    if not _is_prime(r):
        raise HypothesisViolated(f"r={r} is composite; the theorem needs r prime")
    if (q - 1) % r != 0:
        raise HypothesisViolated(f"r={r} must divide q-1={q - 1}")
    if 2 * ell < q or not 1 <= ell <= q - 1:
        raise HypothesisViolated(f"ell={ell} outside [q/2, q-1]")


def _qtb_lower_parts(q: int, r: int, ell_term: int) -> tuple[Fraction, Fraction, Fraction]:
    n = q - 1
    a = Fraction(n) * (1 - Fraction(1, 2 * r))
    b = Fraction(-n)
    rad = Fraction(1, 4 * r * r) + Fraction(r - 1, r) * Fraction(ell_term, n)
    return a, b, rad


def qtb_distance_lower(q: int, r: int, ell: int) -> float:
    """(q-1)(1 - 1/2r - sqrt(1/4r^2 + (r-1)/r * (ell-1)/(q-1)))."""
    _require_qtb(q, r, ell)
    a, b, rad = _qtb_lower_parts(q, r, ell - 1)
    return float(a) + float(b) * math.sqrt(float(rad))


def qtb_distance_lower_ceil(q: int, r: int, ell: int) -> int:
    """Exact certified integer distance: ceil of the lower bound."""
    _require_qtb(q, r, ell)
    a, b, rad = _qtb_lower_parts(q, r, ell - 1)
    return max(surd_ceil(a, b, rad), 1)


def qtb_distance_upper(q: int, r: int, ell: int) -> Fraction:
    """(1 - 1/r)(q - ell) + 5, from the partition Singleton bound."""
    if (q - 1) % r != 0 or not 1 <= ell <= q - 1 or 2 * ell < q:
        raise HypothesisViolated("parameters outside the qTB family")
    return Fraction(r - 1, r) * (q - ell) + 5


def decode_radius_qtb(q: int, r: int, ell: int) -> int:
    """Floor of the unfolded decoding radius (half the bound, ell in place of ell-1).

    May be negative (no guaranteed radius); callers clamp as appropriate.
    """
    _require_qtb(q, r, ell)
    a, b, rad = _qtb_lower_parts(q, r, ell)
    return surd_floor(a / 2, b / 2, rad)


# -- folded quantum Tamo-Barg distance -----------------------------------------------

def fqtb_eps(q: int, r: int, ell: int, s: int) -> Fraction:
    """Exact max-min loss term of the folded distance bound."""
    _require_qtb(q, r, ell)
    return _eps_maxmin(1 - Fraction(ell - 1, q - 1), r, s)


def _require_fqtb(q: int, r: int, ell: int, s: int) -> None:
    _require_qtb(q, r, ell)
    if ((q - 1) // r) % s != 0:
        raise HypothesisViolated(f"s={s} must divide (q-1)/r")
    if not uncertainty_holds(q, r):
        from .errors import UncertaintyUnverified

        raise UncertaintyUnverified(f"the uncertainty principle fails for (q={q}, r={r})")


def fqtb_distance_lower(q: int, r: int, ell: int, s: int) -> Fraction:
    """(q-1)/s * (1 - (ell-1)/(q-1) - eps); exact rational."""
    _require_fqtb(q, r, ell, s)
    lam = 1 - Fraction(ell - 1, q - 1)
    return Fraction(q - 1, s) * (lam - fqtb_eps(q, r, ell, s))


def fqtb_distance_simple(q: int, r: int, ell: int, s: int) -> float:
    """The s >= 2r^2 simplification of the folded lower bound."""
    _require_fqtb(q, r, ell, s)
    if s < 2 * r * r:
        raise HypothesisViolated(f"simple form needs s >= 2r^2 = {2 * r * r}, got {s}")
    lam = 1 - Fraction(ell - 1, q - 1)
    a = Fraction(q - 1, s) * lam
    b = -Fraction(q - 1, s) * (1 + Fraction(r * r, s))
    rad = lam / r
    return float(a) + float(b) * math.sqrt(float(rad))


def fqtb_simple_below_lower(q: int, r: int, ell: int, s: int) -> bool:
    """Exact check: the simple form never exceeds the max-min form."""
    lam = 1 - Fraction(ell - 1, q - 1)
    lower = fqtb_distance_lower(q, r, ell, s)
    a = Fraction(q - 1, s) * lam
    b = -Fraction(q - 1, s) * (1 + Fraction(r * r, s))
    # lower >= a + b*sqrt(lam/r)
    return _surd_geq(-a, -b, lam / Fraction(r), -lower)


def frs_e_prime(q: int, r: int, ell: int, s: int) -> float:
    """The folded list-decoding requirement e' (float; irrational exponent)."""
    _require_qtb(q, r, ell)
    n = q - 1
    inner = (1 + 2 / math.sqrt(s)) * (ell / n) ** (1 - 1 / math.sqrt(s)) + 2 * s / n
    rad = 1 / (4 * r * r) + (r - 1) / r * inner
    return n / s * (1 - 1 / (2 * r) - math.sqrt(rad))


def decode_radius_fqtb(q: int, r: int, ell: int, s: int) -> int:
    """min(floor(d/2) - 1, floor(e')) with d the folded distance bound."""
    d = fqtb_distance_lower(q, r, ell, s)
    half = math.floor(d / 2) - 1
    return min(half, math.floor(frs_e_prime(q, r, ell, s)))


def frs_e_prime_for_radius(q: int, r: int, ell: int, s: int, achieved_blocks: int) -> int:
    """Largest e such that shifted differences stay within the given
    block-decoding radius of the folded RS decoder (exact floor).

    Replaces the asymptotic e' when the concrete decoder's radius is known:
    with t = 1 - es/(q-1), the induced corruption (q-1)/s*(1 - r/(r-1)*t^2
    + 1/(r-1)*t) must not exceed the achieved radius.
    """
    n_blocks = (q - 1) // s
    beta = 1 - Fraction(achieved_blocks * s, q - 1)
    rad = 1 + 4 * r * (r - 1) * beta
    if rad < 0:
        return n_blocks
    a = Fraction(n_blocks) * (1 - Fraction(1, 2 * r))
    b = -Fraction(n_blocks, 2 * r)
    return max(surd_floor(a, b, rad), 0)


# -- entropy and the random-ensemble threshold ------------------------------------------

def entropy_q(x: float, q: int) -> float:
    """q-ary entropy, with the 0*log(0) = 0 boundary convention."""
    if not 0 <= x <= 1:
        raise DomainError(f"x={x} outside [0, 1]")
    if q < 2:
        raise DomainError("q must be >= 2")
    if x == 0:
        return 0.0
    lg = lambda t: math.log(t, q)
    out = x * lg(q - 1) - x * lg(x)
    if x < 1:
        out -= (1 - x) * lg(1 - x)
    return out


def gv_ell(delta: float, eps: float, n: int, q: int) -> int:
    """Smallest row count meeting the Gilbert-Varshamov-style hypothesis."""
    return math.ceil((entropy_q(delta, q) + eps) * n)


def gv_probability_bound(n: int, ell: int, q: int, delta: float) -> float:
    """1 - 2 q^(-eps n) with eps = ell/n - H_q(delta); may be far below 0."""
    eps = ell / n - entropy_q(delta, q)
    return 1 - 2 * q ** (-eps * n)


# -- uncertainty principle ------------------------------------------------------------

def _det(ctx: FieldCtx, mat: list[list[int]]) -> int:
    m = [row[:] for row in mat]
    k = len(m)
    det = 1
    for c in range(k):
        piv = None
        for rr in range(c, k):
            if m[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = ctx.neg(det)
        det = ctx.mul(det, m[c][c])
        inv = ctx.inv(m[c][c])
        for rr in range(c + 1, k):
            f = ctx.mul(m[rr][c], inv)
            if f:
                for cc in range(c, k):
                    m[rr][cc] = ctx.sub(m[rr][cc], ctx.mul(f, m[c][cc]))
    return det


def uncertainty_holds(q: int, r: int) -> bool:
    """Whether every minor of the r x r root-of-unity Vandermonde is nonzero.

    This is the per-instance certificate behind the folded distance bound;
    the bad characteristic set is finite but not listed anywhere, so each
    (q, r) is checked directly. Capped at r <= 13 (C(2r, r) minors).
    """
    if not _is_prime(r):
        raise HypothesisViolated(f"r={r} must be prime")
    if (q - 1) % r != 0:
        raise HypothesisViolated(f"r={r} must divide q-1")
    if r > UNCERTAINTY_LOCALITY_CAP:
        raise CapExceeded(f"r={r} exceeds the minor-enumeration cap {UNCERTAINTY_LOCALITY_CAP}",
                          required=math.comb(2 * r, r))
    ctx = field_from_order(q)
    w = root_of_unity(ctx, r)
    v = [[ctx.pow(w, i * j) for j in range(r)] for i in range(r)]
    for k in range(1, r + 1):
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(r), k):
                if _det(ctx, [[v[i][j] for j in cols] for i in rows]) == 0:
                    return False
    return True


# -- appendix inequality verifiers ---------------------------------------------------

_FLOAT_MARGIN = 1e-9


@dataclass
class AppendixReport:
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _eps_maxmin(lam: Fraction, r: int, s: int) -> Fraction:
    best = Fraction(0)
    for m in range(1, r + 1):
        best = max(best, min(lam * Fraction(m - 1, r), Fraction(1, m) + Fraction(m - 1, s)))
    return best


def verify_appendix_inequalities(grid_density: int = 100) -> AppendixReport:
    """Numeric verification of the three technical inequality lemmas.

    The loss-term lemma is checked in exact rationals (squaring away the
    square root); the two scalar inequalities are checked in floats with a
    1e-9 one-sided margin on dense grids of their stated domains. Any
    violation indicates a transcription bug and is raised.
    """
    if grid_density < 100:
        raise DomainError("grid density must be at least 100 per axis")
    rep = AppendixReport()

    # loss-term bound: s = c*r^2, c >= 2  =>  eps <= (1 + 1/c) sqrt(lam/r)
    count = 0
    for r in (3, 5, 7, 11):
        for c in (2, 3, 4, 8):
            s = c * r * r
            for j in range(grid_density + 1):
                lam = Fraction(j, grid_density)
                eps = _eps_maxmin(lam, r, s)
                bound_sq = Fraction(1 + Fraction(1, c)) ** 2 * lam / r
                count += 1
                if eps * eps > bound_sq:
                    rep.violations.append(("loss_term", r, c, lam, eps))
    rep.checked["loss_term"] = count

    # 1/2 (1 - x - sqrt(x^2 + (1-2x) y)) <= 1 - x - sqrt(x^2 + (1-2x) sqrt(y))
    count = 0
    for i in range(grid_density + 1):
        x = i / (6 * grid_density)
        for j in range(grid_density + 1):
            y = 0.5 + j / (2 * grid_density)
            lhs = 0.5 * (1 - x - math.sqrt(x * x + (1 - 2 * x) * y))
            rhs = 1 - x - math.sqrt(x * x + (1 - 2 * x) * math.sqrt(y))
            count += 1
            if lhs > rhs + _FLOAT_MARGIN:
                rep.violations.append(("johnson_halving", x, y, lhs - rhs))
    rep.checked["johnson_halving"] = count

    # 1/2 (y - sqrt(2xy)) <= 1 - x - sqrt(x^2 + (1-2x)(1-y))
    count = 0
    for i in range(grid_density + 1):
        x = i / (6 * grid_density)
        for j in range(grid_density + 1):
            y = j / (2 * grid_density)
            lhs = 0.5 * (y - math.sqrt(2 * x * y))
            rhs = 1 - x - math.sqrt(x * x + (1 - 2 * x) * (1 - y))
            count += 1
            if lhs > rhs + _FLOAT_MARGIN:
                rep.violations.append(("folded_vs_johnson", x, y, lhs - rhs))
    rep.checked["folded_vs_johnson"] = count

    if rep.violations:
        raise ViolationFound(f"{len(rep.violations)} grid violations: {rep.violations[:3]}")
    return rep
