"""Field arithmetic: construction examples, axioms, and linear algebra."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import gf
from qlrc.errors import NonPrimeCharacteristic, NotADivisor, Overflow, ZeroElement
from qlrc.gf import (
    FieldCtx,
    RowSpace,
    coset,
    field_from_order,
    field_new,
    matmul,
    nullspace,
    rank,
    root_of_unity,
    rref,
    solve_right,
)
from qlrc.polycode import eval_table


def test_one_instance_per_field():
    # every spelling of a field is one object, so fields compare and hash by
    # identity and one cache entry serves them all
    assert field_new(5) is field_new(5, 1) is field_new(p=5, m=1) is field_from_order(5)
    assert field_new(5, 2) is field_new(5, m=2) is field_from_order(25)
    assert field_new(2, 3) is field_from_order(8)
    assert field_new(5) != field_new(5, 2)
    assert eval_table(field_new(5), 4) is eval_table(field_from_order(5), 4)


def exhaustive_order(ctx: FieldCtx, a: int) -> int:
    cur, n = a, 1
    while cur != 1:
        cur = ctx.mul(cur, a)
        n += 1
        assert n <= ctx.q
    return n


def test_gf13_generator_has_full_order_exhaustively():
    ctx = field_new(13)
    assert ctx.omega == 2
    assert exhaustive_order(ctx, 2) == 12


def test_gf2_trivial_unit():
    ctx = field_new(2)
    assert ctx.omega == 1
    assert ctx.q - 1 == 1


def test_gf16_modulus_is_irreducible_by_exhaustive_root_and_factor_scan():
    ctx = field_new(2, 4)
    # modulus coefficients over GF(2), degree 4; no degree-1 or degree-2 factor
    mod = ctx.modulus
    assert len(mod) == 5 and mod[-1] == 1

    def poly_eval(coeffs, x, p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    assert all(poly_eval(mod, x, 2) != 0 for x in range(2))
    # exhaustive divisibility scan over the 4 monic quadratics
    for a0 in range(2):
        for a1 in range(2):
            div = (a0, a1, 1)
            # long division of mod by div over GF(2)
            rem = list(mod)
            while len(rem) >= 3:
                c = rem[-1]
                if c:
                    for i, d in enumerate(div):
                        rem[len(rem) - 3 + i] ^= d * c
                rem.pop()
            assert any(rem), f"quadratic {div} divides the modulus"


# sha256 of the canonical choices and tables of every GF(p^m) <= 2**12 with
# p <= 31 and m >= 2, plus seven prime fields, computed with the trial-division
# construction; any other construction must reproduce it byte for byte
FIELD_TABLES_SHA256 = "780a7c7faf677ecb7035ca8807e82a862c80111e0f3724a4c57a6306b41748cd"
PINNED_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                 for m in range(2, 13) if p**m <= 1 << 12] + [
                     (p, 1) for p in (2, 3, 5, 7, 13, 127, 8191)]


def test_field_construction_is_pinned():
    digest = hashlib.sha256()
    for p, m in PINNED_FIELDS:
        ctx = field_new(p, m)
        digest.update(repr((p, m, ctx.modulus, ctx.omega)).encode())
        for a in (ctx._exp, ctx._log, ctx._inv_table, ctx.units()):
            digest.update(b"none" if a is None
                          else repr((a.dtype.str, a.shape)).encode() + a.tobytes())
    assert len(PINNED_FIELDS) == 40
    assert digest.hexdigest() == FIELD_TABLES_SHA256


def test_construction_rejections():
    with pytest.raises(NonPrimeCharacteristic):
        field_new(6)
    with pytest.raises(Overflow):
        field_new(2, 33)
    with pytest.raises(NonPrimeCharacteristic):
        field_from_order(12)


@pytest.mark.parametrize("q,r,expected", [(13, 3, 3), (7, 3, 2)])
def test_root_of_unity_examples(q, r, expected):
    ctx = field_new(q)
    w = root_of_unity(ctx, r)
    assert w == expected
    assert exhaustive_order(ctx, w) == r


def test_root_of_unity_trivial_and_errors():
    ctx = field_new(13)
    assert root_of_unity(ctx, 1) == 1
    with pytest.raises(NotADivisor):
        root_of_unity(ctx, 5)


@pytest.mark.parametrize("q,r,x,expected", [
    (13, 3, 2, {2, 6, 5}),
    (7, 3, 3, {3, 6, 5}),
    (13, 1, 4, {4}),
])
def test_coset_examples(q, r, x, expected):
    ctx = field_new(q)
    assert set(coset(ctx, r, x)) == expected


def test_coset_rejects_zero():
    with pytest.raises(ZeroElement):
        coset(field_new(13), 3, 0)


@pytest.mark.parametrize("q,r", [(13, 3), (13, 4), (16, 5), (7, 3)])
def test_cosets_partition_the_units(q, r):
    ctx = field_from_order(q)
    seen = set()
    classes = 0
    for x in range(1, q):
        if x in seen:
            continue
        c = coset(ctx, r, x)
        assert len(c) == r
        assert not (seen & c)
        seen |= c
        classes += 1
    assert classes == (q - 1) // r
    assert len(seen) == q - 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (13, 1), (2, 4), (3, 2)])
def test_field_axioms_exhaustive_small(p, m):
    ctx = field_new(p, m)
    if ctx.q > 16:
        pytest.skip("exhaustive triple loop only for q <= 16")
    elems = range(ctx.q)
    for a in elems:
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
            for c in elems:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(13, 1), (5, 2), (127, 1), (2, 6)]),
       st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
def test_field_axioms_randomized(pm, a, b, c):
    ctx = field_new(*pm)
    a, b, c = a % ctx.q, b % ctx.q, c % ctx.q
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.sub(ctx.add(a, b), b) == a
    if a:
        assert ctx.div(ctx.mul(a, b), a) == b


@pytest.mark.parametrize("p,m", [(13, 1), (2, 4), (5, 2)])
def test_power_sum_identity(p, m):
    # sum over units of x^i vanishes unless (q-1) | i, where it is -1
    ctx = field_new(p, m)
    units = ctx.units().tolist()
    for i in range(1, 2 * (ctx.q - 1) + 1):
        total = 0
        for x in units:
            total = ctx.add(total, ctx.pow(x, i))
        expected = ctx.neg(1) if i % (ctx.q - 1) == 0 else 0
        assert total == expected, i


def test_units_order_matches_generator_powers():
    ctx = field_new(7)
    assert ctx.units().tolist() == [1, 3, 2, 6, 4, 5]


@pytest.mark.parametrize("p,m", [(7, 1), (5, 2)])
def test_linear_algebra_roundtrips(p, m):
    ctx = field_new(p, m)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, ctx.q, size=(4, 7))
        ns = nullspace(ctx, a)
        assert ns.shape[0] == 7 - rank(ctx, a)
        for row in ns:
            out = np.zeros(4, dtype=np.int64)
            for j in range(7):
                out = ctx.add(out, ctx.mul(int(row[j]), a[:, j]))
            assert not np.any(out)
        b = _column_combination(ctx, a, rng.integers(0, ctx.q, size=7))
        sol, ker = solve_right(ctx, a, b)
        assert sol is not None
        assert np.array_equal(_column_combination(ctx, a, sol), b)
        assert np.array_equal(ker, ns)
        # row 3 = row 0 + row 1, and b breaks that relation: no solution
        dep = a.copy()
        dep[3] = ctx.add(dep[0], dep[1])
        bad = _column_combination(ctx, dep, rng.integers(0, ctx.q, size=7))
        bad[3] = ctx.add(int(bad[3]), 1)
        sol, ker = solve_right(ctx, dep, bad)
        assert sol is None
        assert np.array_equal(ker, nullspace(ctx, dep))
        assert ker.shape[0] >= 4  # dep has rank <= 3


def _column_combination(ctx, a, x):
    """a @ x by the scalar loop over columns (the oracle for the solver)."""
    out = np.zeros(a.shape[0], dtype=np.int64)
    for j in range(a.shape[1]):
        out = ctx.add(out, ctx.mul(int(x[j]), a[:, j]))
    return out


# GF(2), GF(7), GF(127), the large primes 2^27 - 39 and 2^31 - 1, GF(5^2), GF(2^3)
RREF_FIELDS = [(2, 1), (7, 1), (127, 1), (2**27 - 39, 1), (2**31 - 1, 1), (5, 2), (2, 3)]


def _rref_oracle(ctx, mat):
    """(R, pivots) by scalar Gauss-Jordan on Python ints, one field operation
    per entry; a prime field's arithmetic is Python's own ``%`` and ``pow``."""
    a = [[int(x) for x in row] for row in np.asarray(mat)]
    rows, cols = np.shape(mat)
    if ctx.m == 1:
        p = ctx.p
        mul, sub = (lambda x, y: x * y % p), (lambda x, y: (x - y) % p)
        inv = lambda x: pow(x, p - 2, p)
    else:
        mul, sub = (lambda x, y: int(ctx.mul(x, y))), (lambda x, y: int(ctx.sub(x, y)))
        inv = lambda x: int(ctx.inv(x))
    pivots, r = [], 0
    for c in range(cols):
        i = next((i for i in range(r, rows) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        s = inv(a[r][c])
        a[r] = [mul(s, x) for x in a[r]]
        for j in range(rows):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [sub(x, mul(f, y)) for x, y in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
    return np.array(a, dtype=np.int64).reshape(rows, cols), pivots


def _rref_shapes(ctx, rng):
    """Seeded matrices: empty and zero, tall, wide, and rank-deficient ones."""
    q = ctx.q
    yield from (np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
                np.zeros((4, 6), dtype=np.int64))
    yield from (rng.integers(0, q, size=(9, 4)), rng.integers(0, q, size=(4, 11)),
                rng.integers(0, q, size=(7, 7)))
    low = matmul(ctx, rng.integers(0, q, size=(8, 3)), rng.integers(0, q, size=(3, 10)))
    low[:, [2, 6]] = 0  # zero columns among dependent ones
    yield low
    yield np.full((5, 6), q - 1)


def _gs_hasse_matrix(monkeypatch):
    """The Hasse-derivative constraint matrix of RS(31,16) at e = 8, m = 4."""
    from qlrc import listdec

    ctx, seen = field_new(31), []
    assert listdec.gs_multiplicity(31, 16, 8)[0] == 4
    monkeypatch.setattr(listdec, "nullspace", lambda c, mat: seen.append(mat) or nullspace(c, mat))
    listdec._guruswami_sudan(ctx, 16, np.random.default_rng(31).integers(0, 31, size=30), 8, 4)
    monkeypatch.undo()
    return ctx, seen[0]


# sha256 of seeded (R, pivots) over RREF_FIELDS, plus the AEL Z-side
# generator (290 x 576 over GF(5)) and an RS(31,16) m = 4 GS Hasse matrix,
# computed with the elimination that reduced every entry at every step; an
# RREF is unique, so any elimination must reproduce it byte for byte
RREF_SHA256 = "089235bb448478a88e8ae29c7a6001c7414dec2d350a3ae48cc4b7f7ab735773"


def test_rref_outputs_are_pinned(monkeypatch):
    from qlrc.ensembles import ael_standard_build

    cases = []
    for p, m in RREF_FIELDS:
        ctx = field_new(p, m)
        cases.extend((ctx, mat) for mat in _rref_shapes(ctx, np.random.default_rng(p + m)))
    cases.append((field_new(5), ael_standard_build(seed=90).code.css.cz.basis))
    cases.append(_gs_hasse_matrix(monkeypatch))
    digest = hashlib.sha256()
    for ctx, mat in cases:
        r, pivots = rref(ctx, mat)
        digest.update(repr((ctx.q, r.dtype.str, r.shape, pivots)).encode() + r.tobytes())
    assert cases[-2][1].shape == (290, 576) and cases[-1][1].shape == (300, 303)
    assert digest.hexdigest() == RREF_SHA256


@pytest.mark.parametrize("p,m", RREF_FIELDS)
def test_rref_matches_scalar_oracle(p, m):
    ctx = field_new(p, m)
    rng = np.random.default_rng(10 * p + m)
    mats = list(_rref_shapes(ctx, rng)) + [rng.integers(0, ctx.q, size=(12, 12))]
    if m == 1:  # rank 1: 1 - (p-1)^2 is a nonzero multiple of p
        mats.append(np.array([[1, p - 1], [p - 1, 1]]))
    for mat in mats:
        r, pivots = rref(ctx, mat)
        want, want_pivots = _rref_oracle(ctx, mat)
        assert pivots == want_pivots and np.array_equal(r, want), mat.shape
    if m == 1:
        assert rank(ctx, [[1, p - 1], [p - 1, 1]]) == 1


def test_rref_matches_scalar_oracle_when_headroom_runs_out():
    # 64 updates of up to (p-1)^2 > 2^58 each pass 2^63 about halfway through.
    # Random entries stay far below the bound; under a unit lower triangle of
    # p - 1 every multiplier is p - 1, so the last columns do overflow int64
    # unless the block is reduced on the way.
    p = 536870909
    ctx = field_new(p)
    assert 64 * (p - 1) ** 2 > 1 << 63
    rng = np.random.default_rng(29)
    low = np.tril(np.full((64, 64), p - 1), -1) + np.eye(64, dtype=np.int64)
    for mat in (rng.integers(0, p, size=(64, 64)), rng.integers(p - 3, p, size=(64, 70)),
                np.hstack([low, np.full((64, 6), p - 1)])):
        r, pivots = rref(ctx, mat)
        want, want_pivots = _rref_oracle(ctx, mat)
        assert pivots == want_pivots and np.array_equal(r, want)


def _assert_row_order_free(ctx, mat, rng, shuffles):
    """rref of mat with its rows reversed and shuffled equals rref of mat."""
    want, want_pivots = rref(ctx, mat)
    orders = [np.arange(len(mat))[::-1]] + [rng.permutation(len(mat)) for _ in range(shuffles)]
    for order in orders:
        r, pivots = rref(ctx, np.asarray(mat)[order])
        assert pivots == want_pivots and np.array_equal(r, want), np.shape(mat)


@pytest.mark.parametrize("p,m", RREF_FIELDS)
def test_rref_is_independent_of_row_order(p, m):
    # rref eliminates the sparsest rows first; an RREF is unique, so no row
    # order may change (R, pivots)
    ctx = field_new(p, m)
    rng = np.random.default_rng(20 * p + m)
    for mat in _rref_shapes(ctx, rng):
        _assert_row_order_free(ctx, mat, rng, shuffles=4)


def test_rref_of_the_ael_generators_is_independent_of_row_order():
    from qlrc.ensembles import ael_standard_build

    css = ael_standard_build(seed=90).code.css
    rng = np.random.default_rng(21)
    for basis in (css.cz.basis, css.cx.basis):
        assert basis.shape == (290, 576)
        _assert_row_order_free(field_new(5), basis, rng, shuffles=1)


@pytest.mark.parametrize("p,m", [(5, 1), (127, 1), (5, 2)])
def test_rref_sparse_blocks_under_dense_rows_match_scalar_oracle(p, m):
    # the shape of the AEL generators: three dense rows above block-diagonal
    # sparse rows, which the sparsest-first order eliminates before them
    ctx = field_new(p, m)
    rng = np.random.default_rng(30 * p + m)
    sparse = np.zeros((12, 24), dtype=np.int64)
    for b in range(4):
        block = rng.integers(0, ctx.q, size=(3, 6))
        block[rng.random(block.shape) < 0.5] = 0
        sparse[3 * b: 3 * b + 3, 6 * b: 6 * b + 6] = block
    for mat in (np.vstack([rng.integers(1, ctx.q, size=(3, 24)), sparse]),
                np.vstack([rng.integers(1, ctx.q, size=(2, 24)), sparse[:6],
                           rng.integers(1, ctx.q, size=(1, 24)), sparse[6:]])):
        r, pivots = rref(ctx, mat)
        want, want_pivots = _rref_oracle(ctx, mat)
        assert pivots == want_pivots and np.array_equal(r, want)


def test_rref_zero_rows_sort_first_and_still_come_out_last():
    ctx = field_new(7)
    mat = np.array([[3, 1, 4, 1], [0, 0, 0, 0], [5, 0, 2, 6], [0, 0, 0, 0], [1, 1, 1, 1]])
    r, pivots = rref(ctx, mat)
    want, want_pivots = _rref_oracle(ctx, mat)
    assert pivots == want_pivots and np.array_equal(r, want)
    assert len(pivots) == 3 and not r[3:].any()


def test_rowspace_membership_and_reduce():
    ctx = field_new(13)
    basis = np.array([[1, 2, 3, 4], [0, 1, 1, 1]])
    space = RowSpace(ctx, basis)
    assert space.contains(ctx.add(basis[0], ctx.mul(5, basis[1])))
    assert not space.contains(np.array([0, 0, 0, 1]))
    assert space.contains(basis) and not space.contains(np.eye(4, dtype=np.int64))


def _reduce_oracle(ctx, space, v):
    """Residue and coordinates by the sequential loop: subtract the pivot
    entry's multiple of each pivot-basis row in turn."""
    v = np.array(v, dtype=np.int64, copy=True)
    coeff = np.zeros(space.dim, dtype=np.int64)
    for ri, pc in enumerate(space.pivots):
        c = int(v[pc])
        coeff[ri] = c
        v = ctx.sub(v, ctx.mul(c, space.pivot_basis[ri]))
    return v, coeff


@pytest.mark.parametrize("p,m", [(13, 1), (127, 1), (5, 2), (2, 4)])
def test_rowspace_reduce_matches_sequential_loop(p, m):
    ctx = field_new(p, m)
    rng = np.random.default_rng(p + m)
    for rows, cols in [(0, 5), (1, 1), (3, 8), (6, 6), (9, 12)]:
        basis = rng.integers(0, ctx.q, size=(rows, cols))
        if rows > 1:
            basis[-1] = ctx.add(basis[0], basis[1])  # a dependent row
        space = RowSpace(ctx, basis)
        members = matmul(ctx, rng.integers(0, ctx.q, size=(4, rows)), basis)
        for v in list(members) + list(rng.integers(0, ctx.q, size=(4, cols))):
            residue, coeff = _reduce_oracle(ctx, space, v)
            assert np.array_equal(space.residue(v), residue[space.free])
            assert not np.any(residue[space.pivots])
            assert space.contains(v) == (not np.any(residue))
            if not np.any(residue):  # a member's coefficients are its pivot entries
                assert np.array_equal(v[space.pivots], coeff)


@pytest.mark.parametrize("p,m", [(127, 1), (5, 2)])
def test_rowspace_products_match_the_full_width_formulas(p, m):
    # apply, residue and contains read only the block off the pivots; the
    # full-width products they replace are the oracles
    ctx = field_new(p, m)
    rng = np.random.default_rng(11 * p + m)
    for rows, cols in [(0, 7), (7, 7), (3, 9), (8, 20)]:  # dim 0; dim n: no free columns
        basis = rng.integers(0, ctx.q, size=(rows, cols))
        space = RowSpace(ctx, basis)
        assert space.dim == rows and len(space.pivots) + len(space.free) == cols
        full = space.pivot_basis
        stack = np.vstack([rng.integers(0, ctx.q, size=(5, cols)),
                           matmul(ctx, rng.integers(0, ctx.q, size=(3, rows)), basis)])
        residues = ctx.sub(stack, matmul(ctx, stack[:, space.pivots], full))
        assert np.array_equal(space.apply(stack), matmul(ctx, full, stack.T).T)
        assert np.array_equal(space.residue(stack), residues[:, space.free])
        assert not np.any(residues[:, space.pivots])
        for v, residue in zip(stack, residues):
            assert np.array_equal(space.apply(v), matmul(ctx, full, v))
            assert np.array_equal(space.residue(v), residue[space.free])
            assert space.contains(v) == (not np.any(residue))
        assert space.contains(stack) == (not np.any(residues))
        assert space.contains(stack[5:])  # the members only
        assert space.contains(stack[:5]) == (rows == cols)
        assert space.apply(stack[:0]).shape == (0, space.dim)


def test_rowspace_contains_reduces_noncanonical_entries():
    # an entry p in GF(p) is 0: a member shifted by p stays a member
    ctx = field_new(13)
    space = RowSpace(ctx, np.array([[1, 2, 3, 4], [0, 1, 1, 1]]))
    member = matmul(ctx, np.array([3, 5]), space.pivot_basis)
    assert space.contains(member + 13) and space.contains(member - 13 * (member > 0))
    assert not space.contains(member + np.array([0, 0, 0, 14]))


def test_units_built_once_and_read_only():
    for ctx in (field_new(13), field_new(5, 2)):
        units = ctx.units()
        assert units is ctx.units() and not units.flags.writeable
        with pytest.raises(ValueError):
            units[0] = 0
        assert units.tolist() == [ctx.pow(ctx.omega, i) for i in range(ctx.q - 1)]


def test_trace_lands_in_prime_subfield():
    ctx = field_new(5, 2)
    for a in range(25):
        t = ctx.trace(a)
        assert 0 <= t < 5


def _matmul_oracle(ctx, a, b):
    """a @ b by a scalar triple loop: one field add and mul per term."""
    a2 = np.atleast_2d(a)
    b2 = b[:, None] if b.ndim == 1 else b
    out = np.zeros((a2.shape[0], b2.shape[1]), dtype=np.int64)
    for i in range(a2.shape[0]):
        for j in range(b2.shape[1]):
            acc = 0
            for t in range(b2.shape[0]):
                acc = ctx.add(acc, ctx.mul(int(a2[i, t]), int(b2[t, j])))
            out[i, j] = acc
    return out.reshape(np.matmul(np.zeros(a.shape), np.zeros(b.shape)).shape)


# GF(7), GF(13): the float path; 2^27 - 39 (products near 2^54) and 2^31 - 1
# (near 2^62): the large-prime path; the extension fields: the float path
# through the base-field expansion
MATMUL_FIELDS = [(7, 1), (13, 1), (2**27 - 39, 1), (2**31 - 1, 1), (5, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("p,m", MATMUL_FIELDS)
def test_matmul_matches_scalar_oracle_for_every_shape(p, m):
    ctx = field_new(p, m)
    rng = np.random.default_rng(p + m)
    for k in (0, 1, 5):
        for rows in (0, 3):
            for cols in (0, 4):
                a2 = rng.integers(0, ctx.q, size=(rows, k))
                b2 = rng.integers(0, ctx.q, size=(k, cols))
                a1 = rng.integers(0, ctx.q, size=k)
                b1 = rng.integers(0, ctx.q, size=k)
                for a, b in ((a2, b2), (a2, b1), (a1, b2), (a1, b1)):
                    got = matmul(ctx, a, b)
                    want = _matmul_oracle(ctx, a, b)
                    assert got.shape == want.shape, (a.shape, b.shape)
                    assert np.array_equal(got, want), (a.shape, b.shape)
    top = np.full((3, 3), ctx.q - 1)  # largest partial sums the accumulator meets
    assert np.array_equal(matmul(ctx, top, top), _matmul_oracle(ctx, top, top))
    u, v = rng.integers(0, ctx.q, size=(2, 6))
    assert matmul(ctx, u, v) == int(_matmul_oracle(ctx, u, v))


@pytest.mark.parametrize("p,m", MATMUL_FIELDS)
def test_matmul_row_blocks(p, m, monkeypatch):
    # 25 rows at 40 cells per block: blocks of 2 rows and a short last one
    monkeypatch.setattr(gf, "_MATMUL_BLOCK_CELLS", 40)
    ctx = field_new(p, m)
    rng = np.random.default_rng(7)
    a = rng.integers(0, ctx.q, size=(25, 5))
    b = rng.integers(0, ctx.q, size=(5, 4))
    assert np.array_equal(matmul(ctx, a, b), _matmul_oracle(ctx, a, b))



# GF(2), GF(7), GF(127), GF(4), GF(8), GF(9), GF(25), GF(2^8)
PREPARED_FIELDS = [(2, 1), (7, 1), (127, 1), (2, 2), (2, 3), (3, 2), (5, 2), (2, 8)]


@pytest.mark.parametrize("p,m", PREPARED_FIELDS)
def test_matmul_prepared_operands_match_the_scalar_oracle(p, m):
    ctx = field_new(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for rows, k, cols in ((3, 5, 4), (1, 7, 1), (6, 2, 9), (0, 3, 2), (2, 0, 3)):
        a = rng.integers(0, ctx.q, size=(rows, k))
        b = rng.integers(0, ctx.q, size=(k, cols))
        a1, b1 = rng.integers(0, ctx.q, size=(2, k))
        cases = [(a, b), (gf.frozen(a), b), (a, gf.frozen(b)), (gf.frozen(a), gf.frozen(b)),
                 (gf.frozen(a), b1), (a1, gf.frozen(b)), (a, b1), (a1, b)]
        for x, y in cases:
            want = _matmul_oracle(ctx, np.asarray(x), np.asarray(y))
            for _ in range(2):  # the second call reads the prepared form
                got = matmul(ctx, x, y)
                assert got.shape == want.shape and np.array_equal(got, want), (x.shape, y.shape)


def _dot(p, a, b):
    return sum(int(x) * int(y) for x, y in zip(a, b)) % p


def test_matmul_float32_up_to_2_24_then_float64():
    # K*(p-1)^2 is 16,765,056 < 2^24 for K = 1056 over GF(127), 16,780,932 for
    # K = 1057; the second sum below is odd and above 2^24, which float32 rounds
    ctx = field_new(127)
    for k, dtype in ((1056, np.float32), (1057, np.float64)):
        row = np.full(k, 126)
        row[-1] = 125
        left = gf.frozen(row[None, :])
        assert matmul(ctx, left, row).tolist() == [_dot(127, row, row)]
        assert matmul(ctx, row, gf.frozen(row[:, None])).tolist() == [_dot(127, row, row)]
        assert matmul(ctx, row, row) == _dot(127, row, row)
        assert gf._PREPARED[id(left)][1][0, 127, ()].dtype == dtype


def test_matmul_large_prime_path_beyond_2_53():
    # (p-1)^2 < 2^53 <= 2(p-1)^2: K = 1 stays in float64, K = 2 takes the
    # large-prime path; (p-1)^2 + (p-2)^2 is odd and above 2^53, which
    # float64 rounds
    p = 94906249
    ctx = field_new(p)
    top = np.array([p - 1, p - 2])
    assert matmul(ctx, top[:1], top[:1]) == (p - 1) ** 2 % p
    assert matmul(ctx, top, top) == ((p - 1) ** 2 + (p - 2) ** 2) % p
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, p, size=(3, 2)), gf.frozen(rng.integers(0, p, size=(2, 4)))
    assert np.array_equal(matmul(ctx, a, b), _matmul_oracle(ctx, a, b))


def test_prepared_form_dies_with_its_array():
    ctx = field_new(5, 2)
    a = gf.frozen(np.arange(12).reshape(3, 4))
    before = len(gf._PREPARED)
    matmul(ctx, a, np.arange(4))
    key = id(a)
    assert key in gf._PREPARED and len(gf._PREPARED) == before + 1
    del a
    assert key not in gf._PREPARED and len(gf._PREPARED) == before


def test_views_and_writeable_operands_are_never_prepared():
    ctx = field_new(7)
    a = gf.frozen(np.arange(24).reshape(4, 6) % 7)
    w = np.arange(24).reshape(6, 4) % 7
    matmul(ctx, a, w)
    size = len(gf._PREPARED)
    for i in range(1000):  # transient views
        matmul(ctx, a.T, a[:, :4])
        matmul(ctx, a[i % 4:], w)
        matmul(ctx, w, a[:, 1:5])
    views = [a.T, a[1:], a[:, 1:5]]  # read-only views that stay alive
    for _ in range(10):
        matmul(ctx, views[0], views[2])
        matmul(ctx, views[1], w)
        matmul(ctx, w, views[2])
    assert len(gf._PREPARED) == size
    assert not any(id(x) in gf._PREPARED for x in views + [w]) and w.flags.writeable


def test_fixed_matrices_are_read_only():
    from qlrc.ensembles import _inner_decoder_cache, logical_pair, random_qlrc
    from qlrc.listdec import _idft_matrix
    from qlrc.polycode import eval_table

    sample = random_qlrc(12, 3, 1, 3, seed=2)
    ctx, code = sample.ctx, sample.css.cz
    pair = logical_pair(sample.css)
    fixed = [code.dual_basis, code.dual_space.pivot_basis, code.row_space.pivot_basis,
             RowSpace(ctx, code.basis).pivot_basis, _idft_matrix(ctx), eval_table(ctx, 6),
             pair.lx, pair.lz, _inner_decoder_cache(ctx, np.array(sample.css.hz)).parity]
    for mat in fixed:
        assert not mat.flags.writeable and mat.base is None
