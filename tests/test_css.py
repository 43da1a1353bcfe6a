"""CSS validation, distance, syndromes, erasures, and local recovery."""

import numpy as np
import pytest

from qlrc.bounds import singleton_quantum
from qlrc.classical import LinearCode, eval_code, rs_code
from qlrc.css import (
    PauliError,
    can_decode_erasures,
    coset_representative,
    css_decode,
    css_distance_brute,
    css_new,
    is_logical_identity,
    local_recovery_sets,
    random_pauli,
    recover_pauli,
    residual_after_correction,
    syndrome,
)
from qlrc.errors import FoldMismatch, NoCoveringCheck, OrthogonalityViolation, ValidationError
from qlrc.gf import field_new, matmul
from qlrc.polycode import powers, support_qtb
from qlrc.qtb import fqtb_new, qtb_new

F7 = field_new(7)
F13 = field_new(13)


def test_css_new_rejects_codes_over_different_fields():
    full = np.eye(4, dtype=np.int64)  # no checks, so any pair is orthogonal
    for other in (field_new(7), field_new(5, 2)):
        with pytest.raises(ValidationError, match="different fields"):
            css_new(LinearCode(field_new(5), full), LinearCode(other, full))
    code = css_new(LinearCode(field_new(5), full), LinearCode(field_new(5, 1), full))
    assert code.ctx is field_new(5)


def qtb_css(q, r, ell):
    ctx = field_new(q)
    c = eval_code(ctx, support_qtb(q, r, ell))
    return css_new(c, c)


def test_css_new_self_dual_examples():
    code13 = qtb_css(13, 3, 8)
    assert (code13.n, code13.k) == (12, 2)
    code7 = qtb_css(7, 3, 4)
    assert (code7.n, code7.k) == (6, 2)


def test_css_new_violation_with_witness():
    with pytest.raises(OrthogonalityViolation) as exc:
        css_new(rs_code(F13, 4), rs_code(F13, 4))
    u, v = exc.value.witness
    assert matmul(F13, u, v) != 0


def test_css_distance_brute_714():
    code = qtb_css(7, 3, 4)
    d, wit, side = css_distance_brute(code)
    assert d == 2
    assert np.count_nonzero(wit) == 2


def test_css_distance_at_most_quantum_singleton():
    for code, expected in ((qtb_css(7, 3, 4), 2), (qtb_css(13, 3, 8), 4)):
        d, _, _ = css_distance_brute(code)
        assert d == expected
        assert d <= singleton_quantum(code.n, code.k)


def test_css_distance_brute_pins_the_qtb13_witnesses():
    # the minimum-weight word of lowest message index, symbol and block weight
    d, wit, side = css_distance_brute(qtb_new(13, 3, 8).css)
    assert (d, wit.tolist(), side) == (4, [10, 0, 10, 0, 0, 0, 0, 0, 9, 0, 9, 0], "z")
    d, wit, side = css_distance_brute(fqtb_new(13, 3, 8, 2).base.css, fold_s=2)
    assert (d, wit.tolist(), side) == (2, [0, 0, 12, 5, 0, 0, 0, 0, 0, 0, 3, 11], "z")


def test_css_distance_brute_pins_the_qtb19_witnesses():
    # values from the disjoint-set search, which these shift-invariant codes no longer take
    css = qtb_new(19, 3, 10).css
    d, wit, side = css_distance_brute(css, cap=19**10)  # cap on words weighed; this search weighs 39,700
    assert (d, wit.tolist(), side) == (6, [0, 0, 0, 9, 16, 10, 0, 0, 0, 15, 0, 4, 0, 0, 0, 0, 2, 0], "z")
    d, wit, side = css_distance_brute(css, cap=19**10, fold_s=2)
    assert (d, wit.tolist(), side) == (4, [0, 0, 0, 0, 0, 0, 0, 0, 14, 15, 6, 5, 0, 0, 17, 6, 10, 2], "z")


@pytest.mark.parametrize("fold_s", [0, 4])
def test_css_distance_brute_rejects_a_fold_that_does_not_divide_n(fold_s):
    with pytest.raises(FoldMismatch):
        css_distance_brute(qtb_css(7, 3, 4), fold_s=fold_s)  # n = 6


def test_zero_error_zero_syndrome_zero_equivalent_correction():
    code = qtb_css(7, 3, 4)
    zero = PauliError(np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64))
    sx, sz = syndrome(code, zero)
    assert not np.any(sx) and not np.any(sz)
    ident = lambda t: t - t  # decoder returning the zero codeword
    corr = css_decode(code, sx, sz, lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))
    assert is_logical_identity(code, residual_after_correction(F7, zero, corr))


def test_stabilizer_error_is_invisible():
    # an error drawn from the stabilizer has zero syndrome and is already
    # a logical identity
    code = qtb_css(13, 3, 8)
    rng = np.random.default_rng(0)
    hz_row = code.hz[int(rng.integers(code.hz.shape[0]))]
    hx_row = code.hx[int(rng.integers(code.hx.shape[0]))]
    err = PauliError(hz_row, hx_row)  # bx in C_Z-dual, bz in C_X-dual
    sx, sz = syndrome(code, err)
    assert not np.any(sx) and not np.any(sz)
    assert is_logical_identity(code, err)


def test_coset_representative_consistency():
    code = qtb_css(13, 3, 8)
    rng = np.random.default_rng(1)
    for _ in range(20):
        e = random_pauli(F13, 12, 3, "mixed", rng)
        sx, sz = syndrome(code, e)
        tx = coset_representative(code, "x", sx)
        assert code.cx.contains(F13.sub(tx, e.bx))


def test_one_elimination_serves_membership_dual_and_preimage(monkeypatch):
    from qlrc import classical, gf

    calls = []
    real = gf.rref

    def counting(ctx, mat):
        calls.append(np.shape(mat))
        return real(ctx, mat)

    for module in (gf, classical):  # every binding that a code's methods could reach
        monkeypatch.setattr(module, "rref", counting)
    c = classical.LinearCode(F13, powers(F13, support_qtb(13, 3, 8)))
    code = css_new(c, c)
    assert c.contains(c.basis[0]) and not c.contains(np.eye(12, dtype=np.int64)[0])
    assert c.dual_basis.shape == (5, 12) and c.dual_space.contains(c.dual_basis[1])
    coset_representative(code, "x", np.arange(5))
    assert calls == [(7, 12)]


def _ael_css():
    from qlrc.ensembles import ael_standard_build

    return ael_standard_build(seed=90).code.css


def _random_qlrc_css():
    from qlrc.ensembles import random_qlrc

    return random_qlrc(12, 3, 1, 5, seed=0).css


@pytest.mark.parametrize("build", [lambda: qtb_css(13, 3, 8), _ael_css, _random_qlrc_css],
                         ids=["qtb13", "ael90", "random_qlrc"])
def test_coset_representative_is_the_syndrome_on_the_free_columns(build):
    from qlrc.gf import rref

    code = build()
    ctx = code.ctx
    rng = np.random.default_rng(3)
    for side, component, checks in (("x", code.cx, code.hx), ("z", code.cz, code.hz)):
        pivots = rref(ctx, component.basis)[1]
        for _ in range(5):
            syn = rng.integers(0, ctx.q, size=len(checks))
            t = coset_representative(code, side, syn)
            assert np.array_equal(matmul(ctx, checks, t), syn)
            assert not np.any(t[pivots])  # zero off the free columns
        with pytest.raises(ValidationError):
            coset_representative(code, side, np.zeros(len(checks) + 1, dtype=np.int64))


@pytest.mark.parametrize("build", [lambda: qtb_css(13, 3, 8), _ael_css], ids=["qtb13", "ael90"])
def test_syndrome_of_the_coset_representative_round_trips(build):
    code = build()
    rng = np.random.default_rng(5)
    for _ in range(5):
        sx = rng.integers(0, code.ctx.q, size=code.dual_x_space.dim)
        sz = rng.integers(0, code.ctx.q, size=code.dual_z_space.dim)
        err = PauliError(coset_representative(code, "x", sx), coset_representative(code, "z", sz))
        got_x, got_z = syndrome(code, err)
        assert np.array_equal(got_x, sx) and np.array_equal(got_z, sz)
        # the same products at full width: H_X @ bx and H_Z @ bz
        assert np.array_equal(matmul(code.ctx, code.hx, err.bx), sx)
        assert np.array_equal(matmul(code.ctx, code.hz, err.bz), sz)


def test_erasures_empty_and_singletons():
    code = qtb_css(7, 3, 4)
    assert can_decode_erasures(code, [])
    assert all(can_decode_erasures(code, [i]) for i in range(6))


def test_erasures_fail_on_min_weight_support():
    code = qtb_css(7, 3, 4)
    d, wit, _ = css_distance_brute(code)
    bad = np.nonzero(wit)[0].tolist()
    assert len(bad) == d
    assert not can_decode_erasures(code, bad)


def test_erasures_monotone():
    code = qtb_css(13, 3, 8)
    rng = np.random.default_rng(2)
    for _ in range(30):
        size = int(rng.integers(1, 6))
        s = rng.choice(12, size=size, replace=False).tolist()
        if can_decode_erasures(code, s):
            for i in range(len(s)):
                assert can_decode_erasures(code, s[:i] + s[i + 1:])


def test_recovery_sets_are_cosets_partition():
    # search must discover exactly the coset partition at locality 3
    code = qtb_css(13, 3, 8)
    recs = local_recovery_sets(code, 3)
    members = {rs.members for rs in recs}
    assert members == {(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)}
    covered = sorted(rs.position for rs in recs)
    assert covered == list(range(12))


def test_no_covering_check_on_mid_range_rs_css():
    # CSS(RS(13,7), RS(13,7)) is valid but its dual has minimum weight 7;
    # no weight-3 checks exist anywhere
    code = css_new(rs_code(F13, 7), rs_code(F13, 7))
    with pytest.raises(NoCoveringCheck):
        local_recovery_sets(code, 3)


def test_recover_pauli_exhaustive_single_qudit():
    code = qtb_css(13, 3, 8)
    recs = local_recovery_sets(code, 3)
    for i in (0, 5, 11):
        for ex in range(13):
            for ez in range(13):
                if ex == 0 and ez == 0:
                    continue
                bx = np.zeros(12, dtype=np.int64)
                bz = np.zeros(12, dtype=np.int64)
                bx[i], bz[i] = ex, ez
                err = PauliError(bx, bz)
                corr = recover_pauli(code, recs[i], err)
                assert residual_after_correction(F13, err, corr).weight == 0


def test_random_pauli_models():
    rng = np.random.default_rng(3)
    e = random_pauli(F13, 12, 4, "x-only", rng)
    assert e.weight == 4 and not np.any(e.bz)
    e = random_pauli(F13, 12, 4, "z-only", rng)
    assert e.weight == 4 and not np.any(e.bx)
    e = random_pauli(F13, 12, 4, "mixed", rng)
    assert e.weight == 4
    assert e.block_weight(2) <= 4
