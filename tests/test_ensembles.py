"""Random qLRCs, expander sampling, and the AEL pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from qlrc.classical import rs_code
from qlrc.css import (
    PauliError,
    css_distance_brute,
    css_new,
    is_logical_identity,
    recover_pauli,
    residual_after_correction,
)
from qlrc.ensembles import (
    ExpanderGraph,
    ael_build,
    ael_decode,
    ael_encode,
    ael_locality_structure,
    ael_quantum_decode,
    ael_radius,
    ael_standard_build,
    certified_distance_at_least,
    expander_sample,
    flattening,
    gv_estimate,
    logical_pair,
    measure_lambda,
    random_block_pauli,
    random_qlrc,
    sample_qlrc_with_distance,
    stream_rng,
)
from qlrc.errors import (
    CapExceeded,
    DecodeContractViolation,
    DecodingFailed,
    FoldingMismatch,
    SiblingErased,
    ValidationError,
)
from qlrc.gf import field_new, matmul


def test_initial_pattern_orthogonality():
    # X block (1,...,1) against Z block (-(r-1),1,...,1): -(r-1)+(r-1) = 0
    code = random_qlrc(12, 3, 1, 5, seed=0)
    f5 = field_new(5)
    assert matmul(f5, code.hx[0], code.hz[0]) == 0
    assert code.hz[0][:3].tolist() == [(-(3 - 1)) % 5, 1, 1]


def test_gf4_z_pattern_stays_all_nonzero():
    # characteristic 2 divides r-1 = 2: the substituted pattern still has a
    # nonzero entry at every block position, keeping recovery total
    code = random_qlrc(9, 3, 1, 4, seed=1)
    for rs in code.css.recovery:
        assert rs.check_x[rs.position] != 0
        assert rs.check_z[rs.position] != 0


def test_random_qlrc_dimension_formula():
    assert random_qlrc(9, 3, 1, 4, seed=3).k == 9 - 2 * (3 + 1)
    assert random_qlrc(12, 3, 1, 5, seed=3).k == 12 - 2 * (4 + 1)
    assert random_qlrc(12, 4, 1, 5, seed=3).k == 12 - 2 * (3 + 1)


def test_random_qlrc_parameter_rejections():
    with pytest.raises(ValidationError):
        random_qlrc(10, 3, 1, 4, seed=0)  # r does not divide n
    with pytest.raises(ValidationError):
        random_qlrc(9, 3, 2, 4, seed=0)  # ell beyond n/2 - n/r


def test_every_sample_passes_css_validation():
    for seed in range(25):
        code = random_qlrc(9, 3, 1, 4, seed=seed)  # css_new validated inside
        assert code.k == 1


def test_sampling_is_deterministic_per_seed():
    a = random_qlrc(9, 3, 1, 4, seed=11)
    b = random_qlrc(9, 3, 1, 4, seed=11)
    assert np.array_equal(a.hx, b.hx) and np.array_equal(a.hz, b.hz)
    c = random_qlrc(9, 3, 1, 4, seed=12)
    assert not (np.array_equal(a.hx, c.hx) and np.array_equal(a.hz, c.hz))


def test_single_qudit_recovery_on_random_qlrc():
    code = random_qlrc(9, 3, 1, 4, seed=5)
    ctx = code.ctx
    rng = stream_rng(99)
    for _ in range(200):
        i = int(rng.integers(9))
        pair = int(rng.integers(1, 16))
        bx = np.zeros(9, dtype=np.int64)
        bz = np.zeros(9, dtype=np.int64)
        bx[i], bz[i] = pair % 4, pair // 4
        err = PauliError(bx, bz)
        corr = recover_pauli(code.css, code.css.recovery[i], err)
        assert residual_after_correction(ctx, err, corr).weight == 0


def test_certified_distance_matches_brute():
    for seed in range(8):
        code = random_qlrc(9, 3, 1, 4, seed=seed)
        d, _, _ = css_distance_brute(code.css)
        for t in range(1, 5):
            assert certified_distance_at_least(code.css, t) == (d >= t)


def test_gv_estimate_trivial_threshold():
    est = gv_estimate(9, 3, 1, 4, delta=0.0, trials=5, seed=0)
    assert est.frequency == 1.0  # d >= 0 always


def test_gv_estimate_example_parameters():
    est = gv_estimate(9, 3, 1, 4, delta=2 / 9, trials=30, seed=7)
    assert est.frequency >= est.bound - 3 * (0.25 / est.samples) ** 0.5
    assert est.epsilon < 0  # vacuous threshold at this scale, recorded honestly
    assert all(d >= 1 for d in est.distances)


def test_gv_bound_monotone_in_ell():
    from qlrc.bounds import gv_probability_bound

    assert gv_probability_bound(9, 2, 4, 2 / 9) >= gv_probability_bound(9, 1, 4, 2 / 9)


def test_expander_complete_bipartite_lambda_zero():
    g = expander_sample(8, 8, seed=0)
    assert measure_lambda(g) == 0.0
    assert np.all(g.biadjacency == 1)


def test_expander_perfect_matching_lambda_one():
    g = expander_sample(8, 1, seed=0)
    assert abs(measure_lambda(g) - 1.0) < 1e-12


def test_expander_sweep_lambda_near_ramanujan():
    # spec's empirical yardstick: typically within 2/sqrt(D) + 0.15
    vals = []
    for seed in range(3):
        g = expander_sample(64, 16, seed=seed)
        b = g.biadjacency
        assert np.all(b.sum(axis=0) == 16) and np.all(b.sum(axis=1) == 16)
        assert b.max() == 1  # simple
        vals.append(measure_lambda(g))
    assert min(vals) <= 2 / 4 + 0.15


def test_expander_rejects_overfull_degree():
    with pytest.raises(ValidationError):
        expander_sample(8, 9, seed=0)


def test_expander_determinism_and_descriptor():
    a = expander_sample(16, 4, seed=9)
    b = expander_sample(16, 4, seed=9)
    assert np.array_equal(a.matchings, b.matchings)
    d = a.descriptor()
    rebuilt = ExpanderGraph(n=d["n"], delta=d["delta"],
                            matchings=np.asarray(d["matchings"]))
    assert rebuilt.route(3, 2) == a.route(3, 2)


def test_ael_radius_formula():
    assert abs(ael_radius(0.25, 0.04, 0.05) - 0.125) < 1e-12
    assert ael_radius(0.3, 0.2, 0.0) == 0.3


def test_flattening_trace_pairing():
    for p, m in ((5, 2), (3, 2), (2, 4)):
        ext = field_new(p, m)
        fl = flattening(ext)
        for u in range(ext.q):
            for v in range(ext.q):
                lhs = ext.trace(ext.mul(u, v))
                rhs = int((fl.down(u) * fl.down_dual(v)).sum() % p)
                assert lhs == rhs
        # coordinate systems invert each other
        for u in range(ext.q):
            assert fl.up(fl.down(u)) == u
            assert fl.up_dual(fl.down_dual(u)) == u


def test_logical_pair_duality():
    inner = random_qlrc(12, 3, 1, 3, seed=2)
    pair = logical_pair(inner.css)
    ctx = inner.ctx
    k = inner.k
    for i in range(k):
        for j in range(k):
            assert matmul(ctx, pair.lx[i], pair.lz[j]) == (1 if i == j else 0)


@pytest.fixture(scope="module")
def small_ael():
    inner = sample_qlrc_with_distance(12, 3, 1, 3, seed=11, d_min=3)
    f9 = field_new(3, 2)
    a = rs_code(f9, 5)
    outer = css_new(a, a)
    graph = ExpanderGraph.identity(8, 12)
    return ael_build(outer, inner.css, graph, delta=12, r_in=3)


def test_ael_rate_exact(small_ael):
    code = small_ael
    r_out = Fraction(code.outer.k, code.n_out)
    r_in = Fraction(code.inner.k, code.n_in)
    assert code.rate == r_out * r_in
    assert code.k_qudits == code.outer.k * code.inner.k


def test_ael_identity_graph_is_plain_concatenation(small_ael):
    # one folded block per inner codeword; erasing it is one outer erasure
    code = small_ael
    rng = np.random.default_rng(1)
    msg = rng.integers(0, 9, size=code.outer.k)
    w = ael_encode(code, msg, "z")
    w[24:36] = rng.integers(0, 3, size=12)
    out = ael_decode(code, w, "z")
    assert np.array_equal(out.message, msg)
    assert out.inner_failures <= 1


@pytest.mark.parametrize("side", ["z", "x"])
def test_ael_roundtrip_both_sides(small_ael, side):
    code = small_ael
    rng = np.random.default_rng(2)
    for _ in range(5):
        msg = rng.integers(0, 9, size=code.outer.k)
        w = ael_encode(code, msg, side)
        assert np.array_equal(ael_decode(code, w, side).message, msg)


def test_ael_permuted_graph_structure_and_decode():
    inner = sample_qlrc_with_distance(12, 3, 1, 3, seed=11, d_min=3)
    f9 = field_new(3, 2)
    a = rs_code(f9, 5)
    outer = css_new(a, a)
    graph = expander_sample(16, 6, seed=4)
    code = ael_build(outer, inner.css, graph, delta=6, r_in=3)
    structure = ael_locality_structure(code)
    assert len(structure) == code.n_qudits
    # reference: route pre-permutation qudit (block i, slot j) through the graph;
    # qudit x of the concatenation recovers from the aligned triple holding it
    routed = [graph.route(i, j)[0] * 6 + j for i in range(16) for j in range(6)]
    assert code.perm.tolist() == routed
    assert structure == [(routed[x], tuple(routed[y] for y in range(x // 3 * 3, x // 3 * 3 + 3)
                                           if y != x)) for x in range(code.n_qudits)]
    with pytest.raises(FoldingMismatch):  # every triple stays in its own block
        ael_locality_structure(ael_build(outer, inner.css, ExpanderGraph.identity(16, 6),
                                         delta=6, r_in=3))
    rng = np.random.default_rng(3)
    msg = rng.integers(0, 9, size=code.outer.k)
    w = ael_encode(code, msg, "z")
    assert np.array_equal(ael_decode(code, w, "z").message, msg)


def _radius_one(code):
    """The fields of AelStandard that ael_quantum_decode reads."""
    from types import SimpleNamespace

    return SimpleNamespace(code=code, radius_blocks=1)


def test_ael_quantum_decode_flags_a_non_identity_residual_within_radius(small_ael, monkeypatch):
    from qlrc import ensembles

    std = _radius_one(small_ael)
    err = PauliError(np.eye(1, small_ael.n_qudits, dtype=np.int64)[0],
                     np.zeros(small_ael.n_qudits, dtype=np.int64))
    _, resid = ael_quantum_decode(std, err)  # the real decoders correct it
    assert is_logical_identity(small_ael.css, resid)
    assert not is_logical_identity(small_ael.css, err)

    def leave_the_error(code, word, side="z"):  # corrects nothing
        return ensembles.AelDecodeResult(message=None, word=word, inner_failures=0)

    monkeypatch.setattr(ensembles, "ael_decode", leave_the_error)
    with pytest.raises(DecodeContractViolation, match="residual"):
        ael_quantum_decode(std, err)


def test_ael_quantum_decode_failure_is_a_violation_only_within_radius(small_ael, monkeypatch):
    from qlrc import ensembles

    def fail(code, word, side="z"):
        raise DecodingFailed("no codeword")

    monkeypatch.setattr(ensembles, "ael_decode", fail)
    std = _radius_one(small_ael)
    rng = np.random.default_rng(5)
    for blocks, raised in ((1, DecodeContractViolation), (2, DecodingFailed)):
        err = random_block_pauli(small_ael.ctx, small_ael.block_count, small_ael.delta,
                                 blocks, rng)
        assert err.block_weight(small_ael.delta) == blocks
        with pytest.raises(raised) as info:
            ael_quantum_decode(std, err)
        assert type(info.value) is raised


def test_ael_standard_build_and_radius():
    std = ael_standard_build(seed=101)
    code = std.code
    assert code.n_qudits == 576 and code.delta == 24
    assert std.lam == 0.0  # complete bipartite routing
    assert std.radius_blocks == 1 and std.inner_radius == 1
    assert code.rate == Fraction(code.outer.k, 24) * Fraction(code.inner.k, 24)
    assert code.locality == 72
    rng = np.random.default_rng(0)
    for _ in range(5):
        err = random_block_pauli(code.ctx, code.block_count, code.delta, 1, rng)
        _, resid = ael_quantum_decode(std, err)
        assert is_logical_identity(code.css, resid)


def test_inner_tables_die_with_their_code():
    # the inner syndrome tables are built with the code and held by it, so a
    # new code (different inner code every time) never decodes with another
    # code's table: each one decodes single-qudit errors on both sides
    f9 = field_new(3, 2)
    a = rs_code(f9, 5)
    outer = css_new(a, a)
    rng = np.random.default_rng(4)
    for seed in (11, 12, 13, 11, 12, 13):
        inner = sample_qlrc_with_distance(12, 3, 1, 3, seed=seed, d_min=3)
        code = ael_build(outer, inner.css, ExpanderGraph.identity(8, 12), delta=12, r_in=3)
        for side in ("z", "x"):
            msg = rng.integers(0, 9, size=code.outer.k)
            w = ael_encode(code, msg, side)
            i = int(rng.integers(code.n_qudits))
            w[i] = (w[i] + int(rng.integers(1, 3))) % 3
            out = ael_decode(code, w, side)
            assert np.array_equal(out.message, msg) and out.inner_failures == 0


def test_ael_rejects_an_unknown_side(small_ael):
    msg = np.zeros(small_ael.outer.k, dtype=np.int64)
    with pytest.raises(ValidationError, match="side"):
        ael_encode(small_ael, msg, "y")
    with pytest.raises(ValidationError, match="side"):
        ael_decode(small_ael, np.zeros(small_ael.n_qudits, dtype=np.int64), "y")


def test_inner_table_matches_a_setdefault_oracle():
    # the dict lookup the table replaced: leaders of weight <= 1 in
    # (position, value) order, the first one kept per syndrome tuple
    from qlrc.ensembles import _inner_decoder_cache

    f5 = field_new(5)
    rng = np.random.default_rng(8)
    parity = rng.integers(0, 5, size=(4, 9))
    parity[:, 3] = 2 * parity[:, 0] % 5  # errors at 0 and 3 share syndromes
    parity[:, 6] = 0  # an error at 6 has the zero word's syndrome
    oracle = {}
    for e in np.vstack([np.zeros(9, dtype=np.int64), np.kron(np.eye(9, dtype=np.int64),
                                                             np.arange(1, 5)[:, None])]):
        oracle.setdefault(tuple(matmul(f5, parity, e).tolist()), e)
    words = np.vstack([np.zeros((1, 9), dtype=np.int64),
                       np.kron(np.eye(9, dtype=np.int64), np.arange(1, 5)[:, None]),
                       rng.integers(0, 5, size=(400, 9))])
    decoded, found = _inner_decoder_cache(f5, parity).decode(f5, words)
    for word, got, hit in zip(words, decoded, found):
        leader = oracle.get(tuple(matmul(f5, parity, word).tolist()))
        assert hit == (leader is not None)
        assert np.array_equal(got, word if leader is None else (word - leader) % 5)
    assert not found.all() and found[:37].all()


def test_inner_table_refuses_keys_beyond_int64():
    from qlrc.ensembles import _inner_decoder_cache

    f5 = field_new(5)
    assert len(_inner_decoder_cache(f5, np.eye(27, 30, dtype=np.int64)).keys) == 1 + 27 * 4
    with pytest.raises(CapExceeded) as info:
        _inner_decoder_cache(f5, np.eye(28, 30, dtype=np.int64))
    assert info.value.required == 5**28
