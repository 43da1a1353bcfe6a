"""CLI surface: outputs, exit codes, determinism."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from qlrc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_qtb_example(capsys):
    code, out, _ = run(capsys, "params", "--family", "qtb", "--q", "13",
                       "--r", "3", "--ell", "8")
    assert code == 0
    d = json.loads(out)
    assert (d["n"], d["k"]) == (12, 2)
    assert abs(d["d_lower"] - 2.254) < 1e-3
    assert abs(d["d_upper"] - 8.333) < 1e-3
    assert d["e"] == 0
    assert d["singleton_partition_cap_d"] == 4


def test_params_fqtb_includes_eps_and_uncertainty(capsys):
    code, out, _ = run(capsys, "params", "--family", "fqtb", "--q", "13",
                       "--r", "3", "--ell", "8", "--s", "2")
    assert code == 0
    d = json.loads(out)
    assert abs(d["eps"] - 10 / 36) < 1e-12
    assert d["uncertainty"] is True


def test_params_invalid_fold_exits_2(capsys):
    code, _, err = run(capsys, "params", "--family", "fqtb", "--q", "13",
                       "--r", "3", "--ell", "8", "--s", "3")
    assert code == 2
    assert "divide" in err


def test_distance_qtb734(capsys):
    code, out, _ = run(capsys, "distance", "--family", "qtb", "--q", "7",
                       "--r", "3", "--ell", "4")
    assert code == 0
    assert json.loads(out)["distance"] == 2


def test_ensemble_gv_searches_codes_past_the_old_dimension_cap(capsys):
    # C_Z has dimension 14 here, and 5^14 > 2^26 (the old per-sample cap on q^dim);
    # the cap now counts words weighed, and each sample's search weighs few
    code, out, _ = run(capsys, "ensemble", "--kind", "gv", "--n", "24", "--r", "3",
                       "--ell", "2", "--q", "5", "--trials", "20", "--seed", "1")
    assert code == 0
    assert json.loads(out)["trials"] == 20


def test_distance_fqtb_counts_blocks(capsys):
    code, out, _ = run(capsys, "distance", "--family", "fqtb", "--q", "13",
                       "--r", "3", "--ell", "8", "--s", "2")
    got = json.loads(out)
    assert code == 0 and "distance" not in got
    assert (got["distance_blocks"], got["side"]) == (2, "z")
    assert np.count_nonzero(got["witness"]) == 4  # two whole blocks


def test_distance_rs_small(capsys):
    code, out, _ = run(capsys, "distance", "--family", "rs", "--q", "7", "--ell", "4")
    assert code == 0
    assert json.loads(out)["distance"] == 3


def test_distance_cap_exit_3(capsys):
    code, _, err = run(capsys, "distance", "--family", "qtb", "--q", "127",
                       "--r", "3", "--ell", "80", "--cap", "1000")
    assert code == 3
    assert "cap" in err


def test_distance_cap_zero_is_a_cap_and_a_negative_cap_exits_2(capsys):
    # qTB(13,3,8)'s first pass weighs 7 words, so a cap of 0 words is exceeded
    qtb = ("distance", "--family", "qtb", "--q", "13", "--r", "3", "--ell", "8")
    code, out, err = run(capsys, *qtb, "--cap", "0")
    assert (code, out) == (3, "") and "cap" in err
    code, out, err = run(capsys, *qtb, "--cap", "-1")
    assert (code, out) == (2, "") and "--cap" in err


def test_distance_of_a_code_without_qudits_exits_2(capsys):
    code, out, err = run(capsys, "distance", "--family", "random_qlrc", "--n", "12",
                         "--r", "3", "--ell", "2", "--q", "5", "--seed", "3")
    assert (code, out) == (2, "")
    assert "k = 0" in err


def test_simulate_local_model_all_success(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "qtb", "--q", "13",
                       "--r", "3", "--ell", "8", "--model", "local",
                       "--trials", "40", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,")
    row = lines[1].split(",")
    assert row[0] == "qtb" and int(row[8]) == 40


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--family", "qtb", "--q", "13", "--r", "3", "--ell", "8",
            "--model", "erasure", "--weight", "1", "--trials", "25",
            "--seed", "9", "--format", "csv", "--per-trial")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert all(line.endswith(",1") for line in out1.strip().splitlines()[1:])


@pytest.mark.parametrize("flags", [
    ("--family", "qtb", "--q", "13", "--r", "3", "--ell", "8"),
    ("--family", "fqtb", "--q", "13", "--r", "3", "--ell", "8", "--s", "2"),
    ("--family", "random_qlrc", "--q", "5", "--n", "12", "--r", "3", "--ell", "2", "--seed", "3"),
])
@pytest.mark.parametrize("model,e", [("local", 1), ("erasure", 2)])
def test_simulate_recovery_models_are_timed_and_report_trial_weight(capsys, flags, model, e):
    # a local trial corrupts one qudit whatever --weight says; an erasure trial erases --weight
    code, out, err = run(capsys, "simulate", *flags, "--model", model, "--weight", "2",
                         "--trials", "5")
    assert code == 0, err
    d = json.loads(out)
    assert d["e"] == e
    assert float(d["mean_ms"]) > 0


def test_simulate_overload_requires_flag(capsys):
    code, _, err = run(capsys, "simulate", "--family", "qtb", "--q", "13",
                       "--r", "3", "--ell", "8", "--model", "mixed",
                       "--weight", "3", "--trials", "2")
    assert code == 2
    assert "overload" in err


QTB13 = ("--family", "qtb", "--q", "13", "--r", "3", "--ell", "8")


@pytest.mark.parametrize("argv", [
    ("ensemble", "--kind", "gv", "--trials", "0"),
    ("ensemble", "--kind", "gv", "--trials", "-3"),
    ("ensemble", "--kind", "ael", "--seed", "90", "--trials", "0"),
    ("simulate", *QTB13, "--trials", "-2"),
    ("simulate", *QTB13, "--trials", "0"),
    ("simulate", *QTB13, "--weight", "-1", "--trials", "2"),
    ("simulate", *QTB13, "--model", "erasure", "--weight", "-1", "--trials", "2"),
    ("simulate", *QTB13, "--model", "erasure", "--weight", "20", "--trials", "2"),
    ("simulate", *QTB13, "--weight", "13", "--allow-overload", "--trials", "2"),
    ("simulate", *QTB13, "--s", "2", "--family", "fqtb", "--weight", "7", "--allow-overload",
     "--trials", "2"),
    ("simulate", "--family", "ael", "--seed", "90", "--weight", "30", "--allow-overload",
     "--trials", "2"),
], ids=["gv-trials-0", "gv-trials-negative", "ael-ensemble-trials-0", "trials-negative",
        "trials-0", "weight-negative", "erasure-weight-negative", "erasure-weight-past-n",
        "qtb-weight-past-n", "fqtb-weight-past-blocks", "ael-weight-past-blocks"])
def test_out_of_range_trials_or_weight_exits_2_before_any_trial(capsys, monkeypatch, argv):
    from qlrc import cli, ensembles

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "stream_rng", no_trial)  # simulate's per-trial stream
    if "gv" in argv:  # a gv trial samples a random qLRC (an AEL build does too)
        monkeypatch.setattr(ensembles, "random_qlrc", no_trial)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", err
    assert "trials must be at least 1" in err or "--weight must lie in [0, " in err


def test_simulate_overload_reports_failures_exit_zero(capsys):
    code, out, _ = run(capsys, "simulate", "--family", "qtb", "--q", "13",
                       "--r", "3", "--ell", "8", "--model", "mixed",
                       "--weight", "4", "--trials", "5", "--allow-overload",
                       "--format", "csv")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert int(row[7]) == 5  # trials ran; successes may be anything


def test_bounds_table_rows(capsys):
    code, out, _ = run(capsys, "bounds-table", "--q", "13,127", "--r", "3",
                       "--ell", "8,80", "--s", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:4] == ["family", "q", "r", "ell"]
    assert any(line.startswith("qtb,127,3,80") for line in lines)
    assert any(line.startswith("fqtb,13,3,8,2") for line in lines)


def test_construct_roundtrip(tmp_path, capsys):
    path = tmp_path / "code.json"
    code, _, _ = run(capsys, "construct", "--family", "qtb", "--q", "13",
                     "--r", "3", "--ell", "8", "--out", str(path))
    assert code == 0
    desc = json.loads(path.read_text())
    assert desc["family"] == "qtb" and desc["k"] == 2
    code, out, _ = run(capsys, "params", "--descriptor", str(path))
    assert code == 0
    assert json.loads(out)["k"] == 2


@pytest.mark.parametrize("flags", [
    ("--family", "qtb", "--q", "13", "--r", "3", "--ell", "8"),
    ("--family", "fqtb", "--q", "13", "--r", "3", "--ell", "8", "--s", "2"),
    ("--family", "rs", "--q", "9", "--ell", "4"),
    ("--family", "tb", "--q", "13", "--r", "3", "--ell", "8"),
    ("--family", "frs", "--q", "13", "--ell", "4", "--s", "2"),
    ("--family", "random_qlrc", "--q", "5", "--n", "12", "--r", "3", "--ell", "2", "--seed", "3"),
    ("--family", "ael", "--seed", "90"),
])
def test_construct_load_roundtrip_every_family(tmp_path, capsys, flags):
    path = tmp_path / "code.json"
    code, _, err = run(capsys, "construct", *flags, "--out", str(path))
    assert code == 0, err
    code, out, err = run(capsys, "construct", "--descriptor", str(path))
    assert code == 0, err
    assert json.loads(out) == json.loads(path.read_text())


def test_ael_descriptor_simulates(tmp_path, capsys):
    path = tmp_path / "ael.json"
    assert run(capsys, "construct", "--family", "ael", "--seed", "90", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "simulate", "--descriptor", str(path), "--trials", "2")
    assert code == 0, err
    assert json.loads(out)["successes"] == 2


@pytest.mark.parametrize("model", ["local", "erasure", "x-only", "z-only"])
def test_ael_simulate_rejects_every_model_but_mixed(capsys, model):
    code, _, err = run(capsys, "simulate", "--family", "ael", "--seed", "90",
                       "--model", model, "--trials", "1")
    assert code == 2
    assert model in err


# Each generator of the decoded code is eliminated once, at construction, and
# that one RREF gives its parity checks, stabilizer row space and syndrome
# preimages. qTB codes are CSS(C, C); their second n-wide elimination is the
# piecewise-linear space.
@pytest.mark.parametrize("flags,decoder,inner_tables,n,eliminations", [
    (("--family", "ael", "--seed", "90"), "ael_quantum_decode", 2, 576, 2),
    (("--family", "qtb", "--q", "127", "--r", "3", "--ell", "80"), "quantum_decode", 0, 126, 2),
    (("--family", "fqtb", "--q", "127", "--r", "3", "--ell", "64", "--s", "2"),
     "quantum_decode", 0, 126, 2),
], ids=["ael", "qtb", "fqtb"])
def test_simulate_builds_decode_tables_before_the_timed_decodes(capsys, monkeypatch, flags,
                                                               decoder, inner_tables, n,
                                                               eliminations):
    from qlrc import classical, cli, ensembles, gf

    timed = []  # non-empty while a timed decode or its residual check runs
    built = []  # (table or "rref", matrix width, whether a timed call was running)

    def timing(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            timed.append(True)
            try:
                return real(*args, **kwargs)
            finally:
                timed.pop()

        monkeypatch.setattr(cli, name, call)

    real_table, real_rref = ensembles._inner_decoder_cache, gf.rref

    def table(ctx, parity):
        built.append(("_inner_decoder_cache", np.shape(parity)[1], bool(timed)))
        return real_table(ctx, parity)

    def rref(ctx, mat):
        built.append(("rref", np.shape(mat)[1], bool(timed)))
        return real_rref(ctx, mat)

    timing(decoder)
    timing("is_logical_identity")
    monkeypatch.setattr(ensembles, "_inner_decoder_cache", table)
    for module in (gf, classical, ensembles):  # every binding of gf.rref
        monkeypatch.setattr(module, "rref", rref)
    code, out, err = run(capsys, "simulate", *flags, "--trials", "2")
    assert code == 0, err
    assert json.loads(out)["successes"] == 2
    assert not any(during for _, _, during in built)
    assert [name for name, _, _ in built].count("_inner_decoder_cache") == inner_tables
    assert sum(name == "rref" and width >= n for name, width, _ in built) == eliminations


@pytest.mark.parametrize("model,draw,other", [("x-only", "bx", "bz"), ("z-only", "bz", "bx")])
def test_block_error_draws_each_nonzero_value_uniformly(model, draw, other):
    from qlrc.cli import _block_error
    from qlrc.gf import field_new

    ctx = field_new(13)
    rng = np.random.default_rng(13)
    counts = np.zeros(13, dtype=np.int64)
    for _ in range(1500):
        err = _block_error(ctx, 24, 4, 3, model, rng)
        hit = getattr(err, draw) != 0
        assert err.block_weight(4) == 3 and err.weight == 3  # one qudit per block
        assert not getattr(err, other).any()
        counts += np.bincount(getattr(err, draw)[hit], minlength=13)
    assert np.all(np.abs(counts[1:] * 12 / counts.sum() - 1) < 0.25)


def test_simulate_allow_overload_counts_a_wrong_residual_within_the_radius_as_failed(
        capsys, monkeypatch):
    from qlrc import qtbdec

    def leave_the_error(code, values, e=None):  # corrects nothing
        return SimpleNamespace(word=values)

    monkeypatch.setattr(qtbdec, "dec_c", leave_the_error)
    code, _, err = run(capsys, "simulate", "--family", "qtb", "--q", "31", "--r", "3",
                       "--ell", "21", "--weight", "1", "--allow-overload", "--trials", "3")
    assert code == 4, err  # within the radius --allow-overload forgives nothing
    assert "residual" in err


@pytest.mark.parametrize("overload", [(), ("--allow-overload",)], ids=["strict", "overload"])
def test_simulate_decoder_failure_within_the_radius_exits_4(capsys, monkeypatch, overload):
    from qlrc import qtbdec
    from qlrc.errors import DecodingFailed

    def fail(code, values, e=None):
        raise DecodingFailed("injected")

    monkeypatch.setattr(qtbdec, "dec_c", fail)
    code, _, err = run(capsys, "simulate", "--family", "qtb", "--q", "31", "--r", "3",
                       "--ell", "21", "--weight", "1", "--trials", "2", *overload)
    assert code == 4, err
    assert "injected" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--family", "ael", "--seed", "90", "--trials", "1"),
    ("ensemble", "--kind", "ael", "--seed", "90", "--trials", "1"),
], ids=["simulate", "ensemble"])
def test_ael_non_identity_residual_within_radius_exits_4(capsys, monkeypatch, argv):
    from qlrc import ensembles

    def leave_the_error(code, word, side="z"):  # corrects nothing
        return ensembles.AelDecodeResult(message=None, word=word, inner_failures=0)

    monkeypatch.setattr(ensembles, "ael_decode", leave_the_error)
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert "residual" in err


@pytest.mark.parametrize("flags,key,value", [
    (("--family", "qtb", "--q", "13", "--r", "3", "--ell", "8"), "omega", 6),
    (("--family", "rs", "--q", "9", "--ell", "4"), "modulus", [2, 1, 1]),
])
def test_tampered_descriptor_exits_2(tmp_path, capsys, flags, key, value):
    path = tmp_path / "code.json"
    assert run(capsys, "construct", *flags, "--out", str(path))[0] == 0
    desc = json.loads(path.read_text())
    assert desc[key] != value
    desc[key] = value
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "params", "--descriptor", str(path))
    assert code == 2
    assert key in err


def test_ensemble_gv(capsys):
    code, out, _ = run(capsys, "ensemble", "--kind", "gv", "--n", "9", "--r", "3",
                       "--ell", "1", "--q", "4", "--trials", "8", "--seed", "4")
    assert code == 0
    d = json.loads(out)
    assert d["trials"] == 8 and 0 <= d["frequency"] <= 1


def test_missing_family_exit_2(capsys):
    code, _, err = run(capsys, "params")
    assert code == 2
