"""Command-line surface.

Subcommands: params, construct, distance, simulate, bounds-table,
ensemble. Codes come either from inline flags (--family --q --r --ell
--s ...) or a descriptor file (--descriptor). All randomized commands are
deterministic per (descriptor, seed, trials): per-trial substreams are
PCG64 generators spawned as SeedSequence(seed, spawn_key=(trial,)).

Exit codes: 0 success, 2 validation error, 3 cap exceeded, 4 decode
contract violated (never expected within a decoder's radius).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import bounds, descriptor
from .css import (
    can_decode_erasures,
    css_distance_brute,
    is_logical_identity,
    random_pauli,
    recover_pauli,
    residual_after_correction,
)
from .classical import DEFAULT_CAP, min_weight
from .ensembles import (
    ael_quantum_decode,
    gv_estimate,
    random_block_pauli,
    stream_rng,
)
from .errors import CapExceeded, DecodeContractViolation, QlrcError, ValidationError
from .qtbdec import quantum_decode, quantum_decode_radius


def _descriptor_from_args(args) -> dict:
    if args.descriptor:
        return descriptor.load(args.descriptor)
    if not args.family:
        raise ValidationError("need --family or --descriptor")
    d = {"family": args.family}
    for key in ("q", "r", "ell", "s", "n", "seed", "delta"):
        v = getattr(args, key, None)
        if v is not None:
            d[key] = v
    return d


def _emit(args, payload, csv_rows=None, csv_header=None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(csv_header or list(payload))
        w.writerows(csv_rows if csv_rows is not None else [list(payload.values())])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# -- params -----------------------------------------------------------------------

def cmd_params(args) -> int:
    built = descriptor.build(_descriptor_from_args(args))
    fam, obj = built.family, built.obj
    out = dict(built.descriptor)
    if fam in ("qtb", "fqtb"):
        q = obj.q
        r = obj.r
        ell = obj.ell
        out.update(
            locality=r,
            d_lower=bounds.qtb_distance_lower(q, r, ell),
            d_lower_ceil=bounds.qtb_distance_lower_ceil(q, r, ell),
            d_upper=float(bounds.qtb_distance_upper(q, r, ell)),
            e=bounds.decode_radius_qtb(q, r, ell),
            e_effective=quantum_decode_radius(obj),
            singleton_partition_cap_d=bounds.partition_cap_distance(q - 1, obj.k, r),
        )
        if fam == "fqtb":
            out.update(
                eps=float(bounds.fqtb_eps(q, r, ell, obj.s)),
                uncertainty=bounds.uncertainty_holds(q, r),
                d_lower_folded=float(bounds.fqtb_distance_lower(q, r, ell, obj.s)),
                e_folded=bounds.decode_radius_fqtb(q, r, ell, obj.s),
            )
    elif fam in ("rs", "tb"):
        out["d_singleton"] = bounds.singleton_classical(out["n"], out["k"])
    elif fam == "random_qlrc":
        out["locality"] = obj.r
    _emit(args, out)
    return 0


def cmd_construct(args) -> int:
    built = descriptor.build(_descriptor_from_args(args))
    _emit(args, built.descriptor)
    return 0


# -- distance ----------------------------------------------------------------------

def cmd_distance(args) -> int:
    cap = DEFAULT_CAP if args.cap is None else args.cap
    if cap < 0:
        raise ValidationError(f"--cap must be >= 0, got {cap}")
    built = descriptor.build(_descriptor_from_args(args))
    fam, obj = built.family, built.obj
    if fam in ("qtb", "fqtb", "random_qlrc"):
        fold = obj.s if fam == "fqtb" else None
        d, witness, side = css_distance_brute(obj.css, cap=cap, fold_s=fold)
        out = {"family": fam, "distance_blocks" if fold else "distance": int(d), "side": side,
               "witness": witness.tolist()}
    elif fam in ("rs", "tb"):
        d, witness = min_weight(obj, cap=cap)
        out = {"family": fam, "distance": int(d), "witness": witness.tolist()}
    elif fam == "frs":
        d, witness = min_weight(obj.code, cap=cap, fold_s=obj.s)
        out = {"family": fam, "distance_blocks": int(d), "witness": witness.tolist()}
    else:
        raise ValidationError(f"distance not defined for family {fam!r}")
    _emit(args, out)
    return 0


# -- simulate -----------------------------------------------------------------------

def _weight(args, default: int, limit: int) -> int:
    """``--weight``, else ``default``, in [0, limit]: the qudits or blocks drawn from."""
    weight = default if args.weight is None else args.weight
    if not 0 <= weight <= limit:
        raise ValidationError(f"--weight must lie in [0, {limit}], got {weight}")
    return weight


def _global_decode(args, css, radius, limit, run):
    """The weight to simulate (``--weight``, else the radius), and whether
    ``run``, a global decode, leaves a logical identity. Within the radius
    ``run`` checks its own residual and any QlrcError propagates (exit 4);
    past it, with ``--allow-overload``, a failure counts as one."""
    weight = _weight(args, radius, limit)
    if weight > radius and not args.allow_overload:
        raise ValidationError(
            f"weight {weight} exceeds decode radius {radius}; pass --allow-overload")
    within = weight <= radius

    def decode(err):
        try:
            _, resid = run(err)
        except QlrcError:
            if within:
                raise
            return False
        return within or is_logical_identity(css, resid)
    return weight, decode


def _simulate_code(built, args):
    """Run the trials; ``sample`` draws from the trial's stream and only
    ``decode`` is timed."""
    fam, obj = built.family, built.obj
    model = args.model
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    if fam in ("qtb", "fqtb", "random_qlrc"):
        css = obj.css
        n = css.n
        if model == "local":
            weight = 1

            def sample(rng):
                return random_pauli(css.ctx, n, 1, "mixed", rng)

            def decode(err):
                corr = recover_pauli(css, css.recovery[int(err.support()[0])], err)
                return residual_after_correction(css.ctx, err, corr).weight == 0
        elif model == "erasure":
            weight = _weight(args, 1, n)

            def sample(rng):
                return rng.choice(n, size=weight, replace=False).tolist()

            def decode(pos):
                return can_decode_erasures(css, pos)
        elif fam == "random_qlrc":
            raise ValidationError("random qLRCs have no global decoder; models: local, erasure")
        else:
            weight, decode = _global_decode(args, css, quantum_decode_radius(obj),
                                            obj.block_count if fam == "fqtb" else n,
                                            lambda err: quantum_decode(obj, err))

            def sample(rng):
                if fam == "fqtb":
                    return _block_error(css.ctx, n, obj.s, weight, model, rng)
                return random_pauli(css.ctx, n, weight, model, rng)
        meta = {"family": fam, "q": css.ctx.q, "r": obj.r, "ell": obj.ell,
                "s": obj.s if fam == "fqtb" else 1, "e": weight}
    elif fam == "ael":
        if model != "mixed":
            raise ValidationError(f"AEL codes decode mixed block errors only, not model {model!r}")
        code = obj.code
        weight, decode = _global_decode(args, code.css, obj.radius_blocks, code.block_count,
                                        lambda err: ael_quantum_decode(obj, err))

        def sample(rng):
            return random_block_pauli(code.ctx, code.block_count, code.delta, weight, rng)
        meta = {"family": fam, "q": code.ctx.q, "r": code.locality,
                "ell": code.outer.cz.dim, "s": code.delta, "e": weight}
    else:
        raise ValidationError(f"simulate not defined for family {fam!r}")
    per_trial = []
    successes = 0
    t_total = 0.0
    for t in range(args.trials):
        trial = sample(stream_rng(args.seed, t))
        t0 = time.perf_counter()
        good = decode(trial)
        t_total += time.perf_counter() - t0
        successes += good
        per_trial.append((t, weight, int(good)))
    mean_ms = 1000.0 * t_total / args.trials
    return meta, per_trial, successes, mean_ms


def _block_error(ctx, n, s, weight_blocks, model, rng) -> "PauliError":
    """``random_pauli`` on the n/s blocks of s qudits, each block's error put
    on one uniformly drawn qudit of that block."""
    from .css import PauliError

    blocks = random_pauli(ctx, n // s, weight_blocks, model, rng)
    slots = np.arange(0, n, s) + rng.integers(s, size=n // s)
    bx = np.zeros(n, dtype=np.int64)
    bz = np.zeros(n, dtype=np.int64)
    bx[slots], bz[slots] = blocks.bx, blocks.bz
    return PauliError(bx, bz)


def cmd_simulate(args) -> int:
    built = descriptor.build(_descriptor_from_args(args))
    meta, per_trial, successes, mean_ms = _simulate_code(built, args)
    if args.per_trial:
        rows = [(args.seed, w, ok) for (_t, w, ok) in per_trial]
        _emit(args, {"rows": rows}, csv_rows=rows, csv_header=("seed", "weight", "success"))
    else:
        row = (meta["family"], meta["q"], meta["r"], meta["ell"], meta["s"],
               meta["e"], args.seed, args.trials, successes, _fmt(mean_ms))
        header = ("family", "q", "r", "ell", "s", "e", "seed", "trials",
                  "successes", "mean_ms")
        payload = dict(zip(header, row))
        _emit(args, payload, csv_rows=[row], csv_header=header)
    return 0


# -- bounds table ----------------------------------------------------------------------

def _parse_grid(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def cmd_bounds_table(args) -> int:
    header = ("family", "q", "r", "ell", "s", "k", "d_lower", "d_upper",
              "e_decode", "singleton_gap")
    rows = []
    from .qtb import qtb_dim

    for q in _parse_grid(args.q or ""):
        for r in _parse_grid(args.r or "3"):
            if (q - 1) % r != 0:
                continue
            for ell in _parse_grid(args.ell or str((q + 1) // 2)):
                if 2 * ell < q or ell > q - 1:
                    continue
                k = qtb_dim(q, r, ell)
                d_lo = bounds.qtb_distance_lower(q, r, ell)
                d_hi = float(bounds.qtb_distance_upper(q, r, ell))
                e = bounds.decode_radius_qtb(q, r, ell)
                gap = (bounds.partition_cap_distance(q - 1, k, r)
                       - bounds.qtb_distance_lower_ceil(q, r, ell)) if k > 0 else 0
                rows.append(("qtb", q, r, ell, 1, k, _fmt(d_lo), _fmt(d_hi), e, gap))
                for s in _parse_grid(args.s or ""):
                    if ((q - 1) // r) % s != 0:
                        continue
                    d_f = float(bounds.fqtb_distance_lower(q, r, ell, s))
                    e_f = bounds.decode_radius_fqtb(q, r, ell, s)
                    rows.append(("fqtb", q, r, ell, s, k, _fmt(d_f), _fmt(d_hi), e_f, gap))
    _emit(args, {"rows": rows}, csv_rows=rows, csv_header=header)
    return 0


# -- ensemble --------------------------------------------------------------------------

def cmd_ensemble(args) -> int:
    if args.kind == "gv":
        est = gv_estimate(args.n or 9, args.r or 3, args.ell or 1, args.q or 4,
                          delta=args.delta_frac, trials=args.trials, seed=args.seed)
        payload = {
            "kind": "gv", "n": args.n or 9, "r": args.r or 3, "ell": args.ell or 1,
            "q": args.q or 4, "delta": args.delta_frac, "trials": est.samples,
            "successes": est.successes, "frequency": est.frequency,
            "wilson_low": est.wilson_low, "wilson_high": est.wilson_high,
            "bound": est.bound, "epsilon": est.epsilon,
        }
        header = tuple(payload.keys())
        _emit(args, payload, csv_rows=[tuple(_fmt(v) for v in payload.values())],
              csv_header=header)
        return 0
    if args.kind == "ael":
        built = descriptor.build({"family": "ael", "seed": args.seed})
        sim_args = argparse.Namespace(**vars(args), model="mixed", weight=None, allow_overload=False)
        successes = _simulate_code(built, sim_args)[2]
        std, code = built.obj, built.obj.code
        payload = dict(kind="ael", n_qudits=code.n_qudits, k=code.k_qudits,
                       rate=str(code.rate), locality=code.locality,
                       lam=std.lam, alpha=std.alpha,
                       radius_blocks=std.radius_blocks, trials=args.trials,
                       successes=successes, seed=args.seed)
        header = tuple(payload.keys())
        _emit(args, payload, csv_rows=[tuple(_fmt(v) for v in payload.values())],
              csv_header=header)
        return 0
    raise ValidationError(f"unknown ensemble kind {args.kind!r}")


# -- entry point -------------------------------------------------------------------------

def _add_code_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--descriptor", help="descriptor JSON file")
    p.add_argument("--family", choices=descriptor.FAMILIES)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write output to this path instead of stdout")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="qlrc",
                                 description="quantum locally recoverable code workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived parameters and certified bounds")
    _add_code_flags(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("construct", help="build a code and emit its descriptor")
    _add_code_flags(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("distance", help="exact distance by Brouwer-Zimmermann search")
    _add_code_flags(p)
    p.add_argument("--cap", type=int, default=None,
                   help="cap on the words the search weighs (0 is a cap, not 'no cap'); "
                        "exceeding it exits 3")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo decode/recovery trials")
    _add_code_flags(p)
    p.add_argument("--model", default="mixed",
                   choices=("mixed", "x-only", "z-only", "erasure", "local"))
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--allow-overload", action="store_true",
                   help="permit weights beyond the proven radius; failures are reported")
    p.add_argument("--per-trial", action="store_true",
                   help="emit one (seed, weight, success) row per trial")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds-table", help="bound sweep as CSV")
    p.add_argument("--q", help="comma-separated field orders")
    p.add_argument("--r", help="comma-separated localities", default="3")
    p.add_argument("--ell")
    p.add_argument("--s")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds_table)

    p = sub.add_parser("ensemble", help="random-ensemble experiments")
    p.add_argument("--kind", choices=("gv", "ael"), default="gv")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--delta-frac", type=float, default=2 / 9,
                   help="relative distance threshold for the GV estimate")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ensemble)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        hint = f" (required: {exc.required})" if exc.required else ""
        print(f"cap exceeded: {exc}{hint}", file=sys.stderr)
        return 3
    except DecodeContractViolation as exc:
        print(f"decode contract violated: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except QlrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
