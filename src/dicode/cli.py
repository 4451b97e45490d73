"""Command-line front end.

Subcommands: construct, evaluate, bounds, geometry, channel check.
Every command writes its outputs plus a run manifest into --out; reruns with
the same manifest parameters produce byte-identical CSV/JSON.  All work runs
serially and only `evaluate --method mc` reads --seed.  Exit codes: 0
success, 2 validation failure, 3 size-guard refusal.  Exit 2 also covers an
option the command would ignore: --seed/--jobs on construct, --jobs on
evaluate, --trials/--seed with `--method exact`, --pair-budget with `--method
mc`, --mode with `--task dimension`, and --formula, --channel, --E-axis or
a single-value option with `--recipe fig2` (bounds and geometry accept
--seed and --jobs, for nothing).  So do a non-numeric or non-finite axis
value or a 4th axis field other than `log`, an unreadable or non-code
`--code` file, a `bounds` grid lacking a key the formula reads, a channel
formula without --channel and fig2 with n < 2.
Diagnostics go to stderr as single `error code=... msg=...` lines.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import FORMULAS, curves_to_csv, rows_to_csv, sweep
from .channel import channel_to_spec, load_channel
from .codebook import code_from_json, code_to_json, construct
from .errors import SizeGuardError, ValidationError
from .evaluator import DEFAULT_PAIR_BUDGET, exact_error_report, monte_carlo_errors
from .geometry import cloud_from_channel, estimate_dimension, max_packing, min_covering
from .svgplot import line_chart

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIZE_GUARD = 3
#: Monte Carlo trials of `evaluate --method mc` without --trials
DEFAULT_TRIALS = 10000


def _seed_from_env(value):
    if value is not None:
        return int(value)
    env = os.environ.get("DIRL_SEED")
    return int(env) if env else 0


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _manifest(out_dir: Path, command: str, params: dict, seed: int,
              channel_hash: str | None):
    payload = {
        "command": command,
        "channel_sha256": channel_hash,
        "parameters": params,
        "seed": seed,
        "tool_version": __version__,
        "timestamp_unix": int(time.time()),
    }
    _write(out_dir / "manifest.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _refuse_ignored(why: str, given: dict):
    """Refuse the options in `given` (flag -> value) that were passed."""
    ignored = [flag for flag, value in given.items() if value is not None]
    if ignored:
        raise ValidationError(f"{why}; drop {' '.join(ignored)}")


def _parse_axis(text: str) -> list[float]:
    """Axis syntax: 'v1,v2,...' or 'lo:hi:count[:log]', every value finite."""
    parts = text.split(":")
    if len(parts) not in (1, 3, 4) or parts[3:] not in ([], ["log"]):
        raise ValidationError(f"bad axis spec {text!r}")
    try:
        if len(parts) == 1:
            values = [float(v) for v in text.split(",") if v]
        else:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"bad axis spec {text!r}") from None
    if len(parts) > 1:
        if count < 1:
            raise ValidationError("axis needs at least one point")
        if count == 1:
            values = [lo]
        elif len(parts) == 4:
            if lo <= 0 or hi <= 0:
                raise ValidationError("log axis needs positive endpoints")
            ratio = (hi / lo) ** (1.0 / (count - 1))
            values = [lo * ratio**i for i in range(count)]
        else:
            step = (hi - lo) / (count - 1)
            values = [lo + step * i for i in range(count)]
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"axis {text!r} has a non-finite value")
    return values


def cmd_channel_check(args) -> int:
    W = load_channel(args.channel)
    summary = {
        "inputs": W.n_inputs,
        "outputs": W.output_size,
        "row_sum_residual": W.renorm_residual,
        "labels": list(W.input_labels),
        "family": W.family,
    }
    print(json.dumps(summary, sort_keys=True, indent=1))
    if args.out:
        out = Path(args.out)
        _write(out / "channel_check.json", json.dumps(summary, sort_keys=True, indent=1) + "\n")
        _write(out / "channel_normalized.json",
               json.dumps(channel_to_spec(W), sort_keys=True, indent=1) + "\n")
        _manifest(out, "channel check", {"channel": str(args.channel)},
                  0, _hash_file(args.channel))
    return EXIT_OK


def cmd_construct(args) -> int:
    _refuse_ignored("construct is deterministic and serial",
                    {"--seed": args.seed, "--jobs": args.jobs})
    W = load_channel(args.channel)
    code = construct(W, args.n, args.E, args.t, code_mode=args.code_mode)
    out = Path(args.out)
    _write(out / "code.json", code_to_json(code) + "\n")
    summary = {
        "N": code.size,
        "rate": code.rate,
        "rate_floor": code.rate_floor,
        "rate_meets_floor": code.rate >= code.rate_floor,
        "letters": len(code.letter_alphabet),
        "min_hamming": code.min_hamming,
        "delta": code.delta,
        "trivial_regime": code.params.remark_trivial,
        "guarantee_valid": code.params.guarantee_valid,
    }
    _write(out / "construct_summary.json", json.dumps(summary, sort_keys=True, indent=1) + "\n")
    _manifest(out, "construct",
              {"channel": str(args.channel), "n": args.n, "E": args.E,
               "t": args.t, "code_mode": args.code_mode},
              0, _hash_file(args.channel))
    if code.params.remark_trivial:
        print("warning: exponent target is in the trivial regime "
              "(packing radius >= sqrt(2)); rate floor is vacuous", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    unused = ({"--trials": args.trials, "--seed": args.seed} if args.method == "exact"
              else {"--pair-budget": args.pair_budget})
    _refuse_ignored(f"evaluate --method {args.method} would ignore these",
                    {"--jobs": args.jobs, **unused})
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    pair_budget = DEFAULT_PAIR_BUDGET if args.pair_budget is None else args.pair_budget
    W = load_channel(args.channel)
    try:
        code = code_from_json(Path(args.code).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read code file {args.code}: {exc!r}") from None
    seed = _seed_from_env(args.seed)
    if args.method == "exact":
        report = exact_error_report(code, W, pair_budget=pair_budget)
    else:
        report = monte_carlo_errors(code, W, trials=trials, seed=seed)
    out = Path(args.out)
    _write(out / "error_report.json", report.to_json() + "\n")
    _manifest(out, "evaluate",
              {"channel": str(args.channel), "code": str(args.code),
               "method": args.method, "trials": trials,
               "pair_budget": pair_budget},
              seed, _hash_file(args.channel))
    print(report.to_json())
    return EXIT_OK


#: single-value `bounds` options: (flag, grid key, type, help).  Each sets one
#: grid key, also its name in the manifest.
BOUNDS_VALUES = (
    ("--t", "t", float, "Hamming distance fraction"),
    ("--eta", "eta", float, "dimension slack"),
    ("--alpha", "alpha", float, "Renyi order for thm5/thm6"),
    ("--d", "d", float, "dimension value for cor1/cor2"),
    ("--a", "a", float, "ladder base for ex1"),
    ("--cost-cap", "A", float, "cost cap A for power_capacity"),
    ("--omega", "omega", float, "smallest channel probability for thm5"),
    ("--lambda-bound", "lambda", float, "bounded error for thm5/thm6"),
    ("--delta-part", "delta_part", float, "partition slack for thm5/thm6"),
    ("--delta-trunc", "delta_trunc", float, "truncation level for thm6"),
    ("--y-size", "y_size", int, "output alphabet size without --channel"),
)


def _bounds_grid(args) -> list[dict]:
    axes = {key: [getattr(args, key)] for _, key, _, _ in BOUNDS_VALUES
            if getattr(args, key) is not None}
    if args.n_axis:
        axes["n"] = [int(round(v)) for v in _parse_axis(args.n_axis)]
    if args.E_axis:
        axes["E"] = _parse_axis(args.E_axis)
    names = sorted(axes)
    return [dict(zip(names, values))
            for values in itertools.product(*(axes[name] for name in names))]


def cmd_bounds(args) -> int:
    if args.recipe == "fig2":
        _refuse_ignored(
            "--recipe fig2 sweeps trend_lower and trend_upper over --n-axis alone",
            {"--formula": args.formula, "--channel": args.channel, "--E-axis": args.E_axis,
             **{flag: getattr(args, key) for flag, key, _, _ in BOUNDS_VALUES}})
    W = load_channel(args.channel) if args.channel else None
    if args.recipe == "fig2":
        ns = [int(round(v)) for v in _parse_axis(args.n_axis or "1e3:1e9:7:log")]
        grid, formulas = [{"n": n} for n in ns], ["trend_lower", "trend_upper"]
    else:
        grid, formulas = _bounds_grid(args), args.formula or ["thm1_lower"]
    curves = [sweep(f, grid, W) for f in formulas]
    csv_text = curves_to_csv(curves)
    out = Path(args.out)
    _write(out / "bounds.csv", csv_text)
    chan_hash = _hash_file(args.channel) if args.channel else None
    _manifest(out, "bounds",
              {"formula": formulas, "recipe": args.recipe,
               "channel": str(args.channel) if args.channel else None,
               "n_axis": args.n_axis, "E_axis": args.E_axis,
               **{key: getattr(args, key) for _, key, _, _ in BOUNDS_VALUES}},
              0, chan_hash)
    if args.svg:
        series = []
        for curve in curves:
            rows = curve.rows()
            if args.recipe == "fig2" or (args.n_axis and not args.E_axis):
                xs = [float(r["n"]) for r in rows]
                ys = [r["normalized_value"] if r["normalized_value"] != "" else math.nan
                      for r in rows]
                labels = ("block length n", "rate / log2 n")
            else:
                xs = [float(r["E"]) for r in rows]
                ys = [r["value_bits"] for r in rows]
                labels = ("exponent target E", "rate bound (bits)")
            series.append((curve.formula_id, xs, ys))
        _write(out / "bounds.svg",
               line_chart(series, x_label=labels[0], y_label=labels[1]))
    print(csv_text, end="")
    return EXIT_OK


def cmd_geometry(args) -> int:
    if args.task == "dimension":
        _refuse_ignored("geometry --task dimension would ignore it", {"--mode": args.mode})
    mode = args.mode or "greedy"
    W = load_channel(args.channel)
    cloud = cloud_from_channel(W, args.embedding)
    radii = _parse_axis(args.radii)
    if args.task == "dimension":
        est = estimate_dimension(cloud, radii)
        csv_text = rows_to_csv(
            ("radius", "log2_count", "slope", "slope_lower", "slope_upper",
             "fit_residual", "exact"),
            [(r, lc, est.slope, est.slope_lower, est.slope_upper, est.fit_residual,
              est.exact_counts) for r, lc in zip(est.radii_grid, est.log_counts)])
    else:
        fn = max_packing if args.task == "packing" else min_covering
        results = [fn(cloud, r, mode=mode) for r in radii]
        csv_text = rows_to_csv(
            ("radius", "count", "exact", "centers"),
            [(r, res.count, res.exact, " ".join(map(str, res.center_indices)))
             for r, res in zip(radii, results)])
    out = Path(args.out)
    _write(out / "geometry.csv", csv_text)
    _manifest(out, "geometry",
              {"channel": str(args.channel), "task": args.task, "mode": mode,
               "embedding": args.embedding, "radii": args.radii},
              0, _hash_file(args.channel))
    if (args.task in ("covering", "packing") and W.family
            and W.family.get("family") == "bernoulli"):
        scale = float(W.family["a"]) ** -float(W.family["k_max"])
        for r in radii:
            if r < scale:
                print(f"warning: radius {r:g} is below the truncation scale "
                      f"{scale:g}; counts reflect the truncated ladder only",
                      file=sys.stderr)
                break
    print(csv_text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dicode",
                                     description="identification codes over finite "
                                                 "channels: construction, error "
                                                 "evaluation, rate bounds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, channel_required=True):
        p.add_argument("--channel", required=channel_required,
                       help="channel spec file (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed of `evaluate --method mc` (fallback: "
                            "DIRL_SEED, then 0); bounds and geometry accept "
                            "it and change nothing; refused elsewhere")
        p.add_argument("--jobs", type=int, default=None,
                       help="work runs serially: bounds and geometry accept "
                            "it and change nothing; refused elsewhere")

    p = sub.add_parser("construct", help="build a code for a channel")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--E", type=float, required=True, help="error exponent target")
    p.add_argument("--t", type=float, required=True, help="Hamming distance fraction")
    p.add_argument("--code-mode", choices=("greedy", "linear"), default="greedy")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("evaluate", help="measure a code's error probabilities")
    common(p)
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, help=f"mc only; default {DEFAULT_TRIALS}")
    p.add_argument("--pair-budget", type=int,
                   help=f"exact only; default {DEFAULT_PAIR_BUDGET}")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("bounds", help="tabulate rate bounds over a grid")
    common(p, channel_required=False)
    p.add_argument("--formula", nargs="+",
                   help=f"formula ids ({' '.join(FORMULAS)}); default thm1_lower")
    p.add_argument("--recipe", choices=("fig2",), default=None,
                   help="predefined capacity-trend sweep (d=1)")
    p.add_argument("--n-axis", help="blocklength axis, e.g. 1e3:1e9:7:log")
    p.add_argument("--E-axis", help="exponent axis, e.g. 1e-6:1e-3:20:log")
    for flag, key, kind, text in BOUNDS_VALUES:
        p.add_argument(flag, dest=key, type=kind, help=text)
    p.add_argument("--svg", action="store_true", help="also render bounds.svg")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("geometry", help="packing/covering/dimension tables")
    common(p)
    p.add_argument("--task", choices=("packing", "covering", "dimension"),
                   required=True)
    p.add_argument("--mode", choices=("greedy", "exact"),
                   help="packing/covering only; default greedy")
    p.add_argument("--embedding", choices=("sqrt", "raw"), default="sqrt")
    p.add_argument("--radii", required=True, help="radius axis")
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("channel", help="channel utilities")
    chan_sub = p.add_subparsers(dest="channel_command", required=True)
    pc = chan_sub.add_parser("check", help="validate a channel spec file")
    pc.add_argument("--channel", required=True)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_channel_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error code=VALIDATION msg={exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeGuardError as exc:
        print(f"error code=SIZE_GUARD msg={exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD


if __name__ == "__main__":
    sys.exit(main())
