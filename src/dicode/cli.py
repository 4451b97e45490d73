"""Command-line front end.

Subcommands: construct, evaluate, bounds, geometry, channel check.
Every command writes its outputs plus a run manifest into --out; reruns with
the same manifest parameters produce byte-identical CSV/JSON.  All work runs
serially.

A command accepts exactly the options it reads; every refusal is one
`error code=... msg=...` line on stderr.  Exit codes: 0 success, 2
validation failure (every parser error included), 3 size-guard refusal (a
range axis or a `bounds` grid of more than GRID_LIMIT points, refused before
it is built).  Four refusals depend on another option's value:
--trials/--seed with `evaluate --method exact` and --pair-budget with
`--method mc`; --formula, --channel, --E-axis and the single-value options
with `bounds --recipe fig2`; a `bounds` value, axis or channel that no
--formula reads (`bounds.FORMULAS` declares the grid keys each one reads);
an `evaluate` code file whose y_size, letter_alphabet or entropies are not
--channel's (`codebook.check_code_channel`).  A code file stores its words,
letter_alphabet, delta, entropies, rate_floor and E_target, t, y_size and
n; `code_from_json` refuses one whose derived values differ.
geometry counts packings and coverings exactly up to
geometry.EXACT_SIZE_LIMIT points and greedily above, as the bounds do.
bounds accepts --seed and --jobs, and geometry --seed, and they change
nothing, because the benchmark's tabulate workload passes them there.

manifest.json records the parsed options with defaults resolved, except
NOT_PARAMETERS, plus the channel file's SHA-256 (not its path, so a run
records the same manifest in any checkout) and the seed (null for exact
runs, 0 where none is read).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .bounds import FORMULAS, curves_to_csv, rows_to_csv, sweep
from .channel import channel_to_spec, load_channel
from .codebook import check_code_channel, code_from_json, code_to_json, construct
from .errors import SizeGuardError, ValidationError
from .evaluator import DEFAULT_PAIR_BUDGET, exact_error_report, monte_carlo_errors
from .geometry import estimate_dimension, max_packing, min_covering
from .svgplot import line_chart

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIZE_GUARD = 3
#: Monte Carlo trials of `evaluate --method mc` without --trials
DEFAULT_TRIALS = 10000
#: refuse an axis, or a `bounds` grid, of more points than this
GRID_LIMIT = 10**5
#: block lengths `bounds --recipe fig2` sweeps without --n-axis
FIG2_N_AXIS = "1e3:1e9:7:log"
#: parsed options that are not run parameters: dispatch, the output
#: directory, the seed and the channel path (recorded on their own, the
#: channel by its SHA-256) and options no result depends on
NOT_PARAMETERS = {"fn", "command", "channel_command", "channel", "out", "seed", "jobs", "svg"}


class _Parser(argparse.ArgumentParser):
    """Parser errors become ValidationErrors, reported by `main`."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _manifest(args, seed=0):
    payload = {
        "command": " ".join(filter(None, (args.command,
                                          getattr(args, "channel_command", None)))),
        "channel_sha256": (hashlib.sha256(Path(args.channel).read_bytes()).hexdigest()
                           if args.channel else None),
        "parameters": {key: value for key, value in vars(args).items()
                       if key not in NOT_PARAMETERS},
        "seed": seed,
        "tool_version": __version__,
        "timestamp_unix": int(time.time()),
    }
    _write(Path(args.out) / "manifest.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")


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
            count = len(values)
        else:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"bad axis spec {text!r}") from None
    if count < 1:
        raise ValidationError("axis needs at least one point")
    if len(parts) > 1:
        if count > GRID_LIMIT:
            raise SizeGuardError(f"axis of {count} points exceeds guard {GRID_LIMIT}")
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
        _manifest(args)
    return EXIT_OK


def cmd_construct(args) -> int:
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
    _manifest(args)
    if code.params.remark_trivial:
        print("warning: exponent target is in the trivial regime "
              "(packing radius > 1/sqrt(2)); one letter, rate 0", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    unused = ({"--trials": args.trials, "--seed": args.seed} if args.method == "exact"
              else {"--pair-budget": args.pair_budget})
    _refuse_ignored(f"evaluate --method {args.method} would ignore these", unused)
    args.trials = DEFAULT_TRIALS if args.trials is None else args.trials
    args.pair_budget = DEFAULT_PAIR_BUDGET if args.pair_budget is None else args.pair_budget
    W = load_channel(args.channel)
    try:
        code = code_from_json(Path(args.code).read_text())
        check_code_channel(code, W)
    except ValidationError as exc:
        raise ValidationError(f"code file {args.code}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read code file {args.code}: {exc!r}") from None
    seed = (args.seed or 0) if args.method == "mc" else None
    if args.method == "exact":
        report = exact_error_report(code, W, pair_budget=args.pair_budget)
    else:
        report = monte_carlo_errors(code, W, trials=args.trials, seed=seed)
    out = Path(args.out)
    _write(out / "error_report.json", report.to_json() + "\n")
    _manifest(args, seed)
    print(report.to_json())
    return EXIT_OK


#: single-value `bounds` options: (flag, grid key, type, help).  Each sets one
#: grid key, also its name in the manifest.
BOUNDS_VALUES = (
    ("--t", "t", finite_float, "Hamming distance fraction"),
    ("--eta", "eta", finite_float, "dimension slack"),
    ("--alpha", "alpha", finite_float, "Renyi order for thm5/thm6"),
    ("--d", "d", finite_float, "dimension value for cor1/cor2"),
    ("--a", "a", finite_float, "ladder base for ex1"),
    ("--cost-cap", "A", finite_float, "cost cap A for power_capacity"),
    ("--omega", "omega", finite_float, "smallest channel probability for thm5"),
    ("--lambda-bound", "lambda", finite_float, "bounded error for thm5/thm6"),
    ("--delta-part", "delta_part", finite_float, "partition slack for thm5/thm6"),
    ("--delta-trunc", "delta_trunc", finite_float, "truncation level for thm6"),
    ("--y-size", "y_size", int, "output alphabet size without --channel"),
)


def _bounds_grid(args) -> list[dict]:
    axes = {key: [getattr(args, key)] for _, key, _, _ in BOUNDS_VALUES
            if getattr(args, key) is not None}
    if args.n_axis:
        axes["n"] = [int(round(v)) for v in _parse_axis(args.n_axis)]
    if args.E_axis:
        axes["E"] = _parse_axis(args.E_axis)
    if math.prod(map(len, axes.values())) > GRID_LIMIT:
        raise SizeGuardError(f"grid of more than {GRID_LIMIT} points refused")
    names = sorted(axes)
    return [dict(zip(names, values))
            for values in itertools.product(*(axes[name] for name in names))]


def cmd_bounds(args) -> int:
    # flag -> (the grid keys it sets, its value); a channel is W and sets |Y|
    options = {"--channel": ({"W", "y_size"}, args.channel),
               "--n-axis": ({"n"}, args.n_axis), "--E-axis": ({"E"}, args.E_axis),
               **{flag: ({key}, getattr(args, key)) for flag, key, _, _ in BOUNDS_VALUES}}
    if args.recipe == "fig2":
        _refuse_ignored(
            "--recipe fig2 sweeps trend_lower and trend_upper over --n-axis alone",
            {"--formula": args.formula,
             **{flag: value for flag, (_, value) in options.items() if flag != "--n-axis"}})
        args.formula, args.n_axis = ["trend_lower", "trend_upper"], args.n_axis or FIG2_N_AXIS
    args.formula = args.formula or ["thm1_lower"]
    reads = {key for f in args.formula for key in FORMULAS[f][1]}
    _refuse_ignored(f"no formula of --formula {' '.join(args.formula)} reads these",
                    {flag: value for flag, (keys, value) in options.items() if not keys & reads})
    W = load_channel(args.channel) if args.channel else None
    grid = _bounds_grid(args)
    # the chart's x axis is log10: n for n sweeps, E otherwise
    x_key = "n" if args.n_axis and not args.E_axis else "E"
    if args.svg and not all(g.get(x_key, 0) > 0 for g in grid):
        raise ValidationError(f"--svg plots {x_key} on a log axis: give every "
                              f"point a positive {x_key}")
    curves = [sweep(f, grid, W) for f in args.formula]
    csv_text = curves_to_csv(curves)
    out = Path(args.out)
    _write(out / "bounds.csv", csv_text)
    _manifest(args)
    if args.svg:
        y_key, x_label, y_label = {
            "n": ("normalized_value", "block length n", "rate / log2 n"),
            "E": ("value_bits", "exponent target E", "rate bound (bits)")}[x_key]
        series = []
        for curve in curves:
            rows = curve.rows()
            series.append((curve.formula_id, [float(r[x_key]) for r in rows],
                           [math.nan if r[y_key] == "" else r[y_key] for r in rows]))
        _write(out / "bounds.svg", line_chart(series, x_label=x_label, y_label=y_label))
    print(csv_text, end="")
    return EXIT_OK


def cmd_geometry(args) -> int:
    W = load_channel(args.channel)
    cloud = W.sqrt_cloud if args.embedding == "sqrt" else W.raw_cloud
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
        results = [fn(cloud, r, mode="auto") for r in radii]
        csv_text = rows_to_csv(
            ("radius", "count", "exact", "centers"),
            [(r, res.count, res.exact, " ".join(map(str, res.center_indices)))
             for r, res in zip(radii, results)])
    out = Path(args.out)
    _write(out / "geometry.csv", csv_text)
    _manifest(args)
    if W.family and W.family.get("family") == "bernoulli":
        # the truncated tail lies within the distance from the x=0 row (first)
        # to the x=a^-k_max row (last), in either embedding
        scale = float(cloud.distances[0, -1])
        for r in radii:
            if r < scale:
                print(f"warning: radius {r:g} is below the truncation scale "
                      f"{scale:g}; counts reflect the truncated ladder only",
                      file=sys.stderr)
                break
    print(csv_text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dicode",
                     description="identification codes over finite channels: "
                                 "construction, error evaluation, rate bounds")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, channel_required=True):
        p.add_argument("--channel", required=channel_required,
                       help="channel spec file (JSON)")
        p.add_argument("--out", required=True, help="output directory")

    def inert(p, *flags):
        for flag in flags:
            p.add_argument(flag, type=int, help="accepted; changes nothing")

    p = sub.add_parser("construct", help="build a code for a channel")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--E", type=finite_float, required=True, help="error exponent target")
    p.add_argument("--t", type=finite_float, required=True,
                   help="Hamming distance fraction")
    p.add_argument("--code-mode", choices=("greedy", "linear"), default="greedy")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("evaluate", help="measure a code's error probabilities")
    common(p)
    p.add_argument("--code", required=True, help="code JSON file")
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--trials", type=int, help=f"mc only; default {DEFAULT_TRIALS}")
    p.add_argument("--seed", type=int,
                   help="mc only: RNG seed; default 0")
    p.add_argument("--pair-budget", type=int,
                   help="exact only: with more ordered pairs, joint types ranked by "
                        "analytic ceiling get the DP until they cover this many "
                        f"pairs; default {DEFAULT_PAIR_BUDGET}")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("bounds", help="tabulate rate bounds over a grid")
    common(p, channel_required=False)
    inert(p, "--seed", "--jobs")
    p.add_argument("--formula", nargs="+", choices=FORMULAS, metavar="ID",
                   help=f"formula ids ({' '.join(FORMULAS)}); default thm1_lower")
    p.add_argument("--recipe", choices=("fig2",), default=None,
                   help="predefined capacity-trend sweep (d=1); default --n-axis "
                        f"{FIG2_N_AXIS}")
    p.add_argument("--n-axis", help="blocklength axis, e.g. 1e3:1e9:7:log")
    p.add_argument("--E-axis", help="exponent axis, e.g. 1e-6:1e-3:20:log")
    for flag, key, kind, text in BOUNDS_VALUES:
        p.add_argument(flag, dest=key, type=kind, help=text)
    p.add_argument("--svg", action="store_true", help="also render bounds.svg")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("geometry", help="packing/covering/dimension tables")
    common(p)
    inert(p, "--seed")
    p.add_argument("--task", choices=("packing", "covering", "dimension"),
                   required=True)
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error code=VALIDATION msg={exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeGuardError as exc:
        print(f"error code=SIZE_GUARD msg={exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD


if __name__ == "__main__":
    sys.exit(main())
