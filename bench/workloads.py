"""The three benchmark workloads: inputs from a seed, timed steps, checks.

Each workload is three functions of the imported dicode modules `m`:

  setup(m, seed, work)      -> inputs       channel loading (timed apart as
                                            inputs["channel_load_s"]), input
                                            generation
  steps(m, inputs)          -> [(name, fn)] the timed call sequence; fn(out)
                                            sees the outputs of earlier steps
  checks(m, inputs, out)    -> [(name, fn)] output checks run after timing

Steps reach dicode through module attributes at call time, so the tracer's
wrappers see every call.  `observe(inputs, out)` returns values the traced
run reports next to the span metrics.

Why these workloads:
  design    codebook-heavy: two q^n greedy scans of equal size (4^10 and
            2^20 words) that keep 256 versus 8 words, so per-scan and
            per-pick costs show apart; plus the only Monte Carlo evaluation.
  certify   evaluator-heavy: many short exact pair DPs on a frozen code, a few
            long ones on a noisy channel, and a screened report whose
            analytic ceilings decide its interval width.
  tabulate  geometry/bounds/CLI-heavy: an 80-point packing/covering sweep of
            one 1,002-point cloud through the CLI, a dimension table and a
            closed-form recipe, with CSV and SVG output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

#: certified values of the frozen BERN6 n=10 code (exhaustive exact report)
BERN6_LAMBDA1 = 1.0
BERN6_LAMBDA2 = 0.35589599609375
#: criterion 3's bound on an exhaustive certified width
WIDTH_LIMIT = 1e-6
#: family-wise miss probability allowed to a Monte Carlo agreement check
MC_ALPHA = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    steps: Callable
    checks: Callable
    observe: Callable = lambda inputs, out: {}


# ---------------------------------------------------------------------------
# shared checks

def _mc_successes(interval, trials: int, wilson) -> int:
    """Invert a Wilson interval back to its success count (it is monotone)."""
    interval = tuple(interval)
    lo, hi = 0, trials
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson(mid, trials) < interval:
            lo = mid + 1
        else:
            hi = mid
    if wilson(lo, trials) != interval:
        raise ValueError(f"{interval} is not a Wilson interval for {trials} trials")
    return lo


def _mc_agrees(mc_interval, certified, trials: int, comparisons: int, wilson) -> bool:
    """Does the MC estimate of a worst-case error match a certified [lo, hi]?

    The MC value is the maximum over `comparisons` per-pair estimates.  If
    every per-pair estimate is within eps of its true value, the maximum is
    within eps of the true maximum, so eps is Hoeffding's two-sided bound
    Bonferroni-corrected over all comparisons at family-wise level MC_ALPHA.
    """
    phat = _mc_successes(mc_interval, trials, wilson) / trials
    eps = math.sqrt(math.log(2 * comparisons / MC_ALPHA) / (2 * trials))
    lo, hi = certified
    return max(lo - phat, phat - hi, 0.0) <= eps


def _encloses(interval, value) -> bool:
    lo, hi = interval
    return lo <= value <= hi


def _min_distance(codewords) -> int:
    words = np.array(codewords)
    return min(int((words[i] != words[i + 1:]).sum(axis=1).min())
               for i in range(len(words) - 1))


def _code_checks(m, code, frozen_text: str, label: str):
    def distance():
        d_min = _min_distance(code.codewords)
        return d_min > code.params.t * code.params.n and code.min_hamming == d_min

    return [
        (f"{label}.rate_meets_floor", lambda: code.rate >= code.rate_floor),
        (f"{label}.min_hamming", distance),
        (f"{label}.frozen", lambda: m.codebook.code_to_json(code) + "\n" == frozen_text),
    ]


def _cli(m, argv) -> int:
    """Run one CLI command in-process; a non-zero exit code is a failure."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = m.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"dicode {argv[0]} exited with code {rc}")
    return rc


# ---------------------------------------------------------------------------
# design: construction (q^n scan, greedy picks, binning) and Monte Carlo

def design_setup(m, seed: int, work: Path):
    t0 = time.perf_counter()
    W = {"bern6": m.channel.bernoulli_family(2.0, 6), "id2": m.channel.identity_channel(2)}
    return {
        "W": W,
        "channel_load_s": time.perf_counter() - t0,
        "frozen_bern6": (DATA / "bern6_n10_code.json").read_text(),
        "frozen_id2": (DATA / "identity_n20_code.json").read_text(),
        "mc_seed": seed,
        "mc_trials": 10**4,
    }


def design_steps(m, inputs):
    W = inputs["W"]
    return [
        ("construct_bern6", lambda out: m.codebook.construct(
            W["bern6"], n=10, E=4.5e-7, t=0.5)),
        ("construct_id2", lambda out: m.codebook.construct(
            W["id2"], n=20, E=1e-5, t=0.5)),
        ("monte_carlo", lambda out: m.evaluator.monte_carlo_errors(
            out["construct_bern6"], W["bern6"], trials=inputs["mc_trials"],
            seed=inputs["mc_seed"])),
    ]


def design_checks(m, inputs, out):
    checks = (_code_checks(m, out["construct_bern6"], inputs["frozen_bern6"], "bern6")
              + _code_checks(m, out["construct_id2"], inputs["frozen_id2"], "id2"))
    mc, trials = out["monte_carlo"], inputs["mc_trials"]
    wilson = m.evaluator.wilson_interval
    # the certified values belong to the frozen code, which the check above
    # compares with the constructed one
    n_words = len(json.loads(inputs["frozen_bern6"])["codewords"])
    return checks + [
        ("monte_carlo.lambda1", lambda: _mc_agrees(
            mc.lambda1, (BERN6_LAMBDA1, BERN6_LAMBDA1), trials, n_words, wilson)),
        ("monte_carlo.lambda2", lambda: _mc_agrees(
            mc.lambda2, (BERN6_LAMBDA2, BERN6_LAMBDA2), trials,
            n_words * (n_words - 1), wilson)),
    ]


# ---------------------------------------------------------------------------
# certify: exact reports on a frozen code and on a seeded noisy channel

NOISY_LETTERS = 4
NOISY_OUTPUTS = 3
NOISY_WORDS = 3
#: owner-word layout: letter blocks of lengths 5, 5, 4, 4 (n = 18).  Seeds
#: relabel the letters, so every owner word has the same composition and
#: block order and the DP state count does not depend on the seed.
NOISY_PATTERN = (0,) * 5 + (1,) * 5 + (2,) * 4 + (3,) * 4
NOISY_DELTA = 0.5
SCREEN_BUDGET = 500
BRUTE_FORCE_PAIRS = 12
BRUTE_FORCE_OWN = 4


def certify_setup(m, seed: int, work: Path):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.05, 1.0, (NOISY_LETTERS, NOISY_OUTPUTS))
    matrix /= matrix.sum(axis=1, keepdims=True)
    perms = list(itertools.permutations(range(NOISY_LETTERS)))
    picks = rng.choice(len(perms), NOISY_WORDS, replace=False)
    words = [tuple(perms[p][x] for x in NOISY_PATTERN) for p in picks]
    code = m.codebook.code_from_json((DATA / "bern6_n10_code.json").read_text())
    pairs = [tuple(int(v) for v in rng.choice(code.size, 2, replace=False))
             for _ in range(BRUTE_FORCE_PAIRS)]
    pairs += [(j, j) for j in rng.choice(code.size, BRUTE_FORCE_OWN, replace=False)]

    t0 = time.perf_counter()
    W = {"bern6": m.channel.bernoulli_family(2.0, 6),
         "noisy": m.channel.make_channel([str(i) for i in range(NOISY_LETTERS)], matrix)}
    load_s = time.perf_counter() - t0
    return {
        "W": W,
        "channel_load_s": load_s,
        "bern6_code": code,
        "noisy_code": m.codebook.assemble_code(W["noisy"], words, delta=NOISY_DELTA),
        "sample_pairs": pairs,
        "seed": seed,
    }


def certify_steps(m, inputs):
    W, code, noisy = inputs["W"], inputs["bern6_code"], inputs["noisy_code"]
    return [
        ("exact_bern6", lambda out: m.evaluator.exact_error_report(code, W["bern6"])),
        ("exact_noisy", lambda out: m.evaluator.exact_error_report(noisy, W["noisy"])),
        ("screened_bern6", lambda out: m.evaluator.exact_error_report(
            code, W["bern6"], pair_budget=SCREEN_BUDGET)),
    ]


def _exhaustive_intervals(out):
    return [out["exact_bern6"].lambda1, out["exact_bern6"].lambda2,
            out["exact_noisy"].lambda1, out["exact_noisy"].lambda2,
            out["screened_bern6"].lambda1]


def certify_checks(m, inputs, out):
    W, code = inputs["W"], inputs["bern6_code"]
    ev = m.evaluator
    exact, noisy, screened = out["exact_bern6"], out["exact_noisy"], out["screened_bern6"]

    def ordered():
        reports = (exact, noisy, screened)
        return all(lo <= hi for r in reports for lo, hi in (r.lambda1, r.lambda2))

    def modes():
        return (exact.pair_mode == "exhaustive" and noisy.pair_mode == "exhaustive"
                and screened.pair_mode == "screened")

    def brute_force():
        for j, k in inputs["sample_pairs"]:
            src, own = code.codewords[j], code.codewords[k]
            truth = ev.brute_force_typical_prob(W["bern6"], src, own, code.delta)
            if not _encloses(ev.typical_set_prob(W["bern6"], src, own, code.delta), truth):
                return False
            worst = exact.lambda1 if j == k else exact.lambda2
            if (1.0 - truth if j == k else truth) > worst[1]:
                return False
        return True

    def noisy_mc():
        ncode, trials = inputs["noisy_code"], 2 * 10**4
        mc = ev.monte_carlo_errors(ncode, W["noisy"], trials=trials, seed=inputs["seed"])
        n = ncode.size
        return (_mc_agrees(mc.lambda1, noisy.lambda1, trials, n, ev.wilson_interval)
                and _mc_agrees(mc.lambda2, noisy.lambda2, trials, n * (n - 1),
                               ev.wilson_interval))

    return [
        ("intervals_ordered", ordered),
        ("pair_modes", modes),
        ("width_exact", lambda: max(hi - lo for lo, hi in _exhaustive_intervals(out))
         <= WIDTH_LIMIT),
        ("bern6_recorded", lambda: _encloses(exact.lambda1, BERN6_LAMBDA1)
         and _encloses(exact.lambda2, BERN6_LAMBDA2)),
        ("screened_recorded", lambda: _encloses(screened.lambda1, BERN6_LAMBDA1)
         and _encloses(screened.lambda2, BERN6_LAMBDA2)),
        ("brute_force_enclosed", brute_force),
        ("noisy_monte_carlo", noisy_mc),
    ]


def certify_observe(inputs, out):
    if any(out[k] is None for k in ("exact_bern6", "exact_noisy", "screened_bern6")):
        return {}
    lo, hi = out["screened_bern6"].lambda2
    return {"evaluator.width_exact": max(h - l for l, h in _exhaustive_intervals(out)),
            "evaluator.width_screened": hi - lo}


# ---------------------------------------------------------------------------
# tabulate: bound sweeps, a dimension table and a recipe through the CLI

LADDER_SPEC = {"family": "bernoulli", "a": 2.0, "k_max": 1000}
#: (step name, output sub-directory, reads the ladder spec, CLI arguments)
TABULATE_COMMANDS = (
    ("bounds_thm", "thm", True,
     ["bounds", "--formula", "thm1_lower", "thm2_upper", "--E-axis", "1e-9:1e-3:40:log",
      "--n-axis", "1e7:1e7:1", "--t", "0.5", "--jobs", "2", "--svg"]),
    ("geometry_dimension", "dim", True,
     ["geometry", "--task", "dimension", "--embedding", "raw",
      "--radii", "0.5:0.00048828125:11:log"]),
    ("bounds_fig2", "fig2", False, ["bounds", "--recipe", "fig2", "--svg"]),
)
#: produced file -> recorded reference under data/tabulate
TABULATE_REFERENCES = {
    "thm/bounds.csv": "bounds_thm.csv",
    "thm/bounds.svg": "bounds_thm.svg",
    "dim/geometry.csv": "dimension.csv",
    "fig2/bounds.csv": "fig2.csv",
    "fig2/bounds.svg": "fig2.svg",
}


def tabulate_setup(m, seed: int, work: Path):
    spec = work / "ladder.json"
    spec.write_text(json.dumps(LADDER_SPEC) + "\n")
    refs = {out: (DATA / "tabulate" / ref).read_bytes()
            for out, ref in TABULATE_REFERENCES.items()}
    t0 = time.perf_counter()
    W = {"ladder": m.channel.load_channel(spec),
         "ladder12": m.channel.bernoulli_family(2.0, 12)}
    return {
        "W": W,
        "channel_load_s": time.perf_counter() - t0,
        "spec": spec,
        "out": work / "out",
        "refs": refs,
        "seed": seed,
    }


def tabulate_steps(m, inputs):
    steps = []
    for name, sub, uses_channel, args in TABULATE_COMMANDS:
        argv = args + ["--out", str(inputs["out"] / sub), "--seed", str(inputs["seed"])]
        if uses_channel:
            argv += ["--channel", str(inputs["spec"])]
        steps.append((name, lambda out, argv=argv: _cli(m, argv)))
    return steps


def _thm_ordered(path: Path) -> bool:
    rows = list(csv.DictReader(path.read_text().splitlines()))
    lower = {r["E"]: float(r["value_bits"]) for r in rows if r["formula_id"] == "thm1_lower"}
    upper = {r["E"]: float(r["value_bits"]) for r in rows if r["formula_id"] == "thm2_upper"}
    return len(lower) == 40 and lower.keys() == upper.keys() and all(
        lower[e] <= upper[e] for e in lower)


def tabulate_checks(m, inputs, out):
    root = inputs["out"]
    checks = [(f"identical:{name}", lambda name=name, ref=ref: (root / name).read_bytes() == ref)
              for name, ref in inputs["refs"].items()]
    ladder12 = inputs["W"]["ladder12"]

    def anchor():
        cloud = m.geometry.PointCloud(ladder12.matrix.copy(), "total-variation")
        return m.geometry.min_covering(cloud, 1 / 16, mode="exact").count == 4

    checks += [("thm1_below_thm2", lambda: _thm_ordered(root / "thm" / "bounds.csv")),
               ("criterion4_anchor", anchor)]
    return checks


def tabulate_observe(inputs, out):
    files = [p for p in inputs["out"].rglob("*") if p.is_file()]
    return {"cli.bytes_written": sum(p.stat().st_size for p in files)}


WORKLOADS = {
    w.name: w for w in (
        Workload("design", design_setup, design_steps, design_checks),
        Workload("certify", certify_setup, certify_steps, certify_checks, certify_observe),
        Workload("tabulate", tabulate_setup, tabulate_steps, tabulate_checks,
                 tabulate_observe),
    )
}
