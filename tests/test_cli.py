import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dicode
from dicode.channel import bernoulli_family
from dicode import cli
from dicode.bounds import FORMULAS
from dicode.cli import BOUNDS_VALUES, main
from dicode.codebook import assemble_code, code_to_json, derive_params

BERN = {"family": "bernoulli", "a": 2.0, "k_max": 6}
#: the code construct builds on BERN at n=10, E=4.5e-7, t=0.5
BERN6_CODE = Path(__file__).resolve().parents[1] / "bench" / "data" / "bern6_n10_code.json"
IDENT = {"inputs": ["a", "b"], "matrix": [[1, 0], [0, 1]]}


@pytest.fixture
def bern_file(tmp_path):
    p = tmp_path / "bern.json"
    p.write_text(json.dumps(BERN))
    return p


def read_outputs(out_dir, skip=("manifest.json",)):
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
            if f.name not in skip}


def test_channel_check(bern_file, tmp_path, capsys):
    rc = main(["channel", "check", "--channel", str(bern_file),
               "--out", str(tmp_path / "chk")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["inputs"] == 8
    assert summary["outputs"] == 2


def test_channel_check_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"inputs": ["a"], "matrix": [[0.6, 0.5]]}))
    rc = main(["channel", "check", "--channel", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error code=VALIDATION" in capsys.readouterr().err


def test_size_guard_exit_code(tmp_path, capsys):
    """A ladder of 10^9 + 2 points whose smallest, e^-10, does not underflow
    (about 240 GB if built) is refused before any point is built."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"family": "bernoulli", "a": 1.00000001, "k_max": 10**9}))
    tracemalloc.start()
    try:
        rc = main(["geometry", "--channel", str(big), "--task", "packing",
                   "--radii", "0.1", "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 3 and peak < 1 << 20
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error code=SIZE_GUARD msg=")
    assert not (tmp_path / "o").exists()


def test_unread_spec_key_exit_code(tmp_path, capsys):
    """A "costs" key loaded as zero costs, so power_capacity reported the
    cap inactive with exit 0."""
    spec = tmp_path / "costs.json"
    spec.write_text(json.dumps(IDENT | {"costs": [0, 5]}))
    out = tmp_path / "o"
    assert main(["bounds", "--channel", str(spec), "--formula", "power_capacity",
                 "--cost-cap", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error code=VALIDATION msg=channel spec keys")
    assert not out.exists()


def test_construct_size_guard_exit_code(bern_file, tmp_path, capsys):
    # four letters at this (E, t): a 4^13-word greedy scan is refused
    rc = main(["construct", "--channel", str(bern_file), "--n", "13", "--E", "4.5e-7",
               "--t", "0.5", "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "error code=SIZE_GUARD" in capsys.readouterr().err


def test_construct_then_evaluate(bern_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["construct", "--channel", str(bern_file), "--n", "8",
               "--E", "1e-5", "--t", "0.5", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "construct_summary.json").read_text())
    assert summary["rate_meets_floor"]
    rc = main(["evaluate", "--channel", str(bern_file), "--code",
               str(out / "code.json"), "--method", "exact",
               "--out", str(tmp_path / "ev")])
    assert rc == 0
    report = json.loads((tmp_path / "ev" / "error_report.json").read_text())
    assert report["method"] == "exact-dp"
    assert report["lambda1"]["hi"] <= 1.0


def test_trivial_regime_warning(bern_file, tmp_path, capsys):
    rc = main(["construct", "--channel", str(bern_file), "--n", "6",
               "--E", "0.01", "--t", "0.5", "--out", str(tmp_path / "run")])
    assert rc == 0
    assert "trivial regime" in capsys.readouterr().err


def test_reruns_byte_identical(bern_file, tmp_path, capsys):
    args_base = ["bounds", "--channel", str(bern_file),
                 "--formula", "thm1_lower", "thm2_upper",
                 "--E-axis", "1e-6:1e-4:6:log", "--n-axis", "1e6:1e6:1",
                 "--t", "0.5", "--svg"]
    outs = []
    for i, jobs in enumerate(("1", "3")):
        out = tmp_path / f"b{i}"
        assert main(args_base + ["--out", str(out), "--jobs", jobs]) == 0
        outs.append(read_outputs(out))
    assert outs[0] == outs[1]

    # evaluate reruns with equal seeds match byte for byte
    run = tmp_path / "code"
    main(["construct", "--channel", str(bern_file), "--n", "6", "--E", "1e-5",
          "--t", "0.5", "--out", str(run)])
    reports = []
    for i in range(2):
        out = tmp_path / f"mc{i}"
        assert main(["evaluate", "--channel", str(bern_file), "--code",
                     str(run / "code.json"), "--method", "mc", "--trials", "400",
                     "--seed", "11", "--out", str(out)]) == 0
        reports.append(read_outputs(out))
    assert reports[0] == reports[1]


def test_exact_run_records_no_seed(bern_file, tmp_path, monkeypatch):
    """Exact reports read no seed and record null; Monte Carlo without
    --seed reads 0, whatever DIRL_SEED, which nothing reads any more, says."""
    code = tmp_path / "code.json"
    code.write_text(code_to_json(assemble_code(bernoulli_family(2.0, 6),
                                               [(0, 1, 2), (3, 4, 5)], delta=1.0)))
    monkeypatch.setenv("DIRL_SEED", "5")
    seeds = {}
    for method in ("exact", "mc"):
        out = tmp_path / method
        assert main(["evaluate", "--channel", str(bern_file), "--code", str(code),
                     "--method", method, "--out", str(out)]) == 0
        seeds[method] = (json.loads((out / "manifest.json").read_text())["seed"],
                         json.loads((out / "error_report.json").read_text())["seed"])
    assert seeds == {"exact": (None, None), "mc": (0, 0)}


def test_fig2_recipe_and_svg_regression(tmp_path, capsys):
    import hashlib

    digests = []
    for i in range(2):
        out = tmp_path / f"fig{i}"
        rc = main(["bounds", "--recipe", "fig2", "--n-axis", "1e3:1e9:7:log",
                   "--svg", "--out", str(out)])
        assert rc == 0
        svg = (out / "bounds.svg").read_text()
        path_data = "".join(line for line in svg.splitlines() if "<path" in line)
        digests.append(hashlib.sha256(path_data.encode()).hexdigest())
        assert "trend_lower" in (out / "bounds.csv").read_text()
    assert digests[0] == digests[1]


@pytest.mark.parametrize("task", ["packing", "covering"])
def test_geometry_counts_exactly_up_to_size_limit(task, bern_file, tmp_path):
    """The 8-point BERN6 cloud is counted exactly, the 1,002-point ladder
    greedily, as the bounds count them."""
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps({"family": "bernoulli", "a": 2.0, "k_max": 1000}))
    for channel, exact in ((bern_file, "True"), (ladder, "False")):
        out = tmp_path / channel.stem
        assert main(["geometry", "--channel", str(channel), "--task", task,
                     "--radii", "0.05,0.001", "--out", str(out)]) == 0
        rows = (out / "geometry.csv").read_text().splitlines()
        assert rows[0] == "radius,count,exact,centers"
        assert [row.split(",")[2] for row in rows[1:]] == [exact, exact]


@pytest.mark.parametrize("task", ["covering", "packing"])
def test_ladder_greedy_centres_recorded(task, tmp_path):
    """The 1,002-point ladder's greedy counts and centres at two radii, byte
    for byte as recorded when every count read a square distance matrix."""
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps({"family": "bernoulli", "a": 2.0, "k_max": 1000}))
    assert main(["geometry", "--channel", str(ladder), "--task", task,
                 "--radii", "1e-3,1e-5", "--out", str(tmp_path / "o")]) == 0
    recorded = Path(__file__).parent / "data" / f"ladder_{task}.csv"
    assert (tmp_path / "o" / "geometry.csv").read_bytes() == recorded.read_bytes()


def test_geometry_dimension_command(bern_file, tmp_path, capsys):
    rc = main(["geometry", "--channel", str(bern_file), "--task", "dimension",
               "--radii", "0.4,0.2,0.1,0.05,0.025", "--out", str(tmp_path / "g")])
    assert rc == 0
    text = (tmp_path / "g" / "geometry.csv").read_text()
    assert text.startswith("radius,log2_count,slope")


# the tail of the k_max = 6 ladder lies within 2^-6 of x = 0 in total
# variation, and within about 2^-3 under the sqrt embedding; half of the
# dimension radii lie below 2^-6
@pytest.mark.parametrize("task, embedding, radius", [
    ("covering", "raw", "0.001"),
    ("covering", "sqrt", "0.05"),
    ("dimension", "raw", "0.5:0.0005:6:log"),
], ids=["raw", "sqrt", "dimension"])
def test_truncation_scale_warning(bern_file, tmp_path, capsys, task, embedding, radius):
    rc = main(["geometry", "--channel", str(bern_file), "--task", task,
               "--embedding", embedding, "--radii", radius,
               "--out", str(tmp_path / "g")])
    assert rc == 0
    assert "truncation scale" in capsys.readouterr().err


def test_cli_subprocess_smoke(bern_file, tmp_path):
    # the child imports dicode from wherever this process found it, so the
    # test also runs without an install
    src = str(Path(dicode.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dicode.cli", "construct", "--channel",
         str(bern_file), "--n", "6", "--E", "1e-5", "--t", "0.5",
         "--out", str(tmp_path / "sp")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert (tmp_path / "sp" / "code.json").exists()
    assert (tmp_path / "sp" / "manifest.json").exists()


# each invocation exited 1 with a traceback, or was silently misread or
# ignored, before the CLI validated it; "{bern}" is the channel file, "{code}"
# a valid code for it and "{tmp}" the test directory
MALFORMED = {
    "axis-non-numeric-count": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                               "--E-axis", "1e-6:1e-3:abc", "--n-axis", "1e7", "--t", "0.5"],
    "axis-non-numeric-value": ["geometry", "--channel", "{bern}", "--task", "packing",
                               "--radii", "0.5,x"],
    # a list axis of no values used to write a header-only table, exit 0
    "axis-empty-list": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                        "--E-axis", ",", "--n-axis", "1e7", "--t", "0.5"],
    "radii-empty-list": ["geometry", "--channel", "{bern}", "--task", "packing",
                         "--radii", ""],
    "axis-unknown-scale": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                           "--E-axis", "1e-6:1e-3:5:lin", "--n-axis", "1e7", "--t", "0.5"],
    "code-file-missing": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/none.json"],
    "code-file-not-a-code": ["evaluate", "--channel", "{bern}", "--code", "{bern}"],
    "code-letter-not-input": ["evaluate", "--channel", "{ident}", "--code", "{code}"],
    "code-letter-not-input-mc": ["evaluate", "--channel", "{ident}", "--code", "{code}",
                                 "--method", "mc", "--trials", "10"],
    "code-letter-half": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/half.json"],
    "code-letter-negative": ["evaluate", "--channel", "{bern}", "--code",
                             "{tmp}/negative.json"],
    "code-letter-bool": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/bool.json"],
    "code-entropy-bool": ["evaluate", "--channel", "{bern}", "--code",
                          "{tmp}/entropy-bool.json"],
    "code-entropy-negative": ["evaluate", "--channel", "{bern}", "--code",
                              "{tmp}/entropy-negative.json"],
    "code-entropy-nan": ["evaluate", "--channel", "{bern}", "--code",
                         "{tmp}/entropy-nan.json"],
    "code-delta-negative": ["evaluate", "--channel", "{bern}", "--code",
                            "{tmp}/delta-negative.json"],
    "code-delta-nan": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/delta-nan.json"],
    "code-delta-bool": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/delta-bool.json"],
    "code-delta-inf": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/delta-inf.json"],
    "code-words-ragged": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/ragged.json"],
    "code-words-none": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/empty.json"],
    # a key the code reader does not read, at the top level or under "params"
    "code-key-unread": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/key-top.json"],
    "code-params-key-unread": ["evaluate", "--channel", "{bern}", "--code",
                               "{tmp}/key-params.json"],
    "code-n-mismatch": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/long-n.json"],
    "code-n-mismatch-mc": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/long-n.json",
                           "--method", "mc", "--trials", "10"],
    # a negative seed used to exit 1 with numpy's SeedSequence ValueError
    "mc-seed-negative": ["evaluate", "--channel", "{bern}", "--code", "{code}",
                         "--method", "mc", "--trials", "10", "--seed=-1"],
    "grid-lacks-n": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                     "--E-axis", "1e-4", "--t", "0.5"],
    "grid-lacks-d": ["bounds", "--formula", "cor2_upper", "--E-axis", "1e-4",
                     "--eta", "0.1"],
    "thm1-without-channel": ["bounds", "--formula", "thm1_lower", "--E-axis", "1e-4",
                             "--n-axis", "100", "--t", "0.5"],
    "ex2-without-channel": ["bounds", "--formula", "ex2_dmc_lower", "--E-axis", "1e-4",
                            "--n-axis", "100"],
    "fig2-n-below-2": ["bounds", "--recipe", "fig2", "--n-axis", "1:10:3"],
    "fig2-with-formula": ["bounds", "--recipe", "fig2", "--formula", "thm2_upper"],
    "fig2-with-E-axis": ["bounds", "--recipe", "fig2", "--E-axis", "1e-3"],
    "fig2-with-channel": ["bounds", "--recipe", "fig2", "--channel", "{bern}"],
    "n-axis-nan": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                   "--E-axis", "1e-3", "--n-axis", "nan", "--t", "0.5"],
    "n-axis-overflow": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                        "--E-axis", "1e-3", "--n-axis", "1e400", "--t", "0.5"],
    "E-axis-nan": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                   "--E-axis", "nan", "--n-axis", "1e7", "--t", "0.5"],
    "E-axis-overflow": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                        "--E-axis", "1e400", "--n-axis", "1e7", "--t", "0.5"],
    "axis-range-overflow": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                            "--E-axis", "1e-6:1e400:3:log", "--n-axis", "1e7",
                            "--t", "0.5"],
    "thm6-delta-part-zero": ["bounds", "--channel", "{bern}", "--formula", "thm6_stein",
                             "--E-axis", "1e-3", "--n-axis", "10", "--delta-part", "0"],
    "thm6-delta-part-negative": ["bounds", "--channel", "{bern}", "--formula",
                                 "thm6_stein", "--E-axis", "1e-3", "--n-axis", "10",
                                 "--delta-part=-0.5"],
    "thm6-lambda-one": ["bounds", "--channel", "{bern}", "--formula", "thm6_stein",
                        "--E-axis", "1e-3", "--n-axis", "10", "--lambda-bound", "1"],
    "thm6-lambda-negative": ["bounds", "--channel", "{bern}", "--formula", "thm6_stein",
                             "--E-axis", "1e-3", "--n-axis", "10", "--lambda-bound=-0.5"],
    "construct-with-seed": ["construct", "--channel", "{bern}", "--n", "4", "--E", "1e-5",
                            "--t", "0.5", "--seed", "1"],
    "construct-with-jobs": ["construct", "--channel", "{bern}", "--n", "4", "--E", "1e-5",
                            "--t", "0.5", "--jobs", "1"],
    "exact-with-trials": ["evaluate", "--channel", "{bern}", "--code", "{code}",
                          "--trials", "7"],
    "exact-with-seed": ["evaluate", "--channel", "{bern}", "--code", "{code}",
                        "--method", "exact", "--seed", "3"],
    "exact-with-jobs": ["evaluate", "--channel", "{bern}", "--code", "{code}", "--jobs", "2"],
    "mc-with-pair-budget": ["evaluate", "--channel", "{bern}", "--code", "{code}",
                            "--method", "mc", "--trials", "10", "--pair-budget", "0"],
    "mc-with-jobs": ["evaluate", "--channel", "{bern}", "--code", "{code}",
                     "--method", "mc", "--trials", "10", "--jobs", "1"],
    "dimension-with-mode": ["geometry", "--channel", "{bern}", "--task", "dimension",
                            "--mode", "exact", "--radii", "0.5:0.01:5:log"],
    "covering-with-mode": ["geometry", "--channel", "{bern}", "--task", "covering",
                           "--mode", "exact", "--radii", "0.5"],
    "negative-pair-budget": ["evaluate", "--channel", "{bern}", "--code", "{code}",
                             "--pair-budget=-1"],
    # argparse's own errors: a usage dump and SystemExit(2) raised through main
    "missing-required": ["construct", "--channel", "{bern}", "--n", "4", "--t", "0.5"],
    "geometry-with-jobs": ["geometry", "--channel", "{bern}", "--task", "packing",
                           "--radii", "0.5", "--jobs", "1"],
    "bad-method": ["evaluate", "--channel", "{bern}", "--code", "{code}", "--method", "dp"],
    "n-not-a-number": ["construct", "--channel", "{bern}", "--n", "x", "--E", "1e-5",
                       "--t", "0.5"],
    "E-nan": ["construct", "--channel", "{bern}", "--n", "4", "--E", "nan", "--t", "0.5"],
    "d-nan": ["bounds", "--formula", "cor2_upper", "--E-axis", "1e-4", "--eta", "0.1",
              "--d", "nan"],
    "unknown-formula": ["bounds", "--formula", "nope", "--E-axis", "1e-4"],
    "y-size-with-channel": ["bounds", "--channel", "{bern}", "--formula", "thm6_stein",
                            "--E-axis", "1e-3", "--n-axis", "10", "--y-size", "3"],
    "embedding-cube": ["geometry", "--channel", "{bern}", "--task", "packing",
                       "--radii", "0.5", "--embedding", "cube"],
    "bern-k-max-bool": ["channel", "check", "--channel", "{tmp}/bern-k-max-bool.json"],
    "bern-k-max-real": ["channel", "check", "--channel", "{tmp}/bern-k-max-real.json"],
    "bern-k-max-string": ["channel", "check", "--channel", "{tmp}/bern-k-max-string.json"],
    "bern-a-string": ["channel", "check", "--channel", "{tmp}/bern-a-string.json"],
    "explicit-ragged": ["channel", "check", "--channel", "{tmp}/explicit-ragged.json"],
    "explicit-bool": ["channel", "check", "--channel", "{tmp}/explicit-bool.json"],
}
#: Bernoulli specs that differ from BERN in one field that is no JSON number
#: of the right kind
MALFORMED_BERN = {"k-max-bool": {"k_max": True}, "k-max-real": {"k_max": 6.7},
                  "k-max-string": {"k_max": "6"}, "a-string": {"a": "2.0"}}
#: explicit specs whose matrix is ragged or holds bools
MALFORMED_EXPLICIT = {"ragged": [[0.5, 0.5], [1.0]], "bool": [[True, False], [False, True]]}


#: letter alphabets of the code over letters 0..5 that are not distinct
#: BERN inputs holding every letter the words use
ALPHABETS = {"zz": "zz", "repeated": [0, 1, 2, 3, 4, 5, 5], "missing": [0, 1, 2, 3, 4],
             "not-input": [0, 1, 2, 3, 4, 5, 8], "real": [0.0, 1, 2, 3, 4, 5],
             "bool": [True, 0, 2, 3, 4, 5], "empty": []}


def write_malformed_codes(payload, tmp_path):
    """Code files that differ from a valid one in one field, by name."""
    words = payload["codewords"]
    bad = {"half": [[0.5] + words[0][1:]] + words[1:],
           "negative": [[-1] + words[0][1:]] + words[1:],
           "bool": [[True] + words[0][1:]] + words[1:],
           "ragged": [words[0][:-1]] + words[1:],
           "empty": []}
    for name, codewords in bad.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload | {"codewords": codewords}))
    rest = payload["entropies"][1:]
    for name, first in (("bool", True), ("negative", -1.0), ("nan", math.nan), ("99", 99.0)):
        entropies = payload | {"entropies": [first] + rest}
        (tmp_path / f"entropy-{name}.json").write_text(json.dumps(entropies))
    # -1 and NaN used to certify lambda1 = [1, 1], true to read as delta 1
    for name, delta in (("bool", True), ("negative", -1), ("nan", math.nan), ("inf", math.inf)):
        (tmp_path / f"delta-{name}.json").write_text(json.dumps(payload | {"delta": delta}))
    for name, letters in ALPHABETS.items():
        (tmp_path / f"alphabet-{name}.json").write_text(
            json.dumps(payload | {"letter_alphabet": letters}))
    (tmp_path / "key-top.json").write_text(json.dumps(payload | {"costs": [0, 5]}))
    extra = payload | {"params": payload["params"] | {"costs": [0, 5]}}
    (tmp_path / "key-params.json").write_text(json.dumps(extra))
    long_n = payload | {"params": payload["params"] | {"n": 2 * len(words[0])}}
    (tmp_path / "long-n.json").write_text(json.dumps(long_n))


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_validation_error(argv, bern_file, tmp_path, capsys):
    code, ident = tmp_path / "code.json", tmp_path / "ident.json"
    code.write_text(code_to_json(assemble_code(bernoulli_family(2.0, 6),
                                               [(0, 1, 2), (3, 4, 5)], delta=1.0)))
    ident.write_text(json.dumps(IDENT))
    write_malformed_codes(json.loads(code.read_text()), tmp_path)
    for name, field in MALFORMED_BERN.items():
        (tmp_path / f"bern-{name}.json").write_text(json.dumps(BERN | field))
    for name, matrix in MALFORMED_EXPLICIT.items():
        (tmp_path / f"explicit-{name}.json").write_text(json.dumps(IDENT | {"matrix": matrix}))
    argv = [a.format(bern=bern_file, code=code, ident=ident, tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error code=VALIDATION msg=")
    assert "ValidationError(" not in err[0]  # the message as text, not a repr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, field", [
    ("entropy-99", "entropies"), ("entropy-other-channel", "entropies"), ("y-size-7", "y_size"),
    *((f"alphabet-{name}", "letter_alphabet") for name in ALPHABETS)])
def test_code_file_not_of_the_channel_names_its_field(name, field, bern_file, tmp_path,
                                                      capsys):
    """A code file whose entropies, letter alphabet or output count y_size do
    not match the channel is refused with exit 2 in one line that names the
    field, by both methods; so is a code assembled for another channel, whose
    stored entropies are that channel's.  A first entropy of 99.0, the letter
    alphabet "zz" and y_size 7 used to give the reports of the valid file."""
    code = assemble_code(bernoulli_family(2.0, 6), [(0, 1, 2), (3, 4, 5)], delta=1.0)
    write_malformed_codes(json.loads(code_to_json(code)), tmp_path)
    other = assemble_code(bernoulli_family(3.0, 6), code.codewords, delta=1.0)
    (tmp_path / "entropy-other-channel.json").write_text(code_to_json(other))
    # the parameters derive_params gives for |Y| = 7, so that the file loads
    seven = dataclasses.replace(code, params=derive_params(code.params.E_target, 0.5, 7, 3))
    (tmp_path / "y-size-7.json").write_text(code_to_json(seven))
    for method in (["--method", "exact"], ["--method", "mc", "--trials", "10"]):
        assert main(["evaluate", "--channel", str(bern_file), "--code",
                     str(tmp_path / f"{name}.json"), *method,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=VALIDATION msg=")
        assert f": {field} " in err[0]
    assert not (tmp_path / "o").exists()


#: derived values of the frozen BERN6 code file, edited; each file used to
#: evaluate with exit 0 and the valid file's reports
STALE = {"min_hamming": 99, "rate": 5.0, "lambda1_ceiling": 0.0, "beta": -1,
         "entropy_bin": [0, 1], "letter_count_exact": True, "rate_floor": 10.0,
         "guarantee_valid": False}


@pytest.mark.parametrize("keys", [[key] for key in STALE] + [list(STALE)],
                         ids=[*STALE, "all"])
def test_code_file_with_a_stale_derived_value_names_it(keys, bern_file, tmp_path, capsys):
    """A code file stores its words, letters, delta, entropies, rate floor
    and (E, t, |Y|, n); every other value is derived from them, and a file
    whose value differs is refused with exit 2 in one line naming the keys."""
    payload = json.loads(BERN6_CODE.read_text())
    payload["params"] |= {key: STALE[key] for key in keys}
    (tmp_path / "stale.json").write_text(json.dumps(payload))
    assert main(["evaluate", "--channel", str(bern_file), "--code", str(tmp_path / "stale.json"),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error code=VALIDATION msg=")
    assert f": {' and '.join(sorted(keys))} differ" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"], ["--version"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# every option a manifest records, per command; a new option joins the
# manifest only by changing this table.  The channel is recorded by its
# SHA-256, never by its path, so a run's manifest is the same in any checkout
MANIFEST_PARAMETERS = {
    "channel check": set(),
    "construct": {"n", "E", "t", "code_mode"},
    "evaluate": {"code", "method", "trials", "pair_budget"},
    "bounds": {"formula", "recipe", "n_axis", "E_axis", "t", "eta", "alpha",
               "d", "a", "A", "omega", "lambda", "delta_part", "delta_trunc", "y_size"},
    "geometry": {"task", "embedding", "radii"},
}


def test_manifest_parameters_are_pinned(bern_file, tmp_path):
    bern, code = str(bern_file), str(tmp_path / "code" / "code.json")
    runs = {
        "check": ["channel", "check", "--channel", bern],
        "code": ["construct", "--channel", bern, "--n", "6", "--E", "1e-5", "--t", "0.5"],
        "exact": ["evaluate", "--channel", bern, "--code", code],
        "mc": ["evaluate", "--channel", bern, "--code", code, "--method", "mc",
               "--trials", "10", "--seed", "4"],
        "bounds": ["bounds", "--channel", bern, "--E-axis", "1e-5", "--n-axis", "100",
                   "--t", "0.5", "--svg", "--seed", "1", "--jobs", "2"],
        "fig2": ["bounds", "--recipe", "fig2"],
        "geometry": ["geometry", "--channel", bern, "--task", "packing", "--radii", "0.5",
                     "--seed", "1"],
    }
    manifests = {}
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        assert set(manifests[name]["parameters"]) \
            == MANIFEST_PARAMETERS[manifests[name]["command"]], name
    assert {name: m["channel_sha256"] for name, m in manifests.items()} == dict.fromkeys(
        runs, hashlib.sha256(bern_file.read_bytes()).hexdigest()) | {"fig2": None}
    assert {name: m["seed"] for name, m in manifests.items()} \
        == {"check": 0, "code": 0, "exact": None, "mc": 4, "bounds": 0, "fig2": 0,
            "geometry": 0}
    # defaults are recorded resolved
    assert manifests["exact"]["parameters"]["trials"] == cli.DEFAULT_TRIALS
    assert manifests["mc"]["parameters"]["pair_budget"] == cli.DEFAULT_PAIR_BUDGET
    assert manifests["bounds"]["parameters"]["formula"] == ["thm1_lower"]
    assert manifests["geometry"]["parameters"]["embedding"] == "sqrt"
    assert {k: manifests["fig2"]["parameters"][k] for k in ("formula", "n_axis")} \
        == {"formula": ["trend_lower", "trend_upper"], "n_axis": cli.FIG2_N_AXIS}


# --svg draws a log10 x axis; it had no x value (float("") failed), or a zero
# one (log10(0) failed), and exited 1 after bounds.csv was written
SVG_WITHOUT_X = {
    "no-x-axis": ["--formula", "power_capacity", "--cost-cap", "0.25"],
    "x-zero": ["--formula", "thm2_upper", "--E-axis", "0,1", "--n-axis", "100"],
}


@pytest.mark.parametrize("extra", SVG_WITHOUT_X.values(), ids=SVG_WITHOUT_X.keys())
def test_svg_needs_positive_x_values(extra, bern_file, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["bounds", "--channel", str(bern_file), *extra, "--svg",
                 "--out", str(out)]) == 2
    assert "error code=VALIDATION msg=--svg" in capsys.readouterr().err
    assert not out.exists()


# one axis past the guard, and two axes whose product is, each read by the formula
HUGE_GRIDS = {
    "axis": ["--formula", "trend_upper", "--n-axis", "1:2:100000000"],
    "product": ["--formula", "ex1_bern_upper", "--a", "2", "--n-axis", "10:1000:1000",
                "--E-axis", "1e-6:1e-3:1000:log"],
}


@pytest.mark.parametrize("axes", HUGE_GRIDS.values(), ids=HUGE_GRIDS.keys())
def test_grid_guard_fails_before_allocating(axes, tmp_path, capsys):
    tracemalloc.start()
    try:
        rc = main(["bounds", *axes, "--out", str(tmp_path / "o")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "error code=SIZE_GUARD" in capsys.readouterr().err
    assert peak < 2 << 20


@pytest.mark.parametrize("axes,rc", [
    (["--formula", "trend_upper", "--n-axis", "10:100:6"], 0),
    (["--formula", "trend_upper", "--n-axis", "10:100:7"], 3),
    (["--formula", "ex1_bern_upper", "--a", "2", "--n-axis", "10:100:2",
      "--E-axis", "1e-3:1e-2:3"], 0),
    (["--formula", "ex1_bern_upper", "--a", "2", "--n-axis", "10:100:3",
      "--E-axis", "1e-3:1e-2:3"], 3),
])
def test_grid_guard_edge(axes, rc, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GRID_LIMIT", 6)
    assert main(["bounds", *axes, "--out", str(tmp_path / "o")]) == rc


@pytest.mark.parametrize("flag", [flag for flag, _, _, _ in BOUNDS_VALUES])
def test_fig2_refuses_value_options(flag, tmp_path, capsys):
    """fig2 reads only --n-axis, so every single-value option is refused."""
    assert main(["bounds", "--recipe", "fig2", flag, "1", "--out", str(tmp_path)]) == 2
    assert "error code=VALIDATION msg=--recipe fig2" in capsys.readouterr().err


def test_bounds_manifest_records_value_options(bern_file, tmp_path):
    # --cost-cap is read by power_capacity alone, which needs a channel, and a
    # channel refuses --y-size: two runs
    runs = {"thm6": ["--formula", "thm6_stein", "--E-axis", "1e-3", "--n-axis", "1000",
                     "--lambda-bound", "0.25", "--delta-part", "0.125",
                     "--delta-trunc", "0.375", "--y-size", "3"],
            "power": ["--channel", str(bern_file), "--formula", "power_capacity",
                      "--cost-cap", "2.5"]}
    params = {}
    for name, argv in runs.items():
        assert main(["bounds", *argv, "--out", str(tmp_path / name)]) == 0
        params[name] = json.loads((tmp_path / name / "manifest.json").read_text())["parameters"]
    thm6, power = params["thm6"], params["power"]
    assert {k: thm6[k] for k in ("lambda", "delta_part", "delta_trunc", "y_size")} \
        == {"lambda": 0.25, "delta_part": 0.125, "delta_trunc": 0.375, "y_size": 3}
    assert power["A"] == 2.5
    assert thm6["formula"] == ["thm6_stein"]
    assert power["formula"] == ["power_capacity"]


#: the `bounds` flag of each grid key, "W" being the channel, and a value of
#: each that every formula reading it accepts
KEY_FLAGS = {"W": "--channel", "n": "--n-axis", "E": "--E-axis",
             **{key: flag for flag, key, _, _ in BOUNDS_VALUES}}
KEY_VALUES = {"n": "100", "E": "1e-4", "t": "0.5", "eta": "0.1", "alpha": "2", "d": "1",
              "a": "2", "A": "0.5", "omega": "0.1", "lambda": "0.5", "delta_part": "0.2",
              "delta_trunc": "0.5", "y_size": "2"}


def key_args(keys, bern_file):
    return [arg for key in keys
            for arg in (KEY_FLAGS[key], str(bern_file) if key == "W" else KEY_VALUES[key])]


@pytest.mark.parametrize("formula_id", FORMULAS)
def test_bounds_accepts_each_key_its_formula_reads(formula_id, bern_file, tmp_path):
    keys = FORMULAS[formula_id][1]
    assert main(["bounds", "--formula", formula_id, *key_args(keys, bern_file),
                 "--out", str(tmp_path / "o")]) == 0
    if "y_size" in keys:  # or |Y| from a channel
        assert main(["bounds", "--formula", formula_id,
                     *key_args([k if k != "y_size" else "W" for k in keys], bern_file),
                     "--out", str(tmp_path / "w")]) == 0


@pytest.mark.parametrize("formula_id", FORMULAS)
def test_bounds_refuses_a_key_no_formula_reads(formula_id, bern_file, tmp_path, capsys,
                                                monkeypatch):
    """Refused with one line before a channel is loaded or --out created."""
    keys = FORMULAS[formula_id][1]
    monkeypatch.setattr(cli, "load_channel", None)
    reads = set(keys) | ({"W"} if "y_size" in keys else set())
    assert KEY_FLAGS.keys() - reads
    for key in KEY_FLAGS.keys() - reads:
        out = tmp_path / key
        assert main(["bounds", "--formula", formula_id, *key_args(keys, bern_file),
                     *key_args([key], bern_file), "--out", str(out)]) == 2, key
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=VALIDATION msg="), key
        assert err[0].endswith(f"drop {KEY_FLAGS[key]}")
        assert not out.exists()


@pytest.mark.parametrize("points,label", [(64, "exact"), (65, "lower-bound")])
def test_thm1_count_exact_up_to_size_limit(points, label, tmp_path):
    # the Bernoulli ladder with k_max has k_max + 2 inputs
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps({"family": "bernoulli", "a": 2.0, "k_max": points - 2}))
    out = tmp_path / "b"
    assert main(["bounds", "--channel", str(ladder), "--formula", "thm1_lower",
                 "--E-axis", "1e-3", "--n-axis", "1000", "--t", "0.5",
                 "--out", str(out)]) == 0
    row = (out / "bounds.csv").read_text().splitlines()[1].split(",")
    assert row[-1] == label
