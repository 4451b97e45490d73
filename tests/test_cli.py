import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicode
from dicode.channel import bernoulli_family
from dicode.cli import BOUNDS_VALUES, main
from dicode.codebook import assemble_code, code_to_json

BERN = {"family": "bernoulli", "a": 2.0, "k_max": 6}
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
    big = tmp_path / "big.json"
    import numpy as np
    m = np.full((70, 2), 0.5)
    m[:, 1] = np.linspace(0.01, 0.99, 70)
    m[:, 0] = 1 - m[:, 1]
    big.write_text(json.dumps({"inputs": [str(i) for i in range(70)],
                               "matrix": m.tolist()}))
    rc = main(["geometry", "--channel", str(big), "--task", "packing",
               "--mode", "exact", "--radii", "0.1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error code=SIZE_GUARD" in capsys.readouterr().err


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


def test_seed_env_fallback(bern_file, tmp_path, monkeypatch):
    run = tmp_path / "code"
    main(["construct", "--channel", str(bern_file), "--n", "6", "--E", "1e-5",
          "--t", "0.5", "--out", str(run)])
    monkeypatch.setenv("DIRL_SEED", "11")
    out_env = tmp_path / "env"
    main(["evaluate", "--channel", str(bern_file), "--code", str(run / "code.json"),
          "--method", "mc", "--trials", "400", "--out", str(out_env)])
    monkeypatch.delenv("DIRL_SEED")
    out_flag = tmp_path / "flag"
    main(["evaluate", "--channel", str(bern_file), "--code", str(run / "code.json"),
          "--method", "mc", "--trials", "400", "--seed", "11", "--out", str(out_flag)])
    assert read_outputs(out_env) == read_outputs(out_flag)


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


def test_geometry_dimension_command(bern_file, tmp_path, capsys):
    rc = main(["geometry", "--channel", str(bern_file), "--task", "dimension",
               "--radii", "0.4,0.2,0.1,0.05,0.025", "--out", str(tmp_path / "g")])
    assert rc == 0
    text = (tmp_path / "g" / "geometry.csv").read_text()
    assert text.startswith("radius,log2_count,slope")


def test_truncation_scale_warning(bern_file, tmp_path, capsys):
    rc = main(["geometry", "--channel", str(bern_file), "--task", "covering",
               "--embedding", "raw", "--radii", "0.001",
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
    "axis-unknown-scale": ["bounds", "--channel", "{bern}", "--formula", "thm1_lower",
                           "--E-axis", "1e-6:1e-3:5:lin", "--n-axis", "1e7", "--t", "0.5"],
    "code-file-missing": ["evaluate", "--channel", "{bern}", "--code", "{tmp}/none.json"],
    "code-file-not-a-code": ["evaluate", "--channel", "{bern}", "--code", "{bern}"],
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
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_validation_error(argv, bern_file, tmp_path, capsys):
    code = tmp_path / "code.json"
    code.write_text(code_to_json(assemble_code(bernoulli_family(2.0, 6),
                                               [(0, 1, 2), (3, 4, 5)], delta=1.0)))
    argv = [a.format(bern=bern_file, code=code, tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "error code=VALIDATION" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [flag for flag, _, _, _ in BOUNDS_VALUES])
def test_fig2_refuses_value_options(flag, tmp_path, capsys):
    """fig2 reads only --n-axis, so every single-value option is refused."""
    assert main(["bounds", "--recipe", "fig2", flag, "1", "--out", str(tmp_path)]) == 2
    assert "error code=VALIDATION msg=--recipe fig2" in capsys.readouterr().err


def test_bounds_manifest_records_value_options(tmp_path):
    out = tmp_path / "b"
    assert main(["bounds", "--formula", "thm6_stein", "--E-axis", "1e-3",
                 "--n-axis", "1000", "--cost-cap", "2.5", "--lambda-bound", "0.25",
                 "--delta-part", "0.125", "--delta-trunc", "0.375", "--y-size", "3",
                 "--out", str(out)]) == 0
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert {k: params[k] for k in ("A", "lambda", "delta_part", "delta_trunc", "y_size")} \
        == {"A": 2.5, "lambda": 0.25, "delta_part": 0.125, "delta_trunc": 0.375, "y_size": 3}
    assert params["formula"] == ["thm6_stein"]


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
