"""The certify workload loads the BERN6 n=10 code frozen instead of building it;
this test keeps that copy equal to what `construct` builds today.

    PYTHONPATH=src python -m pytest bench/test_frozen_code.py
"""

from pathlib import Path

import dicode as dc
from dicode.codebook import code_to_json

DATA = Path(__file__).resolve().parent / "data"


def test_frozen_bern6_code_matches_construct():
    code = dc.construct(dc.bernoulli_family(2.0, 6), n=10, E=4.5e-7, t=0.5)
    assert (len(code.letter_alphabet), code.size) == (4, 88)
    assert code_to_json(code) + "\n" == (DATA / "bern6_n10_code.json").read_text()
