"""Golden circuits: the exact ``.real`` text of a few fixed syntheses.

Each case pins the SHA-256 of ``format_real(seq)`` (and, for a readable
diff when it breaks, the Toffoli count).  A change that is meant to keep
the same circuits must leave every hash as it is; a change that alters
circuits on purpose regenerates them and says why.

The cases cover the selection paths: the S-boxes and two width-8 maps at
the default config (depth 1 with the exhaustive tail), a width-10 map at
the default config (where lookahead ties, and so the free-block
tie-break, are most frequent), a width-6 map with a 12-position tail (the
``_suffix`` branch and bound, up to 12 positions deep), and width-9 and
width-11 maps at depth 0 with no tail
(the plain scan and its fallbacks only; the width-11 one is where the
gates ``_Engine.emit`` applies to its bit planes, and the bit-sliced
scans, carry most of the time).

``STAGE_LEDGER`` pins, for the same cases, the SHA-256 of
``repr(report.stages)``: the per-stage gate split, Toffoli count, lifts and
mix statistics.  A change that keeps the circuits but slips the ledger
fails there.

``CIRCUIT_DIGEST`` pins the last line of ``scripts/circuit_digest.py``:
one SHA-256 over the circuits and stage ledgers of 126 syntheses, a wider
corpus than the cases above.  A change that alters circuits on purpose
updates it with the goldens.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from blocksynth import SynthesisConfig, format_real, parse_permutation, sample, synthesize

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "benchmarks"

DEFAULT = SynthesisConfig()
TAIL_12 = SynthesisConfig(exhaustive_tail=12)
DEPTH_0_NO_TAIL = SynthesisConfig(depths={j: 0 for j in range(1, 25)}, exhaustive_tail=0)

# name -> (map, config, Toffoli count, sha256 of format_real)
GOLDEN = {
    "khazad": (
        "khazad", DEFAULT, 889,
        "873b577c8e689eedb6c5960d43b9a69789b842e197e0f1200d4d5c8f856c5bfb",
    ),
    "skipjack": (
        "skipjack", DEFAULT, 880,
        "cb4e6ebf989a457221254d687a15068685091bf5e92fae37d245b2adf6967cfd",
    ),
    "sample-8-1": (
        (8, 1), DEFAULT, 927,
        "b4fa2b281e80b377ceb96237dad78240b7b88b24501cdd5f98ccc0bef020cbe0",
    ),
    "sample-8-2": (
        (8, 2), DEFAULT, 890,
        "69093e3a7272cb6a30176e9d868cb83bc8fa2f82097ae215363e2f84e3098e7c",
    ),
    "sample-10-1": (
        (10, 1), DEFAULT, 5600,
        "2a7d8d139cf66e358ab047dd7f582ad6466fd24a07a83dfd215d13814c0c1ba5",
    ),
    "sample-6-1-tail-12": (
        (6, 1), TAIL_12, 117,
        "c2ec51efb4d3af5a6c8518423da9cda3e0a9b1f3806cce6458e3c6c43fbf8c27",
    ),
    "sample-9-1-depth-0-no-tail": (
        (9, 1), DEPTH_0_NO_TAIL, 2920,
        "48dded56e15dfeb65dc21f41eef18c3a0da03a0f5f2bd2b65f7edc7c93ad2a77",
    ),
    "sample-11-1-depth-0-no-tail": (
        (11, 1), DEPTH_0_NO_TAIL, 16748,
        "d9619ef4828cf7d50e198662aa2aeb99391f32ec40fcf41a2fc57ff23ae03c18",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_circuit(name):
    source, cfg, toffoli, digest = GOLDEN[name]
    if isinstance(source, str):
        perm = parse_permutation((BENCH / f"{source}.perm").read_text())
    else:
        perm = sample(*source)
    seq, report = synthesize(perm, cfg)
    assert report.toffoli_total == toffoli
    assert hashlib.sha256(format_real(seq).encode()).hexdigest() == digest


# name -> sha256 of repr(report.stages), for the cases of GOLDEN
STAGE_LEDGER = {
    "khazad":
        "2632c0503b782ed0a9a59278f6016c0ab7901af7b09fdea4b62c7c8a21f17ce2",
    "sample-10-1":
        "fb6394d9cd1c8edabfe9d14a721f25297f41379118c7ae25c951d2b827737916",
    "sample-11-1-depth-0-no-tail":
        "1ce2341a88489001315bbb1d562a8c76aebe9a33ef4f7fc42c58fe028f8a3cf3",
    "sample-6-1-tail-12":
        "90f8bd665ce7dc7020f70da37420acf20470c8f2605c331392ad82bfba46b6c7",
    "sample-8-1":
        "5cd117ad011cb276cc7733bc21a0f823d5d43d7c95b3ce0f90a2c1962300d317",
    "sample-8-2":
        "f2922ace010aadbf465f91de0f4ce8e3c3569f863fa1b6afecf0ca65eba8cdea",
    "sample-9-1-depth-0-no-tail":
        "a2fb44015a842e60ec2a0457daef1bc0f267234a35335dcae2d8747c99c858c3",
    "skipjack":
        "ff7db54bfcf56d8fe3a2500b4b29f730c9d5ba3cdd8045c57439414a2cae767e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stage_ledger(name):
    source, cfg, _, _ = GOLDEN[name]
    if isinstance(source, str):
        perm = parse_permutation((BENCH / f"{source}.perm").read_text())
    else:
        perm = sample(*source)
    _, report = synthesize(perm, cfg)
    assert hashlib.sha256(repr(report.stages).encode()).hexdigest() == STAGE_LEDGER[name]


CIRCUIT_DIGEST = (
    "combined 84b004bc5ff57e74d7ebaf90a1611de4cf716c589388ec62dcc4216a8bea8007"
    " over 126 syntheses"
)


def test_circuit_digest(monkeypatch, capsys):
    path = REPO / "scripts" / "circuit_digest.py"
    spec = importlib.util.spec_from_file_location("circuit_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--quiet"])
    assert script.main() == 0
    assert capsys.readouterr().out.strip() == CIRCUIT_DIGEST
