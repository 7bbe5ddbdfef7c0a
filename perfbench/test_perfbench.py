"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import blocksynth as bs  # noqa: E402
import checker  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def synthesized():
    perm = bs.sample(5, 7)
    seq, report = bs.synthesize(perm)
    return perm, seq, report


def _reread(seq):
    return bs.read_real(bs.format_real(seq))


def test_checker_accepts_the_emitted_circuit(synthesized):
    perm, seq, report = synthesized
    assert checker.realizes(perm, seq)
    assert checker.problems(bs, perm, seq, report, _reread(seq)) == []


def test_checker_rejects_a_dropped_gate(synthesized):
    perm, seq, _ = synthesized
    for k in (0, len(seq) // 2, len(seq) - 1):
        dropped = replace(seq, gates=seq.gates[:k] + seq.gates[k + 1:])
        assert not checker.realizes(perm, dropped)


def test_checker_rejects_a_flipped_control_polarity(synthesized):
    perm, seq, _ = synthesized
    k = next(i for i, g in enumerate(seq.gates) if g.controls)
    g = seq.gates[k]
    (line, positive), *rest = g.controls
    flipped = replace(g, controls=((line, not positive), *rest))
    bad = replace(seq, gates=seq.gates[:k] + (flipped,) + seq.gates[k + 1:])
    assert not checker.realizes(perm, bad)


def test_checker_rejects_a_changed_round_trip(synthesized):
    perm, seq, report = synthesized
    reread = _reread(seq)
    shortened = replace(reread, gates=reread.gates[:-1])
    assert ".real round trip changed the circuit" in checker.problems(
        bs, perm, seq, report, shortened
    )



def test_reference_task_gates_undo_its_permutation():
    perm = [5, 3, 0, 7, 1, 6, 2, 4]
    entries = list(perm)
    for ctrl, bit in reference.synthesize(perm, 3):
        entries = [e ^ bit if e & ctrl == ctrl else e for e in entries]
    assert entries == list(range(8))

@pytest.mark.parametrize("workload", ["sbox8", "wide_d0"])
def test_seed_fixes_the_corpus(workload):
    def entries(seed):
        return [p.entries for _, p in workloads.build(bs, ROOT, workload, seed)]

    assert workloads.specs(workload, 3) == workloads.specs(workload, 3)
    assert entries(3) == entries(3)
    assert entries(3) != entries(4)


def test_sbox8_reproduces_the_baseline_toffoli_counts():
    sboxes = {s.name: p for s, p in workloads.build(bs, ROOT, "sbox8", 1) if s.kind == "sbox"}
    assert bs.synthesize(sboxes["khazad"])[1].toffoli_total == 889
    assert bs.synthesize(sboxes["skipjack"])[1].toffoli_total == 880


def test_benchmark_json_names_and_workloads():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_tracer_restores_the_program():
    originals = (bs.synthesis._run_general, bs.synthesis._make_selector, bs.reduction._Engine.emit)
    tracer = Tracer()
    tracer.install(bs)
    assert bs.synthesis._run_general is not originals[0]
    tracer.restore()
    assert (bs.synthesis._run_general, bs.synthesis._make_selector, bs.reduction._Engine.emit) == originals
    assert tracer.absent == []


def test_tracer_names_missing_hooks_instead_of_failing():
    fake = SimpleNamespace(synthesis=SimpleNamespace(__name__="synthesis"),
                           reduction=SimpleNamespace(__name__="reduction"))
    tracer = Tracer()
    tracer.install(fake)
    tracer.restore()
    assert {"synthesis._pair_gates", "synthesis._make_selector", "reduction._Engine"} <= set(tracer.absent)


def _run(*args, cwd=ROOT, timeout=60):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    done = _run("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
