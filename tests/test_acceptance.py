"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Every expected value is either hand-verified in the unit suites, produced
by an independent oracle in tests/helpers.py, or a frozen measurement from
a validated run.  Each test also prints a summary line with its key
measurements (visible with ``-s`` or in captured output).
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blocksynth import (
    GateSequence,
    Permutation,
    SynthesisConfig,
    apply_gate,
    bounds,
    cx,
    expand_mct,
    parse_permutation,
    sample,
    synthesize,
    toffoli_count,
    verify_identity,
    x,
)
from blocksynth.conditioning import _mix_engine, _run_preprocess
from blocksynth.reduction import (
    NORMAL,
    _Engine,
    _pair_split,
    _pick_rows,
    _run_normal,
)

from helpers import (
    alloc_masks,
    as_plain,
    circuit_table,
    conjoin_budget,
    cons_masks,
    findm,
    independent_parity,
    mct,
    mismatch_rows,
    sim_circuit,
    slide_budget,
)

REPO = Path(__file__).resolve().parent.parent


def report(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Criterion 3 and 10 share one synthesized corpus.


@pytest.fixture(scope="module")
def random_corpus():
    """100 seeded uniform permutations per width 4..8, default config."""
    t0 = time.perf_counter()
    runs = []
    for width in range(4, 9):
        for seed in range(100):
            perm = sample(width, seed=seed)
            seq, rep = synthesize(perm)
            runs.append((perm, seq, rep))
    return runs, time.perf_counter() - t0


def test_criterion_01_worked_gate_trace():
    """Hand-verified three-bit trace, byte for byte."""
    p = Permutation(3, (7, 2, 0, 1, 5, 3, 6, 4))
    assert apply_gate(p, x(3, 1)).entries == (5, 3, 6, 4, 7, 2, 0, 1)
    assert apply_gate(p, cx(3, 2, 1)).entries == (7, 2, 6, 4, 5, 3, 0, 1)
    assert apply_gate(p, mct(3, [3, 1], 2)).entries == (7, 2, 0, 1, 5, 4, 6, 3)
    five = GateSequence(3, (cx(3, 1, 3), mct(3, [3, 1], 2), x(3, 2), cx(3, 2, 3), mct(3, [2, 3], 1)))
    assert verify_identity(p, five)
    assert not verify_identity(p, GateSequence(3, (x(3, 1),)))
    report("[criterion 1] PASS: worked gate trace matches byte for byte")


def test_criterion_02_exhaustive_width_3():
    """All 8! = 40320 three-bit permutations synthesize and verify."""
    t0 = time.perf_counter()
    checked = 0
    for entries in itertools.permutations(range(8)):
        perm = Permutation(3, entries)
        seq, _ = synthesize(perm)
        assert seq.width == 3  # in place: no extra lines, no garbage
        assert verify_identity(perm, seq)
        if checked % 16 == 0:  # independent simulator spot checks
            assert circuit_table(3, as_plain(seq)) == list(entries)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 40320
    assert elapsed < 300.0, f"exhaustive sweep took {elapsed:.0f}s (budget 300s)"
    report(f"[criterion 2] PASS: 40320/40320 verified in {elapsed:.1f}s")


def test_criterion_03_randomized_widths_4_to_8(random_corpus):
    """100 random permutations per width verify within the analytic budget."""
    runs, elapsed = random_corpus
    assert len(runs) == 500
    for perm, seq, rep in runs:
        assert verify_identity(perm, seq)
        assert seq.width == perm.width  # garbage-free by construction
        budget = sum(
            conjoin_budget(w) + slide_budget(w) + _conditioning(w)
            for w in range(3, perm.width + 1)
        )
        assert rep.toffoli_total <= budget, (perm.width, rep.toffoli_total, budget)
    worst = max(rep.toffoli_total for _, _, rep in runs)
    assert elapsed < 600.0, f"corpus took {elapsed:.0f}s (budget 600s)"
    report(
        f"[criterion 3] PASS: 500/500 verified, worst Toffoli {worst}, "
        f"{elapsed:.1f}s"
    )


def _conditioning(n: int) -> int:
    from helpers import conditioning_budget

    return conditioning_budget(n)


def test_criterion_04_per_call_budgets_width_8():
    """1000 parity-aligned samples driven through the package's pair picks
    and the paper's gate-by-gate conjoin and slide (tests/helpers.py).

    Every in-region conjoining call stays within (n-m-1) CX + 2 X + one
    m-control closing gate; every slide's closing gate has at most
    popcount(i) controls; each sample's aggregate stays within the
    pair-construction plus slide budget.  The analytic budget itself is
    cross-checked by the standalone summation script.
    """
    n = 8
    aggregate_cap = conjoin_budget(n) + slide_budget(n)  # independent: 657
    assert bounds(n).n_c == conjoin_budget(n) == 354
    assert bounds(n).n_a == slide_budget(n) == 303
    script = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "verify_bounds.py"), "12"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0, script.stdout + script.stderr

    t0 = time.perf_counter()
    worst = 0
    for k in range(1000):
        perm = sample(n, seed=k, kind="parity_aligned")
        engine = _Engine(perm)
        for i in range(perm.size // 2):
            lo, hi = engine.entries[2 * i], engine.entries[2 * i + 1]
            if hi == lo + 1 and lo % 2 == 0:
                continue  # position already holds the right block
            a, b = _pick_rows(engine, i, NORMAL)
            engine.lift_pair(i, a, b)
            pos = engine.pos  # valid until the next emit
            cgates = cons_masks(n, i, pos[a], pos[b])
            if cgates:
                m = findm(i, n)
                *body, last = [(ones | zeros).bit_count() for ones, zeros, _ in cgates]
                assert last == m
                xs = sum(1 for c in body if c == 0)
                cxs = sum(1 for c in body if c == 1)
                assert xs in (0, 2) and xs + cxs == len(body)
                assert cxs <= n - m - 1
                engine.emit(*cgates)
                pos = engine.pos
            agates = alloc_masks(n, i, pos[a])
            if agates:
                *body, last = [(ones | zeros).bit_count() for ones, zeros, _ in agates]
                assert last <= bin(i).count("1")
                assert all(c == 1 for c in body)
                engine.emit(*agates)
                pos = engine.pos
            assert {pos[a], pos[b]} == {2 * i, 2 * i + 1}
        total = toffoli_count(engine.sequence())
        assert total <= aggregate_cap, (k, total)
        worst = max(worst, total)
        if k < 3:  # the oracle's drive replays the production reduction
            ref = _Engine(perm)
            _run_normal(ref, lambda i: _pick_rows(ref, i, NORMAL))
            assert engine.gates == ref.gates
    elapsed = time.perf_counter() - t0
    report(
        f"[criterion 4] PASS: 1000/1000 within per-call shapes, worst "
        f"aggregate {worst}/{aggregate_cap}, {elapsed:.1f}s"
    )


def test_criterion_05_conditioning_postconditions():
    """500 uniform width-8 samples: mixing hits the target exactly and
    cheaply, balancing zeroes the interrupting count."""
    target = 128
    exact_hits = depth_shallow = balanced_ok = 0
    samples = 500
    for k in range(samples):
        perm = sample(8, seed=k)
        engine = _Engine(perm)
        stats = _mix_engine(engine)
        if mismatch_rows(engine.entries) == target:
            exact_hits += 1
        if stats.fixup_gates == 0 and stats.depth <= 2:
            depth_shallow += 1
        _run_preprocess(engine)
        if _pair_split(engine) == (64, 64):  # 128 rows each, none interrupting
            balanced_ok += 1
    assert exact_hits == samples, f"only {exact_hits}/{samples} hit {target}"
    assert balanced_ok == samples, f"only {balanced_ok}/{samples} balanced"
    share = depth_shallow / samples
    assert share >= 0.85, f"depth<=2 share {share:.1%} below 85%"
    report(
        f"[criterion 5] PASS: {exact_hits}/{samples} exact, "
        f"{share:.1%} at composite depth <= 2, {balanced_ok}/{samples} balanced"
    )


def test_criterion_06_invariant_suite():
    """Conservation, multiple-of-4 deltas, and involution, at scale."""
    rng = random.Random("acceptance:invariants")

    def random_gate(width: int):
        target = rng.randrange(1, width + 1)
        others = [l for l in range(1, width + 1) if l != target]
        m = rng.randrange(0, width)
        controls = [(l, rng.random() < 0.5) for l in rng.sample(others, m)]
        return mct(width, controls, target)

    def random_perm(width: int) -> Permutation:
        entries = list(range(1 << width))
        rng.shuffle(entries)
        return Permutation(width, tuple(entries))

    conserved = deltas = involutions = 0
    for _ in range(10_000):
        width = rng.randrange(3, 8)
        perm = random_perm(width)
        gate = random_gate(width)
        after_perm = apply_gate(perm, gate)
        if gate.target != width:  # off-last-line gates preserve all classes
            assert _pair_split(_Engine(after_perm)) == _pair_split(_Engine(perm))
            conserved += 1
        assert (mismatch_rows(after_perm.entries) - mismatch_rows(perm.entries)) % 4 == 0
        deltas += 1
        assert apply_gate(after_perm, gate) == perm
        involutions += 1
    for entries in itertools.permutations(range(8)):
        assert mismatch_rows(entries) % 4 == 0
    report(
        f"[criterion 6] PASS: {conserved} conservation, {deltas} mod-4 delta, "
        f"{involutions} involution checks; width-3 count exhaustively = 0 mod 4"
    )


def test_criterion_07_expansion_equivalence():
    """Expanded multi-controlled gates equal the original on every input,
    with work lines zeroed and restored, at exactly 2m-3 Toffolis."""
    for m in range(3, 8):
        width = m + 1
        gate = mct(width, list(range(1, m + 1)), width)
        result = expand_mct(GateSequence(gate.width, (gate,)), policy="clean")
        assert toffoli_count(result.circuit) == 2 * m - 3
        work = result.work_lines
        full = width + work
        plain = as_plain(result.circuit)
        for col in range(1 << width):
            out = sim_circuit(full, plain, col << work)
            assert out & ((1 << work) - 1) == 0
            want = sim_circuit(width, [(gate.target, tuple(gate.controls))], col)
            assert out >> work == want
    report("[criterion 7] PASS: m = 3..7 all expand to exactly 2m-3 Toffolis")


def test_criterion_08_sbox_benchmarks():
    """Both 8-bit S-boxes synthesize correctly, garbage-free, in budget."""
    cfg = SynthesisConfig()
    lines = []
    for name, tof_1x in (("skipjack", 771), ("khazad", 742)):
        path = REPO / "benchmarks" / f"{name}.perm"
        perm = parse_permutation(path.read_text())
        t0 = time.perf_counter()
        seq, rep = synthesize(perm, cfg)
        elapsed = time.perf_counter() - t0
        assert verify_identity(perm, seq)
        assert seq.width == perm.width == 8  # in-place, zero garbage lines
        assert elapsed < 600.0, f"{name} took {elapsed:.0f}s (budget 600s)"
        cumulative = sum(bounds(w).per_reduction_total for w in range(3, 9))
        assert rep.toffoli_total <= cumulative  # hard bound conformance
        assert rep.toffoli_total <= 1.5 * tof_1x, (name, rep.toffoli_total)
        stretch = "met" if rep.toffoli_total <= tof_1x else "not met"
        lines.append(
            f"{name} TOF {rep.toffoli_total} QC {rep.quantum_cost_total} "
            f"({elapsed:.1f}s; 1.0x target {tof_1x}: {stretch})"
        )
    report("[criterion 8] PASS: " + "; ".join(lines))


def test_criterion_09_width_11_depth_0():
    """An 11-bit random permutation synthesizes well inside 30 minutes."""
    perm = sample(11, seed=0)
    cfg = SynthesisConfig(depths={j: 0 for j in range(1, 25)}, exhaustive_tail=0)
    t0 = time.perf_counter()
    seq, rep = synthesize(perm, cfg)
    elapsed = time.perf_counter() - t0
    assert verify_identity(perm, seq)
    assert elapsed < 1800.0, f"width-11 run took {elapsed:.0f}s (budget 1800s)"
    report(
        f"[criterion 9] PASS: width 11 in {elapsed:.1f}s, "
        f"Toffoli {rep.toffoli_total}"
    )


def test_criterion_10_parity_structure(random_corpus):
    """Odd permutations require fully controlled gates; even ones carry an
    even number of them."""
    runs, _ = random_corpus
    odd_seen = even_seen = 0
    for perm, seq, _ in runs:
        full = sum(1 for g in seq if g.control_count == perm.width - 1)
        if independent_parity(perm.entries) == "odd":
            assert full >= 1 and full % 2 == 1, (perm.width, full)
            odd_seen += 1
        else:
            assert full % 2 == 0, (perm.width, full)
            even_seen += 1
    report(
        f"[criterion 10] PASS: {odd_seen} odd / {even_seen} even permutations "
        f"all match the fully-controlled-gate parity rule"
    )
