"""Correctness checks that do not rely on the code under test.

``realizes`` simulates a circuit on all 2^n inputs at once, bit-sliced: line
l is one Python int whose bit x is line l's value on input x, and a gate is
``target ^= AND(controls)``.  Lines are 1-based, line 1 the most
significant bit, as in ``blocksynth.core``.  Running the circuit on input x
must give ``perm(x)``.
"""

from __future__ import annotations


def _input_lines(width: int) -> list[int]:
    """Index l (1..width) holds line l's value over all inputs x."""
    size = 1 << width
    lines = [0] * (width + 1)
    for line in range(1, width + 1):
        half = 1 << (width - line)  # run length of equal bits
        pattern, length = ((1 << half) - 1) << half, 2 * half
        while length < size:
            pattern |= pattern << length
            length *= 2
        lines[line] = pattern
    return lines


def _output_lines(width: int, entries) -> list[int]:
    lines = [0] * (width + 1)
    for line in range(1, width + 1):
        shift = width - line
        bits = 0
        for x in reversed(range(1 << width)):
            bits = (bits << 1) | ((entries[x] >> shift) & 1)
        lines[line] = bits
    return lines


def realizes(perm, seq) -> bool:
    """True iff running ``seq`` on every input x gives ``perm.entries[x]``."""
    width = perm.width
    if seq.width != width:
        return False
    full = (1 << (1 << width)) - 1
    v = _input_lines(width)
    for g in seq.gates:
        fire = full
        for line, positive in g.controls:
            fire &= v[line] if positive else v[line] ^ full
        v[g.target] ^= fire
    return v == _output_lines(width, perm.entries)


def real_form(seq) -> list[tuple[int, tuple[int, ...]]]:
    """``seq`` as the .real format can hold it: (target, positive controls).

    .real has no negative controls, so each one is an X on its line before
    and after the gate.
    """
    out = []
    for g in seq.gates:
        negatives = sorted(line for line, positive in g.controls if not positive)
        out.extend((line, ()) for line in negatives)
        out.append((g.target, tuple(sorted(line for line, _ in g.controls))))
        out.extend((line, ()) for line in negatives)
    return out


def _positive_form(seq) -> list[tuple[int, tuple[int, ...]]] | None:
    if any(not positive for g in seq.gates for _, positive in g.controls):
        return None
    return [(g.target, tuple(line for line, _ in g.controls)) for g in seq.gates]


def toffoli_equivalents(seq) -> int:
    return sum(2 * len(g.controls) - 3 for g in seq.gates if len(g.controls) >= 2)


def problems(bs, perm, seq, report, reread) -> list[str]:
    """Every way one synthesized map fails; empty when it passes.

    ``reread`` is ``read_real(format_real(seq))``.  Besides the simulation,
    a stage fails when its Toffoli count net of region lifts exceeds the
    analytic per-reduction budget.
    """
    out = []
    if not realizes(perm, seq):
        out.append("circuit does not realize the map")
    if reread.width != seq.width or _positive_form(reread) != real_form(seq):
        out.append(".real round trip changed the circuit")
    if report.gate_count != len(seq) or report.toffoli_total != toffoli_equivalents(seq):
        out.append("report totals disagree with the circuit")
    for stage in report.stages:
        budget = bs.bounds(stage.width).per_reduction_total
        if stage.toffoli - stage.lift_toffoli > budget:
            out.append(
                f"stage {stage.width}: {stage.toffoli - stage.lift_toffoli} "
                f"Toffolis net of lifts > budget {budget}"
            )
    return out
