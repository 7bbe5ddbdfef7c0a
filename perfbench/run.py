"""Benchmark runner for blocksynth.

    python3 perfbench/run.py --workload sbox8 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  The runner imports ``blocksynth``
from ``src/`` in this one process and synthesizes the workload's seeded
corpus (see workloads.py) serially: no threads, no worker pool.

With ``--trace 0`` it repeats passes over the corpus until ``--seconds`` is
spent (at least one pass) and reports the end-to-end metrics of one pass,
each timing the sum over maps of that map's median across passes.  Times
are CPU time of this process (``time.process_time``): on a shared host,
wall time also counts the stretches the process waits for a core.  CPU time
still drifts with the neighbours' load, so ``synth_ref`` and ``tools_ref``
give it in multiples of reference.py's fixed task, which each pass runs
between maps for a twentieth of its CPU time; the pass's unit is the median
of those runs.  The plain CPU seconds are printed and recorded too.  Every
emitted circuit is checked by checker.py on its first pass, and must hash
the same on every later pass.  Set-up time is the median over this process
and a few fresh interpreters that only set up.

With ``--trace 1`` it makes one untraced pass, then one traced pass with
tracer.py's wrappers installed, and reports per-layer metrics.  The traced
circuits must hash the same as the untraced ones.

Per-map records (and, when traced, the spans) go to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import checker
import reference
import workloads
from tracer import SYNTH_ROOT, TOOLS_ROOT, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
REFERENCE_SHARE = 0.05  # reference-task CPU time per unit of workload CPU time

UNMEASURED = (
    "blocks (classify_positions is under 0.1% of synthesis; it counts in synthesis.self_s)",
    "cli (argument parsing around the same calls)",
)


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


def import_blocksynth():
    src = ROOT / "src"
    package = src / "blocksynth"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no blocksynth package under {src}")
    sys.path.insert(0, str(src))
    import blocksynth

    if Path(blocksynth.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported blocksynth from {blocksynth.__file__}, not {package}")
    return blocksynth


def setup(workload: str, seed: int):
    """Import, build the corpus and warm up; returns (bs, maps, seconds).

    The width-3 warm-up fills the two-bit endgame table, a one-time cost.
    """
    t0 = process_time()
    bs = import_blocksynth()
    maps = workloads.build(bs, ROOT, workload, seed)
    bs.synthesize(bs.sample(3, 0))
    return bs, maps, process_time() - t0


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def plain(name, fn, *args):
    return fn(*args)


def tools(bs, perm, seq, call):
    """What `blocksynth verify`, `cost` and `expand` do with an emitted circuit."""
    text = call("io_formats.format_real", bs.format_real, seq)
    reread = call("io_formats.read_real", bs.read_real, text)
    ok = call("core.tools_verify", bs.verify_identity, perm, reread)
    call("cost.count", bs.toffoli_count, reread)
    call("cost.count", bs.quantum_cost, reread)
    expanded = call("cost.expand", bs.expand_mct, reread, "clean")
    return text, reread, ok, expanded


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """Per-map records and timings of one workload run."""

    def __init__(self, bs, maps):
        self.bs = bs
        self.maps = maps
        self.configs = {c: workloads.synthesis_config(bs, c) for c in {s.config for s, _ in maps}}
        self.records: list[dict | None] = [None] * len(maps)
        self.synth_t: list[list[float]] = [[] for _ in maps]
        self.tools_t: list[list[float]] = [[] for _ in maps]
        self.units: list[float] = []  # per pass: median time of the reference task

    def live(self):
        for i, (spec, perm) in enumerate(self.maps):
            rec = self.records[i]
            if rec is None or not rec["problems"]:
                yield i, spec, perm

    def fail(self, i: int, problem: str) -> None:
        spec = self.maps[i][0]
        if self.records[i] is None:
            self.records[i] = {"name": spec.name, "width": spec.width, "problems": []}
        self.records[i]["problems"].append(problem)

    def timed_pass(self, clock=process_time) -> None:
        """One untraced pass, timing each map's synthesis and tools with ``clock``."""
        bs = self.bs
        ref = [reference.seconds(clock)]
        work = 0.0
        for i, spec, perm in list(self.live()):
            try:
                t0 = clock()
                seq, report = bs.synthesize(perm, self.configs[spec.config])
                t1 = clock()
                text, reread, ok, expanded = tools(bs, perm, seq, plain)
                t2 = clock()
            except Exception as exc:  # a failing map must not stop the workload
                self.fail(i, f"{type(exc).__name__}: {exc}")
                continue
            self.synth_t[i].append(t1 - t0)
            self.tools_t[i].append(t2 - t1)
            work += t2 - t0
            while sum(ref) < REFERENCE_SHARE * work:
                ref.append(reference.seconds(clock))
            if self.records[i] is None:
                self.records[i] = self.record(spec, perm, seq, report, text, reread, ok, expanded)
            elif digest(text) != self.records[i]["sha256"]:
                self.fail(i, "circuit changed between passes")
        self.units.append(statistics.median(ref))

    def record(self, spec, perm, seq, report, text, reread, ok, expanded) -> dict:
        problems = checker.problems(self.bs, perm, seq, report, reread)
        if not ok:
            problems.append("verify_identity rejected the re-read circuit")
        return {
            "name": spec.name,
            "seed": spec.seed,
            "width": spec.width,
            "kind": spec.kind,
            "config": spec.config,
            "toffoli": report.toffoli_total,
            "gates": report.gate_count,
            "quantum_cost": report.quantum_cost_total,
            "lift_toffoli": report.lift_toffoli,
            "region_lifts": report.region_lifts,
            "real_bytes": len(text),
            "expanded_gates": len(expanded.circuit),
            "sha256": digest(text),
            "problems": problems,
        }

    def failed(self) -> int:
        return sum(1 for r in self.records if r is None or r["problems"])

    def ok_records(self) -> list[dict]:
        return [r for r in self.records if r is not None and not r["problems"]]

    def median_sum(self, times: list[list[float]], per_unit: bool = False) -> float:
        """Sum over passing maps of the median across passes, in seconds or units.

        A passing map ran in every pass, so its p-th time is from pass p.
        """
        scale = self.units if per_unit else [1.0] * len(self.units)
        return sum(statistics.median(x / u for x, u in zip(t, scale))
                   for t, r in zip(times, self.records)
                   if t and r is not None and not r["problems"])

    def save(self, path: Path, extra: dict) -> None:
        for rec, synth, tools_ in zip(self.records, self.synth_t, self.tools_t):
            if rec is not None:
                rec["synth_s"], rec["tools_s"] = synth, tools_
        OUT.mkdir(exist_ok=True)
        doc = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "reference_s": self.units,
            **extra,
            "maps": self.records,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def end_to_end(run: Run, setup_times: list[float], seconds: float) -> dict:
    deadline = perf_counter() + seconds
    passes = 0
    while True:
        start = perf_counter()
        run.timed_pass()
        passes += 1
        if 2 * perf_counter() - start > deadline:
            break
    recs = run.ok_records()
    print(f"passes: {passes}, reference task {statistics.median(run.units):.6f} s")
    print(f"synth CPU {run.median_sum(run.synth_t)} s, tools CPU {run.median_sum(run.tools_t)} s")
    return {
        "synth_ref": run.median_sum(run.synth_t, per_unit=True),
        "tools_ref": run.median_sum(run.tools_t, per_unit=True),
        "toffoli_total": sum(r["toffoli"] for r in recs),
        "quantum_cost_total": sum(r["quantum_cost"] for r in recs),
        "gate_count_total": sum(r["gates"] for r in recs),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, args) -> dict:
    run.timed_pass(perf_counter)  # wall time, like the tracer's spans
    untraced = {i: run.synth_t[i][0] for i, _, _ in run.live()}
    bs, tracer = run.bs, Tracer()
    lifts = lift_toffoli = real_bytes = expanded_gates = 0
    tracer.install(bs)
    try:
        for i, spec, perm in list(run.live()):
            cfg = run.configs[spec.config]
            try:
                seq, report = tracer.root(SYNTH_ROOT, i, bs.synthesize, perm, cfg)
                text, _, _, expanded = tracer.root(TOOLS_ROOT, i, tools, bs, perm, seq, tracer.call)
            except Exception as exc:
                run.fail(i, f"traced: {type(exc).__name__}: {exc}")
                continue
            if digest(text) != run.records[i]["sha256"]:
                run.fail(i, "traced circuit differs from the untraced one")
            lifts += report.region_lifts
            lift_toffoli += report.lift_toffoli
            real_bytes += len(text)
            expanded_gates += len(expanded.circuit)
    finally:
        tracer.restore()
    if tracer.absent:
        print("absent hooks (their layers read 0): " + ", ".join(tracer.absent))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    print(f"spans: {spans_path.relative_to(ROOT)}")

    own, roots = tracer.self_times()
    traced_synth = roots.get(SYNTH_ROOT, 0.0)
    untraced_synth = sum(untraced.values())
    n = tracer.counts
    metrics = {
        "synthesis.select_lookahead_s": own.get("synthesis.select_lookahead", 0.0),
        "synthesis.select_tail_s": own.get("synthesis.select_tail", 0.0),
        "synthesis.select_calls": n["synthesis.select_calls"],
        "synthesis.candidates_scored": n["synthesis.candidates_scored"],
        "synthesis.tiebreak_evals": n["synthesis.tiebreak_evals"],
        "synthesis.suffix_nodes": n["synthesis.suffix_nodes"],
        "synthesis.peephole_s": own.get("synthesis.peephole", 0.0),
        "synthesis.peephole_removed": n["synthesis.peephole_removed"],
        "synthesis.two_bit_s": own.get("synthesis.two_bit", 0.0),
        "synthesis.self_s": own.get(SYNTH_ROOT, 0.0),
        "reduction.reduce_self_s": own.get("reduction.reduce", 0.0),
        "reduction.emit_s": own.get("reduction.emit", 0.0),
        "reduction.emit_calls": n["reduction.emit_calls"],
        "reduction.region_lifts": lifts,
        "reduction.lift_toffoli": lift_toffoli,
        "conditioning.mix_s": own.get("conditioning.mix", 0.0),
        "conditioning.mix_evaluations": n["conditioning.mix_evaluations"],
        "conditioning.mix_fixups": n["conditioning.mix_fixups"],
        "conditioning.preprocess_s": own.get("conditioning.preprocess", 0.0),
        "core.verify_s": own.get("core.verify", 0.0),
        "core.verify_column_visits": n["core.verify_column_visits"],
        "core.tools_verify_s": own.get("core.tools_verify", 0.0),
        "cost.count_s": own.get("cost.count", 0.0),
        "cost.expand_s": own.get("cost.expand", 0.0),
        "cost.expanded_gates": expanded_gates,
        "io_formats.format_real_s": own.get("io_formats.format_real", 0.0),
        "io_formats.read_real_s": own.get("io_formats.read_real", 0.0),
        "io_formats.real_bytes": real_bytes,
        "trace.synth_s": traced_synth,
        "trace.overhead": traced_synth / untraced_synth if untraced_synth else 0.0,
        "trace.coverage": 1 - own.get(SYNTH_ROOT, 0.0) / traced_synth if traced_synth else 0.0,
        "trace.spans": len(tracer.spans),
    }
    layers = sorted(((v, k) for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace.") and k != "synthesis.self_s"),
                    reverse=True)
    print("largest self times: " + ", ".join(f"{k} {v:.3f}s" for v, k in layers[:4]))
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up seconds")
    return p.parse_args(argv)


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        units = declared_units("per_layer" if args.trace else "end_to_end")
        bs, maps, first_setup = setup(args.workload, args.seed)
    except (SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    run = Run(bs, maps)
    print(f"workload {args.workload} seed {args.seed}: {len(maps)} maps, "
          f"python {platform.python_version()}, {os.cpu_count()} cpus")
    if args.trace:
        values = per_layer(run, args)
    else:
        setup_times = [first_setup] + [
            setup_in_fresh_interpreter(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values = end_to_end(run, setup_times, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    records_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run.save(records_path, {"workload": args.workload, "seed": args.seed, "trace": args.trace})
    failed = run.failed()
    for rec in run.records:
        for problem in (rec or {}).get("problems", ()):
            print(f"FAILED {rec['name']}: {problem}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_ratio {failed}/{len(maps)} = {failed / len(maps)}")
    print("unmeasured layers: " + "; ".join(UNMEASURED))
    print(f"records: {records_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(maps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
