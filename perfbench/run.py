"""Run one benchmark workload against the diachrona sources of this checkout.

    python3 perfbench/run.py --workload collocates --seed 1 --seconds 10 --trace 0

Workloads: collocates, diachronic, cli-lifecycle (see perfbench/README.md).
One process, one caller thread, closed loop: each operation starts when the
previous one has returned.  After set-up the workload's fixed operation
list runs in whole rounds until ``--seconds`` of rounds have elapsed.
First-round results are checked against the reference counters; every
later round (traced or not) must repeat the first round's output bytes.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  A line before it summarises the
per-class latencies.  Failed checks are listed on stderr and reported as
``"correct": false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "diachrona", "__init__.py")):
        sys.exit(f"perfbench: no diachrona sources under {SRC}")
    # the benchmark's BLAS calls stay on the caller thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [SRC, BENCH_DIR]
    import diachrona

    if os.path.dirname(os.path.dirname(os.path.abspath(diachrona.__file__))) != SRC:
        sys.exit(f"perfbench: imported diachrona from {diachrona.__file__}, not {SRC}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
        work_root: str = WORK_ROOT) -> dict:
    """Set up, run whole rounds, check; return the result record.  ``sizes``
    shrinks the generated inputs (the benchmark's tests use toy sizes)."""
    import workloads  # numpy and diachrona load here, after main() set up the environment
    from calibration import Calibration

    work = os.path.join(work_root, f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    wl = workloads.WORKLOADS[workload_name](workload_name, seed, work)
    tracer = tracing.Tracer() if trace else None
    cal = Calibration()
    began = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        wl.setup(cal, tracer, **(sizes or {}))
        set_up = time.perf_counter()
        if tracer is not None:
            setup_layers = _layer_values(tracer, wl, rounds=0)
            tracer.reset()
        wl.build_ops()
        rounds = _run_rounds(wl, seconds, tracer, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = time.perf_counter()
        problems = _check(wl, rounds)
        print(f"perfbench: wall time: set-up {set_up - began:.1f} s, rounds {measured - set_up:.1f} s, "
              f"checks {time.perf_counter() - measured:.1f} s", file=sys.stderr)
        if tracer is not None:
            wl.describe()
            tracer.write(os.path.join(work_root, f"spans-{workload_name}-{seed}.tsv"))
    finally:
        if tracer is not None:
            tracer.uninstall()
        _clear(work)

    plain = [r for r in rounds if not r["traced"]]
    per_op = {op.name: statistics.median(r["latency"][i] for r in plain) for i, op in enumerate(wl.ops)}
    record = {
        "output_digest": hashlib.sha256(b"".join(out or b"" for out in rounds[0]["outputs"])).hexdigest(),
        "correct": not problems,
        "attempted": sum(len(r["latency"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": problems,
        "summary": _summary(wl, per_op),
    }
    if tracer is None:
        setup_s = statistics.median(sum(cal.rescaled(s) for s in rep) for rep in wl.setup_steps)
        metrics = _end_to_end(setup_s, peak_rss_mb, plain, per_op)
    else:
        metrics = _per_layer(tracer, wl, setup_layers, rounds)
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return record


def _end_to_end(setup_s: float, peak_rss_mb: float, plain: list[dict], per_op: dict) -> dict:
    throughput = [(len(r["latency"]) - r["failed"]) / r["wall"] for r in plain]
    gmean = math.exp(statistics.fmean(math.log(m) for m in per_op.values()))
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (statistics.median(throughput), "ops/s"),
        "op_gmean_ms": (1000.0 * gmean, "ms"),
    }


def _per_layer(tracer, wl, setup_layers: dict, rounds: list[dict]) -> dict:
    """Layer values of the set-up plus one traced round (the mean of the
    traced rounds), and the tracing overhead per round."""
    traced = [r for r in rounds if r["traced"]]
    values = dict(setup_layers)
    for key, value in _layer_values(tracer, wl, rounds=len(traced)).items():
        values[key] = values.get(key, 0.0) + value
    saved_tokens = values.pop("indexio.saved_tokens")
    saved_bytes = values.pop("indexio.saved_bytes")
    values["indexio.bytes_per_token"] = saved_bytes / saved_tokens if saved_tokens else 0.0
    lines = wl.token_lines
    values["ingest.retained_ratio"] = values["ingest.tokens"] / lines if lines else 0.0
    values["trace.overhead_s"] = (
        statistics.fmean(r["wall"] for r in traced) - statistics.fmean(r["wall"] for r in rounds if not r["traced"])
    )
    return {key: (values[key], PER_LAYER_UNITS[key]) for key in sorted(values)}


def _run_rounds(wl, seconds: float, tracer, cal) -> list[dict]:
    """Whole rounds until ``seconds`` of wall-clock time have elapsed (at
    least one); with a tracer, rounds alternate untraced / traced and both
    kinds run."""
    rounds: list[dict] = []
    clock = time.perf_counter
    begin = clock()
    while not rounds or clock() - begin < seconds or (tracer is not None and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        steps, results, failed = [], [], 0
        cal.mark()
        for op in wl.ops:
            if tracer is not None:
                tracer.op = op.name
                tracer.enabled = traced
            start = clock()
            try:
                result = op.run()
                ok = op.ok(result)
            except Exception as exc:  # a failing operation is counted, not fatal
                if not rounds:
                    print(f"perfbench: {op.name} failed: {exc!r}", file=sys.stderr)
                result, ok = exc, False
            spent = clock() - start
            if tracer is not None:
                tracer.enabled = False
            steps.append(cal.step(spent, wl.speed))
            results.append(result if ok else None)
            failed += not ok
        outputs = [None if r is None else wl.output(op, r) for op, r in zip(wl.ops, results)]
        rounds.append({
            "steps": steps, "failed": failed, "traced": traced,
            "outputs": outputs, "results": results if not rounds else None,
        })
    for r in rounds:  # rescale once every calibration sample is in
        r["latency"] = [cal.rescaled(step) for step in r["steps"]]
        r["wall"] = sum(r["latency"])
    return rounds


def _check(wl, rounds) -> list[str]:
    """First-round results against the reference; later rounds must repeat
    the first round's output bytes."""
    from checks import CheckFailure

    problems = []
    first = rounds[0]
    for i, op in enumerate(wl.ops):
        if first["results"][i] is None:
            continue
        try:
            op.check(first["results"][i])
        except CheckFailure as exc:
            problems.append(f"{op.name}: {exc}")
        for n, r in enumerate(rounds[1:], start=2):
            if r["outputs"][i] != first["outputs"][i]:
                kind = "traced " if r["traced"] else ""
                problems.append(f"{op.name}: {kind}round {n} output differs from round 1")
    return problems


def _summary(wl, per_op: dict) -> dict:
    """Median latency per operation class (mean over the class's operations
    of each operation's median)."""
    by_class: dict[str, list[float]] = {}
    for op in wl.ops:
        by_class.setdefault(op.cls, []).append(per_op[op.name])
    out = {f"{cls}_ms": 1000.0 * statistics.fmean(v) for cls, v in by_class.items()}
    if "build_ms" in out:
        out["build_tokens_per_s"] = len(wl.corpus.lemma) / (out["build_ms"] / 1000.0)
    return out


def _layer_values(tracer, wl, rounds: int) -> dict[str, float]:
    """Layer times and counters, per traced round (or the set-up alone when
    ``rounds`` is 0)."""
    scale = 1.0 / max(rounds, 1)
    charged = tracer.charged()
    values = {key: charged.get(key, 0.0) * scale for key in TIME_KEYS}
    values["corpus.mask_calls"] = tracer.calls(tracing.MASK_CALLS) * scale
    for key in ("svgplot.svg_bytes", "ingest.tokens", "indexio.saved_bytes", "indexio.saved_tokens"):
        values[key] = tracer.counters.get(key, 0.0) * scale
    if rounds:
        values["corpus.docset_docs"] = float(sum(op.docs for op in wl.ops))
        values["corpus.docset_tokens"] = float(sum(op.tokens for op in wl.ops))
        values["cooc.pivot_occurrences"] = float(sum(op.occurrences for op in wl.ops))
        for band in ("rare", "common"):
            names = [op.name for op in wl.ops if op.cls == f"top_{band}"]
            occ = sum(op.occurrences for op in wl.ops if op.cls == f"top_{band}")
            busy = sum(charged.get(f"cooc.top_s@{n}", 0.0) for n in names) * scale
            values[f"cooc.{band}_us_per_occurrence"] = 1e6 * busy / occ if occ else 0.0
    return values


TIME_KEYS = sorted(set(tracing.KEYS.values()) | set(tracing.LAYER_KEYS.values()))
PER_LAYER_UNITS = {
    **{key: "s" for key in TIME_KEYS},
    "ingest.tokens": "count",
    "ingest.retained_ratio": "ratio",
    "indexio.bytes_per_token": "B/token",
    "corpus.mask_calls": "count",
    "corpus.docset_docs": "count",
    "corpus.docset_tokens": "count",
    "cooc.pivot_occurrences": "count",
    "cooc.rare_us_per_occurrence": "us",
    "cooc.common_us_per_occurrence": "us",
    "svgplot.svg_bytes": "B",
    "trace.overhead_s": "s",
}


def _clear(work: str) -> None:
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    os.rmdir(work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("collocates", "diachronic", "cli-lifecycle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)
    summary = " ".join(f"{k}={v:.6g}" for k, v in record["summary"].items())
    print(f"# {args.workload} seed={args.seed} attempted={record['attempted']} "
          f"failed={record['failed']} outputs={record['output_digest'][:16]} {summary}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
