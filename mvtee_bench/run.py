"""Run one benchmark workload against the program in ``./src``.

Run from the repository root::

    python3 mvtee_bench/run.py --workload serve-selective-inproc --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's layers in timing spans and prints the per-layer metrics
instead, writing the spans to ``mvtee_bench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed check is reported on standard
error and makes the exit code 1; a checkout without ``src/repro``
exits with 2 and prints no result.
"""

import time

# Set-up time counts from here, before numpy and the program are imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

#: metric -> unit, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "req/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
#: Per-layer metric -> unit.
PER_LAYER_UNITS = {
    "serving.queue_wait_p50_s": "s",
    "serving.batch_size_mean": "requests",
    "serving.engine_self_s": "s",
    "serving.dispatch_self_s": "s",
    "mvx.run_self_s": "s",
    "mvx.stage_self_s": "s",
    "mvx.roundtrip_s": "s",
    "mvx.vote_s": "s",
    "channel.protect_s": "s",
    "channel.open_s": "s",
    "channel.mib_per_request": "MiB",
    "crypto.seal_1kib_s": "s",
    "crypto.seal_64kib_s": "s",
    "crypto.seal_1mib_s": "s",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "transport.exchange_self_s": "s",
    "host.handle_self_s": "s",
    "runtime.run_s": "s",
    "observability.recorder_s": "s",
    "loadgen.lag_p90_s": "s",
    "setup.partition_s": "s",
    "setup.variants_s": "s",
    "setup.bootstrap_s": "s",
    "setup.cluster_start_s": "s",
}


def _import_program() -> bool:
    """Import ``repro`` from ``./src``; False if this checkout has none."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    from workloads import WORKLOADS  # numpy only; the program comes later

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2

    import checks
    import spans
    import numpy as np
    from stats import tail_percentile
    from workloads import Deployment, drive, end_to_end

    workload = WORKLOADS[args.workload]
    problems: list[str] = []
    recorder = None
    seal_metrics: dict[str, float] = {}
    if args.trace:
        from sealfloor import seal_floor

        seal_metrics, seal_problems = seal_floor(args.seed)
        problems += seal_problems
        recorder = spans.install(spans.SpanRecorder())
    shm_before = checks.shm_entries()
    try:
        deployment = Deployment(workload)
        setup_s = time.perf_counter() - _STARTED
        try:
            if not deployment.sleep_free():
                problems.append("a variant host adds simulated latency")
            outcome = drive(
                deployment,
                args.seed,
                args.seconds,
                before_measure=recorder.mark if recorder is not None else None,
            )
        finally:
            deployment.close()
    finally:
        if recorder is not None:
            recorder.remove()
    problems += checks.leftover_problems(shm_before)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += [f"request failed: {error}" for error in outcome.errors]
    problems += checks.output_problems(deployment.model, outcome.served)
    problems += checks.benign_problems(deployment, outcome.attempted)

    samples = len(outcome.latencies)
    tail = tail_percentile(samples)
    print(
        f"{workload.name}: {outcome.attempted} requests ({outcome.measured} measured, "
        f"{outcome.failed} failed); {samples} latency samples support "
        + (f"percentiles up to p{tail}" if tail else "the median only")
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    if recorder is not None:
        metrics = spans.layer_metrics(recorder, outcome.measured)
        metrics.update(seal_metrics)
        metrics["loadgen.lag_p90_s"] = float(np.percentile(outcome.lags, 90))
        metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        count = recorder.write(OUT_DIR / f"trace-{stem}.jsonl")
        print(f"{count} spans written to {OUT_DIR / f'trace-{stem}.jsonl'}")
    else:
        metrics = end_to_end(outcome, setup_s, peak_rss_mib)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = dict(result, latencies_s=outcome.latencies, lags_s=outcome.lags)
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
