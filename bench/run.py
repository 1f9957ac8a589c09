#!/usr/bin/env python3
"""freedec benchmark: one workload, timed end to end or traced layer by layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; freedec is imported from ``src/``.
With ``--trace 0`` the operations run in whole rounds until ``--seconds``
have passed (after one untimed warm-up) and the last line of standard
output is a JSON object with the end-to-end metrics; their times are scaled
to a reference speed of the machine by a calibration loop sampled while the
rounds run (``speed.py``).  With ``--trace 1``
one untraced round is followed by one traced round; their outputs must be
bit-identical, and the JSON carries the per-layer metrics.  See README.md.
"""

import os
import sys

# One thread for every native pool; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FREEDEC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("mp_x32", "law_oracle", "pade_exact")
IMPORT_REPEATS = 5  # child processes timing ``import freedec`` for setup_s
_clock = time.perf_counter


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the independent units of a round")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_round(plan, operations, tracer, calibration):
    """Run every operation once: name -> (seconds, Verdict).

    An operation that raises, or whose output cannot be checked, gets the
    scores of an all-zero estimate (``Operation.failure``).  Time spent in
    calibration samples during an operation is not counted in its time.
    """
    if plan.before_round is not None:
        plan.before_round()
    out = {}
    for op in operations:
        start, spent = _clock(), calibration.spent
        try:
            output = op.run(tracer)
        except Exception as exc:  # an operation failing is a result, not a crash
            elapsed = _clock() - start - (calibration.spent - spent)
            out[op.name] = (elapsed, op.failure(f"{type(exc).__name__}: {exc}"))
            continue
        elapsed = _clock() - start - (calibration.spent - spent)
        try:
            verdict = op.check(output)
        except Exception as exc:
            verdict = op.failure(f"{type(exc).__name__}: {exc}")
        out[op.name] = (elapsed, verdict)
    return out


def _import_seconds(src):
    """Median over child processes of the time ``import freedec`` takes in each."""
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import time; t = time.perf_counter(); import freedec; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _measure(args, import_s, workdir):
    import reference
    import speed
    import tracing
    import workloads

    problems = [f"reference self-test: {p}" for p in reference.self_test()]
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    build = workloads.WORKLOADS[args.workload]
    with tracer.installed():
        plan = build(ROOT, workdir)
    random.Random(args.seed).shuffle(plan.units)
    operations = [op for unit in plan.units for op in unit]
    plan.warmup(tracing.NullTracer())
    calibration = speed.Calibration()

    if args.trace:
        if plan.probe is not None:
            plan.probe(tracer)
        untraced = _run_round(plan, operations, tracing.NullTracer(), calibration)
        with tracer.installed():
            traced = _run_round(plan, operations, tracer, calibration)
        rounds = [untraced, traced]
        for name, (_, verdict) in traced.items():
            if verdict.fingerprint != untraced[name][1].fingerprint:
                problems.append(f"{name}: traced output differs from the untraced output")
        tracer.add("trace.overhead_s", sum(t for t, _ in traced.values())
                   - sum(t for t, _ in untraced.values()))
        metrics = tracing.layer_report(tracer.totals)
    else:
        rounds = []
        start = _clock()
        with calibration.running():
            while not rounds or _clock() - start < args.seconds:
                rounds.append(_run_round(plan, operations, tracer, calibration))
        for name, (_, verdict) in rounds[0].items():
            if any(r[name][1].fingerprint != verdict.fingerprint for r in rounds[1:]):
                problems.append(f"{name}: output changed between rounds")
        last = rounds[-1]
        wall = {
            "setup_s": import_s + plan.inputs_s,
            "pipeline_s": sum(statistics.median(r[op.name][0] for r in rounds)
                              for op in operations),
        }
        scale = calibration.scale()
        print(f"wall seconds: setup {wall['setup_s']:.4f}, pipeline {wall['pipeline_s']:.4f}; "
              f"calibration median {statistics.median(calibration.samples):.5f} s "
              f"over {len(calibration.samples)} samples, scale {scale:.4f}")
        metrics = {
            "setup_s": wall["setup_s"] * scale,
            "pipeline_s": wall["pipeline_s"] * scale,
            "tv": statistics.fmean(last[op.name][1].tv for op in operations if op.scored_tv),
            "logdet_err": statistics.fmean(last[op.name][1].logdet_err
                                           for op in operations if op.scored_logdet),
        }
        units = {"setup_s": "s", "pipeline_s": "s", "tv": "1", "logdet_err": "1"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    failed = 0
    for op in operations:
        seconds, verdict = rounds[-1][op.name]
        known = workloads.KNOWN_FAULTS.get((args.workload, op.name))
        status = "ok" if not verdict.errors else ("FAILED (known fault)" if known else "FAILED")
        tv = "" if verdict.tv is None else f" tv={verdict.tv:.5f}"
        ld = "" if verdict.logdet_err is None else f" logdet_err={verdict.logdet_err:.5f}"
        print(f"{args.workload} {op.name}: {seconds:.3f}s{tv}{ld} {status} {'; '.join(verdict.errors)}")
        for r in rounds:
            if r[op.name][1].errors:
                failed += 1
                if not known:
                    problems.append(f"{op.name}: {'; '.join(r[op.name][1].errors)}")
    for line in dict.fromkeys(problems):
        print("problem:", line)
    return {
        "correct": not problems,
        "attempted": len(rounds) * len(operations),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "freedec", "__init__.py")):
        print(f"bench: no freedec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import freedec  # noqa: F401  (first, so the children below find compiled bytecode)

    import_s = _import_seconds(src)
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        result = _measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
