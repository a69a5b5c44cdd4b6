#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

Two ways in, one code path:

* ``python3 yardstick/run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload once and prints every metric it measured as
  ``name value unit`` lines, then, as the last line, one JSON object
  with the metrics ``BENCHMARK.json`` names (end-to-end for ``--trace
  0``, per-layer for ``--trace 1``).  Exit code 1 if any request or
  correctness check failed.
* ``python3 yardstick/run.py [--workload W] [--seed N] [--traced]
  [--quick] [--repeat R --check-agreement]`` runs the above in child
  processes for every workload (or the one named), so each gets a clean
  process for its memory and set-up figures.

See ``yardstick/README.md`` for what each workload and metric means.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve_warm", "serve_churn", "offline_sweep",
             "engine_discovery")

#: ``--quick`` measures each workload for this long (small sizing).
QUICK_SECONDS = 5


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_one(args):
    """One workload, once, in this process."""
    import importlib

    from context import Context
    import spans

    # The configuration under test is fixed: no inherited knob applies.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Importing the program is part of every run's set-up time.
    importlib.import_module("repro")

    contract = load_contract()
    module = importlib.import_module(f"w_{args.workload}")
    ctx = Context(ROOT, args.workload, args.seed, args.seconds,
                  bool(args.trace), STARTED)
    try:
        module.run(ctx)
    finally:
        ctx.cleanup()
    report = ctx.report
    if report.attempted < 1:
        raise RuntimeError("workload attempted nothing")
    report.put("failed_share", report.failed / report.attempted, "ratio")
    if ctx.traced:
        tag = f"{args.workload}-seed{args.seed}"
        ctx.recorder.write_jsonl(ctx.out_path(f"spans-{tag}.jsonl"))
        for name, row in sorted(spans.summarize(ctx.recorder.spans).items()):
            report.put(f"span.{name}.count", row["count"], "count")
            report.put(f"span.{name}.self_s", row["self_s"], "s")

    for name, (value, unit) in sorted(report.metrics.items()):
        print(f"{name} {value!r} {unit}")
    for line in report.failures:
        print(f"FAILED {line}", file=sys.stderr)

    wanted = contract["per_layer" if ctx.traced else "end_to_end"]
    metrics = {}
    for spec in wanted:
        if spec["name"] in report.metrics:
            value = report.metrics[spec["name"]][0]
        elif ctx.traced:
            value = 0.0  # a layer this workload does not exercise
        else:
            raise RuntimeError(f"{args.workload} did not measure "
                               f"{spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    result = {"correct": report.failed == 0, "attempted": report.attempted,
              "failed": report.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  all_metrics={k: {"value": v, "unit": u}
                               for k, (v, u) in report.metrics.items()},
                  failures=report.failures)
    path = ctx.out_path(f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if report.failed == 0 else 1


def _child(workload, seed, seconds, trace):
    """Run one workload in a child process; its final JSON object."""
    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}",
          flush=True)
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout)
        result = None
    if done.returncode != 0 or result is None:
        print(f"!! {workload} exited {done.returncode}", flush=True)
        return None
    print(f"-- correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", flush=True)
    return result


def disagreements(contract, first, second):
    """End-to-end metrics of two result sets further apart than the
    metric's own bound, as printable lines."""
    lines = []
    for workload in first:
        for spec in contract["end_to_end"]:
            a = first[workload]["metrics"][spec["name"]]["value"]
            b = second[workload]["metrics"][spec["name"]]["value"]
            apart = abs(a - b) / min(abs(a), abs(b))
            if apart > spec["bound"]:
                lines.append(f"{workload} {spec['name']}: {a!r} vs {b!r} "
                             f"differ by {apart:.3f} > {spec['bound']}")
    return lines


def orchestrate(args):
    contract = load_contract()
    names = [args.workload] if args.workload else list(WORKLOADS)
    seconds = (QUICK_SECONDS if args.quick
               else args.seconds or contract["run_seconds"])
    ok = True
    sets = []
    for repeat in range(args.repeat):
        results = {}
        for name in names:
            results[name] = _child(name, args.seed, seconds, 0)
            if args.traced:
                ok &= _child(name, args.seed, seconds, 1) is not None
        ok &= all(r is not None for r in results.values())
        sets.append(results)
        with open(os.path.join(HERE, "out", f"result-set{repeat}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
    if args.check_agreement and ok:
        for later in sets[1:]:
            for line in disagreements(contract, sets[0], later):
                print(f"DISAGREE {line}")
                ok = False
        print("agreement: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process: 0 = "
                        "end-to-end metrics, 1 = traced, per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="after each workload, run it again traced")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s per workload, small sizing")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-agreement", action="store_true",
                        help="fail if two result sets differ by more "
                        "than a metric's bound")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload or not args.seconds:
            parser.error("--trace needs --workload and --seconds")
        import procs

        # A SIGTERM unwinds like any other way out, through the workloads'
        # ``finally`` blocks that stop the server.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        try:
            return run_one(args)
        finally:
            procs.stop_children()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
