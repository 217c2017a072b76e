"""End-to-end ledger: one command for every workload, metric and check.

    python3 benchmarks/e2e/run.py                       # whole ledger -> results/e2e.json
    python3 benchmarks/e2e/run.py --repeat-check        # ledger twice, compared
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the process *is* the workload: it sets up (three times,
``setup_s`` is the median), runs the closed loop for ``--seconds`` (or exactly
``--ops`` ops), checks every op against the dense oracle and prints one
``name value unit kind`` line per metric followed by the result object.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps every op in
spans, replays it stage by stage (``replay.py``) and reports the per-layer
metrics.  Without ``--workload`` each workload runs in a subprocess of its
own, so ``peak_rss_mb`` and every cache start clean.

BLAS is pinned to one thread before NumPy is imported; ``REPRO_BENCH_SCALE``
is not read.
"""

from __future__ import annotations

import os

import metrics  # this directory is sys.path[0]; imports neither numpy nor repro

for _name in metrics.BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Ops of the traced pass of the whole-ledger run (stage medians over fewer
#: than ~6 ops are dominated by host noise; md needs three of its patch steps).
TRACED_OPS = {"served_water32": 12, "md_water128": 9}
DEFAULT_TRACED_OPS = 6
DEFAULT_SECONDS = 8.0


def _import_engine():
    """Put ``src/`` on the path and import the workloads; returns the seconds."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: the engine sources are missing under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and repro)

    return time.perf_counter() - start


def _write_json(name: str, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


# --------------------------------------------------------------------------- #
# one workload, in this process
# --------------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, ops, trace: int, import_s: float) -> dict:
    from spans import Recorder
    from workloads import WORKLOADS, Budget

    workload = WORKLOADS[name](seed)
    # each part of a set-up is calibrated by the host samples next to it
    raw_setups, setups = [], []
    speed = workload.speed
    speed.start()
    for rep in range(1 if trace else SETUP_REPS):
        if rep:
            workload.close()
        start = time.perf_counter()
        workload.make_inputs()
        built = time.perf_counter()
        build_s = (built - start) / speed.factor()
        opening = time.perf_counter()
        workload.open()
        opened = time.perf_counter()
        setups.append(build_s + (opened - opening) / speed.factor())
        raw_setups.append(built - start + opened - opening)
    dense_s = workload.make_oracle() / speed.factor()

    recorder = Recorder() if trace else None
    try:
        log, ledger = workload.run(Budget(seconds, ops), recorder)
    finally:
        workload.close()

    if not log.samples:
        sys.exit(f"run.py: no op of {name} completed: {log.failures[:3]}")
    accuracy = {
        key: statistics.median(log.errors(key) or [0.0])
        for key in (
            "energy_error_mev_per_atom", "density_max_abs_error", "electron_count_error",
        )
    }
    summaries = {
        "wall_s": metrics.summarize(log.calibrated),
        "raw_wall_s": metrics.summarize(log.samples),
        "host_slowdown_factor": metrics.summarize(log.factors),
    }
    if trace:
        ledger["chem.build_matrices_s"] = build_s
        ledger["chem.reference_dense_s"] = dense_s
        ledger["host.slowdown_factor"] = summaries["host_slowdown_factor"]["median"]
        if ledger.get("signfn.eigh_s"):
            ledger["signfn.eigh_gflops"] = (
                ledger["signfn.eigh_flops"] / ledger["signfn.eigh_s"] / 1e9
            )
        ledger.update({f"accuracy.{key}": value for key, value in accuracy.items()})
        # a layer the workload bypasses did no work: 0 seconds, 0 counts
        values = {key: float(ledger.get(key, 0.0)) for key in metrics.PER_LAYER_NAMES}
    else:
        summaries["setup_s"] = metrics.summarize(setups)
        summaries["raw_setup_s"] = metrics.summarize(raw_setups)
        values = {
            "wall_s": summaries["wall_s"]["median"],
            "throughput_ops_s": len(log.samples) / log.busy_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": summaries["setup_s"]["median"],
        }
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "ops": ops,
        "import_s": import_s,
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures[:5],
        "summaries": summaries,
        "raw_samples": log.samples,
        "factors": log.factors,
        "accuracy": accuracy,
        "metrics": {
            key: {"value": value, "unit": metrics.UNIT[key], "kind": metrics.KIND[key]}
            for key, value in values.items()
        },
        "env": metrics.env_stamp(ROOT),
    }
    _write_json(f"run_{name}_t{trace}.json", record)
    if trace:
        recorder.dump(
            RESULTS / f"e2e_trace_{name}.json",
            header={"workload": name, "seed": seed, "env": record["env"]},
        )
    return record


def print_record(record: dict) -> None:
    """Metric lines for people, then the result object as the last line."""
    for key, entry in record["metrics"].items():
        print(f"{key} {entry['value']!r} {entry['unit']} {entry['kind']}")
    for reason in record["failures"]:
        print(f"FAILED {record['workload']}: {reason}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    key: {"value": entry["value"], "unit": entry["unit"]}
                    for key, entry in record["metrics"].items()
                },
            }
        )
    )


# --------------------------------------------------------------------------- #
# the whole ledger, one subprocess per workload
# --------------------------------------------------------------------------- #
def _spawn(name: str, seed: int, ops: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--ops", str(ops), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
    path = RESULTS / f"run_{name}_t{trace}.json"
    if done.returncode not in (0, 1) or not path.is_file():
        sys.exit(f"run.py: {' '.join(command)} exited with {done.returncode}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_untraced_set(names, seed: int, ops) -> dict:
    from workloads import WORKLOADS

    records = {}
    for name in names:
        records[name] = _spawn(name, seed, ops or WORKLOADS[name].ledger_ops, 0)
        print_table_rows(records[name])
    return records


def print_table_rows(record: dict) -> None:
    name = record["workload"]
    flag = "ok" if record["correct"] else f"FAILED {record['failed']}/{record['attempted']}"
    print(f"== {name}  trace={record['trace']}  ops={record['attempted']}  {flag}")
    for key, entry in record["metrics"].items():
        extra = ""
        summary = record["summaries"].get(key)
        if summary:
            extra = f"  n={summary['n']} q25={summary['q25']:.6g} q75={summary['q75']:.6g}"
        print(f"   {key:40s} {entry['value']:<14.6g} {entry['unit']:9s} {entry['kind']}{extra}")
    for reason in record["failures"]:
        print(f"   ! {reason}")
    sys.stdout.flush()


def run_ledger(names, seed: int, ops) -> int:
    untraced = run_untraced_set(names, seed, ops)
    traced = {}
    for name in names:
        traced_ops = ops or TRACED_OPS.get(name, DEFAULT_TRACED_OPS)
        traced[name] = _spawn(name, seed, traced_ops, 1)
        wall = untraced[name]["metrics"]["wall_s"]["value"]
        traced[name]["trace_overhead_fraction"] = (
            traced[name]["summaries"]["wall_s"]["median"] - wall
        ) / wall
        print_table_rows(traced[name])
        print(f"   trace_overhead_fraction {traced[name]['trace_overhead_fraction']:.4f}")
    _write_json("e2e.json", {"seed": seed, "untraced": untraced, "traced": traced})
    print(f"wrote {RESULTS / 'e2e.json'}")
    records = list(untraced.values()) + list(traced.values())
    return 0 if all(record["correct"] for record in records) else 1


def run_repeat_check(names, seed: int, ops) -> int:
    """The same code twice: every end-to-end pair must agree within its bound."""
    first = run_untraced_set(names, seed, ops)
    second = run_untraced_set(names, seed, ops)
    status = 0
    for name in names:
        for metric in metrics.END_TO_END:
            key, bound = metric["name"], metric["bound"]
            a = first[name]["metrics"][key]["value"]
            b = second[name]["metrics"][key]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= bound else "DIFFERS"
            if verdict != "ok":
                status = 1
            print(f"{name:22s} {key:28s} {a:<14.6g} {b:<14.6g} {worse:+.3%} (bound {bound:.0%}) {verdict}")
    _write_json("e2e_repeat.json", {"seed": seed, "first": first, "second": second})
    if not all(r["correct"] for r in list(first.values()) + list(second.values())):
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--ops", type=int, help="exact op count (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)

    import_s = _import_engine()
    from workloads import WORKLOADS

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        record = run_workload(
            args.workload, args.seed, args.seconds, args.ops, args.trace, import_s
        )
        print_record(record)
        return 0 if record["correct"] else 1
    names = list(WORKLOADS)
    if args.repeat_check:
        return run_repeat_check(names, args.seed, args.ops)
    return run_ledger(names, args.seed, args.ops)


if __name__ == "__main__":
    sys.exit(main())
