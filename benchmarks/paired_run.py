"""Alternating paired runs of one ledger workload: a base revision vs this tree.

    python3 benchmarks/paired_run.py WORKLOAD [--pairs 10] [--base REV] [--ops N] [--seed S]

The ledger's README asks every PR that claims a gain for at least ten
alternating pairs of parent and change.  This script runs them: it extracts
``REV`` (default ``HEAD~1``) into a temporary directory (``git archive``, so
the repository's own metadata is never touched), then runs
``benchmarks/e2e/run.py --workload WORKLOAD --trace 0`` once per side and
pair, each tree running its own copy of the harness against its own ``src/``,
alternating which side goes first.  Per end-to-end metric
(``benchmarks/e2e/metrics.py``) it prints both medians, the base side's
quartiles, how many pairs the change won (ties count for neither side) and
the raw pairs, and says whether the gain rule holds: at least nine tenths of
the pairs won and the medians further apart than the base's own
interquartile distance.

"This tree" is the working tree as it is, uncommitted edits included.  A run
that reports a failed op makes the script exit 1.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import metrics  # noqa: E402  (the ledger's metric vocabulary and statistics; no numpy)


def extract_revision(revision: str, target: pathlib.Path) -> None:
    """Unpack the committed files of ``revision`` under ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def run_once(tree: pathlib.Path, workload: str, ops, seed: int) -> "tuple[int, dict]":
    """One untraced run of ``workload`` from ``tree``: failed ops, metric values."""
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]  # fmt: skip
    if ops is not None:
        command += ["--ops", str(ops)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1):
        sys.exit(f"paired_run.py: {' '.join(command)} exited with {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return record["failed"], {
        name: entry["value"] for name, entry in record["metrics"].items()
    }


def report(metric: dict, pairs: "list[tuple[float, float]]") -> None:
    """One metric: medians, the base's quartiles, pairs won, the gain rule."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    gains = [sign * (change - base) for base, change in pairs]
    base = metrics.summarize([b for b, _ in pairs])
    change = metrics.summarize([c for _, c in pairs])
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    gain = sign * (change["median"] - base["median"])
    holds = wins >= 0.9 * len(pairs) and gain > base["q75"] - base["q25"]
    print(
        f"{metric['name']:18s} base {base['median']:<10.6g} "
        f"change {change['median']:<10.6g} "
        f"{(change['median'] - base['median']) / base['median']:+.1%} of base"
        f"  base q25..q75 {base['q25']:.6g}..{base['q75']:.6g}"
        f"  change won {wins}, lost {losses} of {len(pairs)}"
        f"  gain rule {'holds' if holds else 'not met'}"
    )
    print("   pairs (base, change): " + "  ".join(f"({b:.6g}, {c:.6g})" for b, c in pairs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD~1", help="revision of the base side")
    parser.add_argument("--ops", type=int, help="exact ops per run (default: run.py's 8 s)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    names = [metric["name"] for metric in metrics.END_TO_END]
    results = []  # per pair: {"base": {metric: value}, "change": {...}}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="paired_run_") as scratch:
        trees = {"base": pathlib.Path(scratch), "change": ROOT}
        extract_revision(args.base, trees["base"])
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            values = {}
            for side in order:
                side_failed, values[side] = run_once(
                    trees[side], args.workload, args.ops, args.seed
                )
                failed += side_failed
            results.append(values)
            print(
                f"pair {pair + 1}/{args.pairs} ({order[0]} first): "
                + "  ".join(
                    f"{name} {values['base'][name]:.4g} -> {values['change'][name]:.4g}"
                    for name in names
                ),
                flush=True,
            )
    print(f"\n{args.workload}: {args.base} (base) vs this tree (change), seed {args.seed}")
    for metric in metrics.END_TO_END:
        name = metric["name"]
        report(metric, [(v["base"][name], v["change"][name]) for v in results])
    if failed:
        print(f"{failed} op(s) failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
