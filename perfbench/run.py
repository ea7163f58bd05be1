"""Benchmark of the ``npstat`` command line over seeded, generated treebanks.

Run from the repository root::

    python3 perfbench/run.py --workload flat-wsj --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

``--trace 0`` drives the real CLI in a closed loop with one client.  Each
command runs as a fresh child process, ``python -m npstat.cli ARGS`` with
``PYTHONPATH=src``, one at a time: ``--dump-default-config`` (set-up: start-up,
import and parser build, no corpus), then table1, late-closure, adverbials and
verb on the corpus with ``--format records``, round and round until
``--seconds`` have passed.  Children are separate processes because users pay
interpreter start-up and import on every command, and because each child's own
rusage (``os.wait4``) gives that command's peak memory.  Every timed command is
bracketed by a fixed reference program and its time is scaled by it (see
``REFERENCE``); a metric is the median over the run.  Every output is compared
byte for byte with what the generator's ground truth says it must be (see
``gen.py``); a mismatch, an unexpected exit code or an unexpected skip warning
counts as failed.

``--trace 1`` runs the same work in-process with a span around each call into
an npstat module and reports per-layer metrics (see ``traced.py``).

The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run.  The exit
code is 1 if any output check failed, 2 if the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 120
# metric -> npstat arguments, timed in turn; corpus commands get --corpus and --format.
COMMANDS = {
    "setup_s": ["--dump-default-config"],
    "table1_sents_per_s": ["table1"],
    "late_closure_sents_per_s": ["late-closure"],
    "adverbials_sents_per_s": ["adverbials"],
    "verb_sents_per_s": ["verb", "--verb", "disclose"],
}
_SKIPPING = re.compile(r"skipping (\S+?): ")
# Fixed pure-Python work in a fresh interpreter: start-up, regex tokenizing and
# nested-list building, like a small parse.  On a shared host the speed of the
# same work drifts by a quarter or more within a minute, and runs taken at
# different times differ by as much.  This reference runs before and after every
# timed command, and each command's time is divided by the mean of the two.
# No change to npstat can affect the reference.
REFERENCE = r"""
import re
text = " ".join(f"( (S (NP-SBJ (DT the) (NN w{i})) (VP (VBD saw) (NP (PRP it))) (. .)) )"
                for i in range(7000))
stack = [[]]
for tok in re.findall(r"[()]|[^()\s]+", text):
    if tok == "(":
        node = []
        stack[-1].append(node)
        stack.append(node)
    elif tok == ")":
        stack.pop()
    else:
        stack[-1].append(tok)
"""
# Median wall time of REFERENCE on the machine the benchmark was defined on
# (2-vCPU Xeon at 2.1 GHz, CPython 3.11.7); scaled times read as that machine's.
REFERENCE_S = 0.2


@dataclass
class Child:
    code: int
    wall_s: float
    max_rss_mb: float
    stdout: bytes
    stderr: str


def invoke(argv: list[str], env: dict[str, str], scratch: Path) -> Child:
    """Run one CLI command to completion; its rusage comes from ``os.wait4``."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024,
                 out_path.read_bytes(), err_path.read_text("utf-8", "replace"))


def run_cli(manifest: dict, corpus: Path, seconds: float, scratch: Path):
    """Closed-loop CLI run; returns (attempted, failed, end-to-end metrics)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "npstat.cli"]
    corpus_args = ["--corpus", str(corpus), "--format", "records"]
    skipped = sorted(manifest["skipped"])
    attempted = failed = 0

    def checked(argv: list[str], expected: str | None) -> Child:
        nonlocal attempted, failed
        child = invoke(argv, env, scratch)
        attempted += 1
        if expected is None:  # --dump-default-config
            ok = child.stdout.startswith(b"# npstat givenness classifier configuration")
        else:
            ok = (child.stdout == expected.encode("utf-8")
                  and sorted(_SKIPPING.findall(child.stderr)) == skipped)
        if child.code != 0 or not ok:
            failed += 1
            print(f"FAILED: {' '.join(argv[2:])} exit {child.code}\n{child.stderr[-2000:]}",
                  file=sys.stderr)
        return child

    checked(cli + ["--dump-default-config"], None)  # fills the bytecode cache
    checked(cli + ["parse", *corpus_args], manifest["expected"]["parse"])

    def reference() -> float:
        child = invoke([sys.executable, "-c", REFERENCE], env, scratch)
        if child.code != 0:
            raise RuntimeError(f"reference program exited {child.code}: {child.stderr}")
        return child.wall_s

    raw: dict[str, list[float]] = {name: [] for name in COMMANDS}
    scaled: dict[str, list[float]] = {name: [] for name in COMMANDS}
    peak_mb = 0.0
    order = list(COMMANDS.items())
    before = reference()
    start = time.perf_counter()
    for i in itertools.count():
        if i >= len(order) and time.perf_counter() - start >= seconds:
            break
        name, args = order[i % len(order)]
        if name == "setup_s":
            child = checked(cli + args, None)
        else:
            child = checked(cli + args + corpus_args,
                            manifest["expected"][name.removesuffix("_sents_per_s")])
            peak_mb = max(peak_mb, child.max_rss_mb)
        after = reference()
        raw[name].append(child.wall_s)
        scaled[name].append(child.wall_s * REFERENCE_S / ((before + after) / 2))
        before = after

    metrics = {"peak_rss_mb": peak_mb}
    for name, times in scaled.items():
        wall = statistics.median(times)
        metrics[name] = wall if name == "setup_s" else manifest["sentences"] / wall
        print(f"# {name}: {len(times)} runs, median unscaled wall "
              f"{statistics.median(raw[name]):.4f} s, scaled {wall:.4f} s")
    print(f"# {attempted} CLI invocations, {failed} failed "
          f"(failed_share {failed / attempted:.4f} ratio)")
    return attempted, failed, metrics


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> bool:
    import gen
    import traced

    root = WORK / workload
    manifest = gen.generate(workload, seed, root)
    corpus = root / "corpus"
    if trace:
        attempted, failed, metrics = traced.run(manifest, corpus, seconds, root / "spans.jsonl")
    else:
        attempted, failed, metrics = run_cli(manifest, corpus, seconds, root)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "files": manifest["files"],
        "mb": manifest["mb"],
        "sentences": manifest["sentences"],
        "files_skipped": len(manifest["skipped"]),
        "expected_sha256": {cmd: hashlib.sha256(text.encode("utf-8")).hexdigest()
                            for cmd, text in manifest["expected"].items()},
    }
    print("# info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"# {name:<32} {value:>14.4f} {declared[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import gen
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError) as err:
        print(f"error: cannot run the benchmark from {ROOT}: {err}", file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in gen.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
