"""domexc benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (one client, closed loop, `--jobs 1`, every pass in a fresh
interpreter because the package's catalogs are module-level caches):

  paper_suite    `domexc verify --suite paper --timings`; ignores the seed.
  family_corpus  per graph: parse, canonical identity, `min_sets` and
                 `is_excellent` for all eight parameters, and the excellent
                 families for gamma and i.
  value_scan     `param_value` for all eight parameters on sparse graphs.

A run repeats passes until the next one would end after `--seconds`
(at least two), then reports medians over passes, with times rescaled
to a reference host speed (see child.py). With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it alternates untraced
and traced passes and prints the per-layer metrics, including the
tracing overhead. Every output is checked (see checks.py). The details
of each run, the machine included, go to
.bench_build/perfbench/<workload>-seed<N>-trace<T>.json, the spans of
the last traced pass to .bench_build/perfbench/spans-<workload>.tsv. The
last line printed is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from child import PROBE_REF_S  # noqa: E402

WORKLOADS = ("paper_suite", "family_corpus", "value_scan")
SETUP_SAMPLES = 7
# untraced passes per run at least: a paper_suite pass can take half of a 40 s
# run, and one pass alone spreads its item quantiles
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_class", "_per_tree", "_per_candidate")):
        return "ratio"
    return "count"


def _git_head(root: Path) -> str:
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": _git_head(root),
    }


class Runner:
    """Launches child passes against the checkout's `src/` tree."""

    def __init__(self, root: Path, workload: str, items: list):
        self.root = root
        self.workload = workload
        self.payload = json.dumps(items)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.out_dir = root / ".bench_build" / "perfbench"

    def launch(self, kind: str, trace: bool) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), kind, "1" if trace else "0"]
        if trace:
            argv.append(str(self.out_dir / f"spans-{self.workload}.tsv"))
        t_launch = time.monotonic()
        try:
            proc = subprocess.run(
                argv,
                input=self.payload,
                capture_output=True,
                text=True,
                env=self.env,
                cwd=self.root,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{kind} pass exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{kind} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["raw_setup_s"] = result["ready"] - t_launch
        result["setup_s"] = result["raw_setup_s"] * PROBE_REF_S / result["setup_probe_s"]
        return result


def check_pass(workload: str, items: list, result: dict, golden: dict) -> dict:
    """Counts of attempted, failed and wrong items for one pass."""
    problems = []
    if workload == "paper_suite":
        got = checks.paper_summary(result)
        want = golden or got
        failing = sorted(cid for cid, (status, _) in got.items() if status == "fail")
        wrong = [cid for cid in want if got.get(cid) != want[cid]]
        if result["rc"] != (1 if failing else 0):
            problems.append(f"exit code {result['rc']} with failing claims {failing}")
            wrong = wrong or ["exit code"]
        problems += [f"{cid}: differs from the golden report" for cid in wrong]
        return {"attempted": len(want), "failed": len(wrong), "wrong": len(wrong), "problems": problems}
    if len(result["items"]) != len(items):
        raise BenchError("a pass returned fewer items than it was given")
    errors_of, _ = checks.ITEM_CHECKS[workload]
    failed = wrong = 0
    for (name, line), row in zip(items, result["items"]):
        if row["error"] is not None:
            failed += 1
            problems.append(f"{name}: {row['error']}")
            continue
        errs = errors_of(line, row["out"], golden.get(name))
        if errs:
            failed += 1
            wrong += 1
            problems.append(f"{name}: {'; '.join(errs[:3])}")
    return {"attempted": len(items), "failed": failed, "wrong": wrong, "problems": problems}


def item_latencies(workload: str, result: dict) -> list:
    """Per-item times in ms, rescaled to the reference host speed (see child.py)."""
    if workload == "paper_suite":
        pairs = result["claim_ms"].values()
    else:
        pairs = [(row["ms"], row["probe_s"]) for row in result["items"]]
    return [ms * PROBE_REF_S / probe for ms, probe in pairs]


def end_to_end(workload: str, names: list, passes: list, setups: list, tally: dict) -> dict:
    """Medians over a run's passes, in reference-speed time.

    A pass is estimated item by item: each item's latency is its median
    over the passes, and `wall_s` is the sum of those medians. The
    latency quantiles are taken over the panel items only, which are the
    same for every seed, so that runs with different seeds compare like
    with like.
    """
    lat = [statistics.median(v) for v in zip(*(item_latencies(workload, r) for r in passes))]
    panel = [ms for name, ms in zip(names, lat) if corpus.in_panel(name)]
    wall = sum(lat) / 1e3
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": len(lat) / wall,
        "item_p50_ms": statistics.median(panel),
        "item_p90_ms": statistics.quantiles(panel, n=10)[8],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        "ok_frac": (tally["attempted"] - tally["failed"]) / tally["attempted"],
    }


def per_layer(workload: str, plain: list, traced: list, claim_ids) -> dict:
    """Medians over traced passes; one `claims.<id>_s` per claim the golden report ran.

    `trace.overhead_s` compares the summed reference-speed item times of
    the traced and the untraced passes.
    """
    names = [k for k in traced[0]["layers"] if not k.startswith("claims.")]
    names += [f"claims.{cid}_s" for cid in claim_ids] + ["claims.catalog_build_s"]
    out = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced) for name in names}

    def pass_s(r):
        return sum(item_latencies(workload, r)) / 1e3

    out["trace.overhead_s"] = statistics.median(map(pass_s, traced)) - statistics.median(map(pass_s, plain))
    return out


def load_golden(workload: str) -> dict:
    path = HERE / "golden" / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = [] if workload == "paper_suite" else corpus.WORKLOADS[workload](seed)
    runner = Runner(root, workload, items)
    runner.out_dir.mkdir(parents=True, exist_ok=True)
    golden = load_golden(workload)
    plain, traced = [], []
    start = time.monotonic()
    step = 0.0
    while True:
        t0 = time.monotonic()
        plain.append(runner.launch(workload, False))
        if trace:
            traced.append(runner.launch(workload, True))
        step = max(step, time.monotonic() - t0)
        if len(plain) >= (1 if trace else MIN_PASSES) and time.monotonic() - start + step > seconds:
            break
    setups = [r["setup_s"] for r in plain]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.launch("setup", False)["setup_s"])

    names = list(plain[0]["claim_ms"]) if workload == "paper_suite" else [n for n, _ in items]
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    problems = []
    for r in plain + traced:
        c = check_pass(workload, items, r, golden)
        for k in tally:
            tally[k] += c[k]
        problems += c["problems"]
    if trace:
        layers = per_layer(workload, plain, traced, sorted(load_golden("paper_suite")))
        metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    else:
        e2e = end_to_end(workload, names, plain, setups, tally)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(root),
        "passes": len(plain),
        "raw_pass_wall_s": [r["wall_s"] for r in plain],
        "raw_setup_s": [r["raw_setup_s"] for r in plain],
        "setups_s": setups,
        "traced_passes": len(traced),
        "items": len(names),
        "panel_items": sum(map(corpus.in_panel, names)),
        "setup_samples": len(setups),
        "spans_last_traced_pass": traced[-1]["spans"] if traced else 0,
        "tally": tally,
        "fail_frac": tally["failed"] / tally["attempted"],
        "problems": sorted(set(problems)),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "domexc" / "__init__.py").is_file():
        print(f"error: no domexc sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)
    try:
        run = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail = root / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")

    m = run["machine"]
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} commit={m['commit']}")
    print(
        f"# {run['workload']} seed={run['seed']} passes={run['passes']} traced={run['traced_passes']} "
        f"items={run['items']} panel items={run['panel_items']} setup samples={run['setup_samples']}"
    )
    for name, (value, unit) in run["metrics"].items():
        print(f"{name:40} {value:14.6g} {unit}")
    print(f"{'fail_frac':40} {run['fail_frac']:14.6g} ratio")
    for line in run["problems"][:20]:
        print(f"# problem: {line}")
    tally = run["tally"]
    result = {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
