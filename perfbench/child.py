"""One measured pass of one workload, in a fresh interpreter.

Usage: python3 child.py WORKLOAD TRACE [SPANS_PATH] < inputs.json

The package keeps module-level caches (the claim catalogs, the tree
lists), and a command-line user starts cold every time, so each pass
gets its own process. Reads the inputs from stdin as a JSON list of
[name, graph6] pairs, runs the workload's calls timing every item, and
prints one JSON object: when setup ended (monotonic clock, comparable
with the parent's) with a speed probe taken then, each item's latency
with the probe around it and its outputs, the pass's raw time (the sum
of the item times), peak RSS, and with TRACE=1 the layer metrics.
WORKLOAD `setup` stops right before the first timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time


# The host's speed drifts by up to a factor of two over seconds (a fixed
# loop took 9.5 to 18 ms in one minute), and the drift moves every
# timing with it. A probe that does not touch the package therefore runs
# before and after every timed item and every PERIOD_S during it, and
# the parent rescales the item's time to a host on which the probe takes
# PROBE_REF_S. Probe time is left out of the item's time.
PROBE_REF_S = 2.0e-3
PROBE_SIZE = 8_000
PERIOD_S = 0.25


def speed_probe(rounds: int = 1) -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        acc, rows = 0, [0] * 64
        for i in range(PROBE_SIZE):
            rows[i & 63] = acc
            acc = (acc ^ (i * 2654435761)) >> 3 | (rows[(i * 7) & 63] & 0xFFFF).bit_count()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Probes the host's speed from a SIGALRM handler while items run.

    `clock()` is `perf_counter` minus the time spent probing. `timed(fn)`
    returns fn's result and leaves in `last` its time in ms and the mean
    of the probes taken from just before it to just after it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.stolen = 0.0

    def _probe(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append(speed_probe())
        self.stolen += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def timed(self, fn, *args, **kwargs):
        self._probe()
        first = len(self.probes) - 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            ms = (self.clock() - start) * 1e3
            self._probe()
            around = self.probes[first:]
            self.last = (ms, sum(around) / len(around))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


def _family_item(api, line):
    """Per graph: what `analyze --param all`, then `family` for gamma and i, compute."""
    P, undefined = api.Param, api.ParameterUndefinedError
    g = api.from_graph6(line)
    # beyond the canonical-key order cap the CLI reports no canonical form
    canonical = None if g.n > api.canon.CANON_CAP else api.canonical_key(g).graph6()
    out = {"graph6": api.to_graph6(g), "canonical": canonical, "params": {}, "families": {}}
    for pid in api.PARAM_IDS:
        par = P.from_id(pid)
        try:
            res = api.min_sets(g, par)
        except undefined:
            out["params"][pid] = None
            continue
        out["params"][pid] = {
            "value": res.value,
            "sets": list(res.sets),
            "excellent": api.is_excellent(g, par, result=res),
        }
    for pid in ("gamma", "i"):
        fam = api.excellent_family(g, P.from_id(pid))
        out["families"][pid] = {
            "value": fam.value,
            "excellent": fam.excellent,
            "members": [[name, key.graph6()] for name, key in zip(api.family_names(fam), fam.members)],
            "witness": [[list(cd) for cd in row] for row in fam.witness],
        }
    return out


def _value_item(api, line):
    g = api.from_graph6(line)
    values = {}
    for pid in api.PARAM_IDS:
        try:
            values[pid] = api.param_value(g, api.Param.from_id(pid))
        except api.ParameterUndefinedError:
            values[pid] = None
    return {"values": values}


def _run_items(api, items, work):
    rows = []
    with SpeedSampler() as sampler:
        for name, line in items:
            try:
                out, error = sampler.timed(work, api, line), None
            except Exception as exc:  # recorded per item; the pass goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            ms, probe = sampler.last
            rows.append({"name": name, "ms": ms, "probe_s": probe, "out": out, "error": error})
    return sum(row["ms"] for row in rows) / 1e3, rows


def _run_paper(api):
    from domexc import claims, cli

    # a clock and the speed probes around each claim only; the suite runs
    # as `domexc verify` does
    claim_ms = {}
    run_claim = claims.run_claim

    def timed_claim(claim_id, *args, **kwargs):
        try:
            return sampler.timed(run_claim, claim_id, *args, **kwargs)
        finally:
            claim_ms[claim_id] = list(sampler.last)

    claims.run_claim = timed_claim
    buf = io.StringIO()
    with SpeedSampler() as sampler, contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--suite", "paper", "--timings", "--jobs", "1"])
    claims.run_claim = run_claim
    report = json.loads(buf.getvalue())
    skipped = {r["claim_id"] for r in report["results"] if r["status"] == "skipped-long-running"}
    claim_ms = {cid: v for cid, v in claim_ms.items() if cid not in skipped}
    wall = sum(ms for ms, _ in claim_ms.values()) / 1e3
    return wall, {"rc": rc, "report": report, "claim_ms": claim_ms}


def main(argv):
    workload, trace = argv[0], argv[1] == "1"
    items = json.loads(sys.stdin.read())
    import domexc as api

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    setup_probe = speed_probe(3)
    if workload == "setup":
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe}))
        return 0
    if workload == "paper_suite":
        wall, result = _run_paper(api)
    else:
        work = _family_item if workload == "family_corpus" else _value_item
        wall, rows = _run_items(api, items, work)
        result = {"items": rows}
    result.update(
        ready=ready,
        setup_probe_s=setup_probe,
        wall_s=wall,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, api.claim_ids("paper"))
        result["spans"] = len(tracer.start)
        if len(argv) > 2:
            tracer.dump(argv[2])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
