"""Tests for the benchmark's own code.

Run from the checkout root: PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

import checks
import child
import corpus
import run
import tracer as tracing


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_corpus(workload):
    make = corpus.WORKLOADS[workload]
    assert json.dumps(make(7)).encode() == json.dumps(make(7)).encode()
    assert make(7) != make(8)


def test_graph6_round_trip():
    for _, line in corpus.family_corpus(3) + corpus.value_scan(3):
        assert corpus.to_graph6(corpus.from_graph6(line)) == line


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_nested_spans_give_self_times():
    t = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 10.0]))
    fam = t.enter("excellence.family")
    key = t.enter("canon.key")
    t.leave(key)
    key = t.enter("canon.key")
    t.leave(key)
    t.leave(fam)
    m = tracing.layer_metrics(t)
    assert m["excellence.family_self_s"] == pytest.approx(7.0)
    assert m["canon.key_s"] == pytest.approx(3.0)
    assert m["canon.key_max_ms"] == pytest.approx(2000.0)
    assert m["excellence.candidates_keyed"] == 2
    assert m["excellence.candidates_key_s"] == pytest.approx(3.0)


def test_generator_span_covers_only_next():
    clock = FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 20.0])
    t = tracing.Tracer(clock=clock)

    def copies():
        yield 1
        yield 2

    gen = t.wrap_gen(copies, "canon.copies")
    outer = t.enter("excellence.pattern")
    got = list(gen())
    t.leave(outer)
    assert got == [1, 2]
    m = tracing.layer_metrics(t)
    # three `next` calls: [1, 2], [5, 6], [7, 8]; the consumer's time is not billed
    assert m["canon.copies_s"] == pytest.approx(3.0)
    assert m["excellence.pattern_s"] == pytest.approx(17.0)
    assert (m["canon.copies_calls"], m["canon.copies_yielded"]) == (1, 2)


def test_claim_time_excludes_catalog_builds():
    t = tracing.Tracer(clock=FakeClock([0.0, 1.0, 4.0, 6.0]))
    claim = t.enter("claims.demo")
    build = t.enter("catalog.gen")
    t.leave(build)
    t.leave(claim)
    m = tracing.layer_metrics(t, ["demo"])
    assert m["claims.demo_s"] == pytest.approx(3.0)
    assert m["claims.catalog_build_s"] == pytest.approx(3.0)


def test_sampler_probes_during_an_item_and_leaves_probes_out():
    with child.SpeedSampler() as sampler:
        assert sampler.timed(time.sleep, 0.6) is None
    ms, probe = sampler.last
    assert len(sampler.probes) >= 4  # before, at least two during, after
    assert 550 < ms < 650
    assert probe == pytest.approx(sum(sampler.probes) / len(sampler.probes))


def _domexc_modules():
    return [m for k, m in sys.modules.items() if k == "domexc" or k.startswith("domexc.")]


def test_install_rebinds_every_module_attribute():
    import domexc.cli  # noqa: F401  the CLI binds several targets too

    originals = {}
    for modname, attr, _, _ in tracing.TARGETS:
        originals[id(getattr(sys.modules[f"domexc.{modname}"], attr))] = f"{modname}.{attr}"
    undo = tracing.install(tracing.Tracer())
    try:
        left = [
            f"{m.__name__}.{k}"
            for m in _domexc_modules()
            for k, v in vars(m).items()
            if id(v) in originals
        ]
        assert left == []
        assert domexc.excellence.canonical_key is domexc.canon.canonical_key
        assert domexc.cli.canonical_key is domexc.canon.canonical_key
        assert domexc.canonical_key is domexc.canon.canonical_key
        assert {m.__name__ for m, _, _ in undo} >= {"domexc.canon", "domexc.catalog", "domexc.cli"}
    finally:
        tracing.uninstall(undo)
    assert all(getattr(m, k) is v for m, k, v in undo)
    assert id(domexc.excellence.canonical_key) in originals


def test_traced_calls_are_counted_at_every_binding():
    import domexc

    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        g = domexc.cycle(7)
        domexc.excellent_family(g, domexc.Param.GAMMA)
    finally:
        tracing.uninstall(undo)
    m = tracing.layer_metrics(t)
    assert m["excellence.family_calls"] == 1
    assert m["domination.min_sets_calls"] == 1
    assert m["excellence.candidates_keyed"] > 0
    assert m["canon.copies_calls"] > 0
    assert m["excellence.members"] == 4


def test_fail_frac_counts_cap_error_not_undefined():
    import domexc

    undefined_line = corpus.to_graph6(corpus.union([corpus.edgeless(1), corpus.complete(2)]))
    cap_line = corpus.to_graph6(corpus.edgeless(9))
    items = [("K1+K2", undefined_line), ("E9", cap_line)]
    ok = child._family_item(domexc, undefined_line)
    assert ok["params"]["gamma_t"] is None  # expected outcome, not a failure
    try:
        child._family_item(domexc, cap_line)
    except ValueError as exc:
        cap_error = f"ValueError: {exc}"
    else:
        pytest.skip("the pattern cap no longer applies")
    result = {
        "items": [
            {"name": "K1+K2", "ms": 1.0, "out": ok, "error": None},
            {"name": "E9", "ms": 1.0, "out": None, "error": cap_error},
        ]
    }
    golden = {"E9": {"stale": True}}  # a golden record does not excuse an error
    tally = run.check_pass("family_corpus", items, result, golden)
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (2, 1, 0)


def test_wrong_output_is_caught():
    import domexc

    line = corpus.to_graph6(corpus.cycle(6))
    out = child._family_item(domexc, line)
    assert checks.family_errors(line, out, None) == []
    out["params"]["gamma"]["sets"][0] ^= 1
    assert checks.family_errors(line, out, None)
    out = child._family_item(domexc, line)
    out["families"]["gamma"]["witness"][0][0][1] = 0
    assert checks.family_errors(line, out, None)


def test_exact_values_and_wrong_values_caught():
    c5 = corpus.cycle(5)
    want = {"gamma": 2, "i": 2, "beta0": 2, "gamma_t": 3, "gamma_r": 3, "gamma_oc": 3,
            "gamma_tr": 3, "gamma_t_oc": 3}
    assert {pid: checks.exact_value(c5, pid) for pid in want} == want
    line = corpus.to_graph6(c5)
    assert checks.value_errors(line, {"values": want}, None) == []
    # i = 3 keeps every chain, so only the recomputed value catches it
    assert checks.value_errors(line, {"values": dict(want, i=3)}, None)


def test_missing_canonical_form_is_caught():
    import domexc

    line = corpus.to_graph6(corpus.cycle(6))
    out = child._family_item(domexc, line)
    out["canonical"] = None
    assert checks.family_errors(line, out, None)


def test_predicates_match_definitions():
    c5 = corpus.cycle(5)
    assert checks.satisfies(c5, 0b00101, "gamma")
    assert not checks.satisfies(c5, 0b00001, "gamma")
    assert checks.satisfies(c5, 0b00111, "gamma_oc")
    assert not checks.satisfies(c5, 0b00101, "gamma_oc")
    assert checks.satisfies(c5, 0b00111, "gamma_t")
    assert not checks.satisfies(c5, 0b00101, "gamma_t")
    assert checks.isomorphic(corpus.cycle(6), corpus.relabel(corpus.cycle(6), random.Random(1)))
    assert not checks.isomorphic(corpus.cycle(6), corpus.union([corpus.cycle(3), corpus.cycle(3)]))


def test_missing_sources_fail_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "value_scan", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
