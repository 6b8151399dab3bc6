"""Claim registry behavior: suites, report shape, mutation sensitivity."""

import hashlib
import json
from functools import partial

import pytest

from domexc import catalog, claims
from domexc.canon import canonical_key
from domexc.claims import CLAIMS, Claim, ClaimReport, _failures, claim_ids, run_claim, run_suite
from domexc.domination import ParamResult
from domexc.graph6 import to_graph6
from domexc.graphs import cartesian_product, complete


def test_suite_composition():
    quick = claim_ids("quick")
    paper = claim_ids("paper")
    long_ids = claim_ids("long")
    assert set(quick) <= set(paper)
    assert paper == long_ids
    assert len(paper) == len(set(paper))
    assert "five-regular-twelve-search" in paper
    assert "five-regular-twelve-search" not in quick
    with pytest.raises(ValueError):
        claim_ids("fast")


def test_unknown_claim_rejected():
    with pytest.raises(KeyError):
        run_claim("no-such-claim")


def test_report_shape():
    rep = run_claim("glued-cycles")
    assert isinstance(rep, ClaimReport)
    assert rep.status == "pass"
    assert rep.runtime is None
    data = rep.to_json()
    assert list(data) == [
        "claim_id",
        "anchor",
        "status",
        "expected",
        "computed",
        "runtime",
    ]
    assert data["expected"] == data["computed"]


def test_timings_flag():
    rep = run_claim("glued-cycles", timings=True)
    assert isinstance(rep.runtime, float) and rep.runtime >= 0


def test_long_claim_skipped_by_default():
    rep = run_claim("five-regular-twelve-search")
    assert rep.status == "skipped-long-running"
    assert rep.computed is None


def test_quick_suite_all_pass():
    reports = run_suite("quick")
    assert [r.claim_id for r in reports] == list(claim_ids("quick"))
    assert all(r.status == "pass" for r in reports)


FAMILY_CLAIMS = [
    "path-families",
    "cycle-families-domination",
    "cycle-families-independent",
    "cycle-union-families",
    "complete-product-families",
    "complement-product-families-base",
    "complement-product-families-extended",
    "multipartite-families",
]


def test_family_claim_reports_pinned():
    # labels and every row, including the i and beta0 rows no acceptance
    # test reads; the digest was recorded before the family table existed
    assert [c for c in claim_ids() if c in FAMILY_CLAIMS] == FAMILY_CLAIMS
    blob = json.dumps([run_claim(cid).to_json() for cid in FAMILY_CLAIMS], sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "83c9cea1c034deb48469144f3e263539213c62e74a60b3161385e32584d89275"


def test_suite_parallel_matches_serial():
    serial = [r.to_json() for r in run_suite("quick", jobs=1)]
    parallel = [r.to_json() for r in run_suite("quick", jobs=4)]
    assert serial == parallel


def inflate_solver(monkeypatch):
    """Make every solved parameter value one too large."""
    import domexc.domination as dom

    real = dom._solve

    def inflated(g, param, first_only):
        res = real(g, param, first_only)
        return ParamResult(res.param, res.value + 1, res.sets)

    monkeypatch.setattr(dom, "_solve", inflated)


def test_mutated_solver_is_caught(monkeypatch):
    # a solver that inflates every value must break the quick suite
    inflate_solver(monkeypatch)
    reports = run_suite("quick")
    assert any(r.status == "fail" for r in reports)


def test_failures_report(monkeypatch):
    def two():
        yield "first"
        yield "second"

    def none():
        yield from ()

    rows = [
        Claim("stub-fail", "stub", True, False, partial(_failures, two)),
        Claim("stub-pass", "stub", True, False, partial(_failures, none)),
    ]
    monkeypatch.setattr("domexc.claims._BY_ID", {c.claim_id: c for c in rows})
    bad, good = run_claim("stub-fail"), run_claim("stub-pass")
    assert (bad.status, bad.expected, bad.computed) == ("fail", [], ["first", "second"])
    assert (good.status, good.expected, good.computed) == ("pass", [], [])


MUTATION_CLAIMS = {
    "path-cycle-values": 61,
    "independence-equals-domination": 140,
    "glued-cycles": 3,
    "coalescence-critical": 6,
    "coalescence-closure": 3,
}


def failure_digest(line_counts):
    """Run each claim, check its failure-line count, digest the reports."""
    reports = [run_claim(cid).to_json() for cid in line_counts]
    assert [len(r["computed"]) for r in reports] == list(line_counts.values())
    assert all(r["status"] == "fail" and r["expected"] == [] for r in reports)
    blob = json.dumps(reports, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_failure_lines_pinned(monkeypatch):
    # every failure line, in order, under the inflated solver; critical_split
    # searches each g - x at the inflated value less one, so every glue
    # vertex reads critical and six cases reach the additivity line
    inflate_solver(monkeypatch)
    digest = failure_digest(MUTATION_CLAIMS)
    assert digest == "1589ab377cbc348f3d5fabaf5788716b5267130cf9026727669cacf716ca8fe7"


def set_pattern_verdict(verdict):
    """A mutation making every pattern test answer verdict.

    It patches catalog too, where search ran the pattern test for the
    claims when the catalog pins were recorded.
    """

    def mutate(monkeypatch):
        for module in ("domexc.claims", "domexc.catalog"):
            monkeypatch.setattr(f"{module}.is_pattern_excellent", lambda *a, **k: verdict)

    return mutate


@pytest.mark.parametrize(
    "mutate, line_counts, value_claims, want",
    [
        (
            inflate_solver,
            {
                "edge-critical-pairs": 250,
                "independence-equals-domination": 140,
                "degree-ratio-bound": 106,
            },
            ["five-regular-order-ten"],
            "888301138cc27506f0f385e910dcf99b14054824fcbf439c1c8b3301ec2ece24",
        ),
        (
            set_pattern_verdict(True),
            {"no-path3-at-three": 180, "regular-order-bound": 26},
            ["four-regular-nine-survey"],
            "dad7c5c82a09ac8c65f137c3caee75634a1d016baf91b5d730624d16e11a05b7",
        ),
        (
            set_pattern_verdict(False),
            {"edge-critical-pairs": 50},
            ["four-regular-nine-product"],
            "a1619094fd4f091922e081eaa675b20da2f9698082698695802d2122b3dd98ef",
        ),
    ],
    ids=["inflated", "every-pattern", "no-pattern"],
)
def test_catalog_failure_lines_pinned(monkeypatch, mutate, line_counts, value_claims, want):
    # the catalog claims' reports under mutations that make each one report,
    # recorded while every claim still read a keyed, key-sorted Catalog: a
    # claim that iterates classes in generation order must report in that
    # catalog order, graph6 lines and survey list included
    mutate(monkeypatch)
    values = [run_claim(cid).to_json() for cid in value_claims]
    assert all(r["status"] == "fail" for r in values)
    blob = failure_digest(line_counts) + json.dumps(values, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == want


CATALOG_CLAIMS = [
    "edge-critical-pairs",
    "independence-equals-domination",
    "no-path3-at-three",
    "degree-ratio-bound",
    "five-regular-order-ten",
    "four-regular-nine-count",
    "four-regular-nine-survey",
    "four-regular-nine-product",
    "regular-order-bound",
]


def test_catalog_claims_key_only_what_they_report(monkeypatch):
    # the catalog claims iterate unkeyed classes: the only keys are the K3
    # hits the survey lists and the product claim compares, and K3xK3
    # itself; no claim builds a keyed, sorted Catalog
    keyed = []

    def counted(g):
        keyed.append(to_graph6(g))
        return canonical_key(g)

    def refused(*args):
        raise AssertionError("a claim reached _sorted_catalog")

    for module in (catalog, claims):
        monkeypatch.setattr(module, "canonical_key", counted)
    monkeypatch.setattr(catalog, "_sorted_catalog", refused)
    monkeypatch.setattr(catalog, "_GENERATED", {})
    reports = {cid: run_claim(cid) for cid in CATALOG_CLAIMS}
    assert [cid for cid, r in reports.items() if r.status == "fail"] == ["four-regular-nine-survey"]
    hits = reports["four-regular-nine-survey"].computed["graph6"]
    rook = to_graph6(cartesian_product(complete(3), complete(3)))
    assert len(hits) == 3
    assert sorted(keyed) == sorted(hits + [rook] + hits)


def test_pattern_failure_lines_pinned(monkeypatch):
    # the inflated solver keeps every pattern excellent, so these yields
    # are reached only when the pattern test itself fails
    monkeypatch.setattr("domexc.claims.is_pattern_excellent", lambda *a, **k: False)
    digest = failure_digest({"glued-cycles": 3, "coalescence-closure": 3})
    assert digest == "2b7d480df1f35705d4ef080db15efed6521ce1d9568d067cb0d7b6dc2d58ea60"


def test_tree_claims_report_a_wrong_critical_split(monkeypatch, capsys):
    # critical_split searching each t - x at gamma instead of gamma - 1
    # labels too many vertices 0; the claims report it as failure lines
    import domexc.domination as dom
    from domexc.cli import main

    real = dom.critical_split

    def at_gamma(g, *, result=None):
        res = result if result is not None else dom.min_sets(g, dom.Param.GAMMA)
        return real(g, result=ParamResult(res.param, res.value + 1, res.sets))

    monkeypatch.setattr("domexc.trees.critical_split", at_gamma)
    rep = run_claim("tree-labeling")
    lines = {
        f"order {n}: {what}"
        for n in range(4, 13)
        for what in ("zero labels are not a dominating set", "zero labels are not optimal", "a leaf carries label one")
    }
    assert rep.status == "fail" and rep.computed and set(rep.computed) <= lines
    assert run_claim("tree-families").status == "fail"
    # only the two tree claims go through the CLI; the rest are unaffected
    trees_only = [c for c in CLAIMS if c.claim_id in ("tree-labeling", "tree-families")]
    monkeypatch.setattr("domexc.claims.CLAIMS", trees_only)
    assert main(["verify", "--suite", "paper", "--jobs", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    status = {r["claim_id"]: r["status"] for r in report["results"]}
    assert status == {"tree-labeling": "fail", "tree-families": "fail"}
