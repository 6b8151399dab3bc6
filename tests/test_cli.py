"""Command line behavior: schemas, exit codes, determinism."""

import hashlib
import io
import json
import os

import pytest

import domexc.canon
import domexc.cli
import domexc.graph6
from domexc.cli import build_parser, main
from domexc.graph6 import to_graph6
from domexc.graphs import cartesian_product, complete, cycle, path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def stdin_bytes(data: bytes):
    """A text stdin over data whose text layer decodes UTF-8, as a UTF-8 locale's does."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_analyze_inline(capsys):
    code, payload, _ = run_json(capsys, "analyze", "C~")
    assert code == 0
    assert set(payload) == {"tool_version", "input", "results"}
    assert payload["input"] == {"source": "inline", "graphs": 1}
    (r,) = payload["results"]
    assert r["index"] == 0
    assert r["graph6"] == "C~" and r["canonical_graph6"] == "C~"
    assert r["order"] == 4 and r["size"] == 6 and r["connected"]
    assert r["params"]["gamma"] == {
        "defined": True,
        "value": 1,
        "optimal_sets": 4,
        "excellent": True,
    }


def test_analyze_all_params_with_isolate(capsys):
    code, payload, _ = run_json(capsys, "analyze", "A?", "--param", "all")
    assert code == 0
    params = payload["results"][0]["params"]
    assert len(params) == 8
    assert params["gamma"]["value"] == 2
    for pid in ("gamma_t", "gamma_tr", "gamma_t_oc"):
        assert params[pid]["defined"] is False
        assert "isolated" in params[pid]["reason"]


def test_analyze_canonical_null_beyond_cap(capsys):
    code, payload, _ = run_json(capsys, "analyze", to_graph6(path(13)))
    assert code == 0
    assert payload["results"][0]["canonical_graph6"] is None


def test_analyze_file_with_bad_line(tmp_path, capsys):
    f = tmp_path / "mixed.g6"
    f.write_text("C~\n{oops\nBw\n")
    code, payload, _ = run_json(capsys, "analyze", str(f))
    assert code == 2
    rs = payload["results"]
    assert len(rs) == 3
    assert "error" in rs[1] and rs[1]["line"] == 2
    assert rs[0]["graph6"] == "C~" and rs[2]["graph6"] == "Bw"


def test_convert_file_with_bad_line(tmp_path, capsys):
    f = tmp_path / "mixed.g6"
    f.write_text("C~\n{oops\nBw\n")
    _, analyzed, _ = run_json(capsys, "analyze", str(f))
    code, payload, _ = run_json(capsys, "convert", str(f))
    assert code == 2
    assert payload["input"] == analyzed["input"]
    rs = payload["results"]
    assert rs[1] == analyzed["results"][1] and set(rs[1]) == {"index", "line", "error"}
    assert [rs[0]["graph6"], rs[2]["graph6"]] == ["C~", "Bw"]
    code, out, _ = run(capsys, "convert", str(f), "--output", "text")
    assert code == 2
    assert out.splitlines() == ["C~", f"1: line 2: error: {rs[1]['error']}", "Bw"]


@pytest.mark.parametrize("command", ["analyze", "family", "convert"])
def test_non_ascii_line_is_an_error_entry(tmp_path, capsys, monkeypatch, command):
    # a file and stdin are both decoded as latin-1, whatever the locale
    data = b"C~\n\xff\nBw\n"
    f = tmp_path / "mixed.g6"
    f.write_bytes(data)
    monkeypatch.setattr("sys.stdin", stdin_bytes(data))
    for source in (str(f), "-"):
        code, payload, err = run_json(capsys, command, source)
        assert code == 2
        assert "Traceback" not in err
        rs = payload["results"]
        assert rs[1] == {"index": 1, "line": 2, "error": "byte 255 outside graph6 range (byte 0)"}
        assert [rs[0]["graph6"], rs[2]["graph6"]] == ["C~", "Bw"]


@pytest.mark.parametrize("command", ["analyze", "family", "convert"])
def test_closed_stdin_is_an_error(capsys, monkeypatch, command):
    # a process started with stdin closed sees sys.stdin as None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, command, "-")
    assert code == 2
    assert out == ""
    assert err == "error: stdin is closed\n"


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv, want",
    [
        (["convert", "Cl"], 0),
        (["convert", "MIXED", "--output", "text"], 2),
        (["gen", "all", "4"], 0),
    ],
)
def test_closed_pipe_keeps_the_exit_code(tmp_path, monkeypatch, argv, want):
    f = tmp_path / "mixed.g6"
    f.write_text("C~\n{oops\nBw\n")
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fd))
        assert main([str(f) if a == "MIXED" else a for a in argv]) == want
        # the descriptor now points at the null device, so the flush at exit is quiet
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_family_unsupported_graph_is_an_error_entry(tmp_path, capsys, jobs):
    # E9 has gamma 9, so its family holds a member above the pattern cap
    f = tmp_path / "capped.g6"
    f.write_text("H??????\n" + to_graph6(cycle(5)) + "\n")
    code, payload, err = run_json(capsys, "family", str(f), "--jobs", jobs)
    assert code == 2 and err == ""
    capped, c5 = payload["results"]
    assert capped == {"index": 0, "line": 1, "error": "pattern order 9 exceeds the cap 8"}
    assert [m["name"] for m in c5["members"]] == ["K1", "E2"]
    code, out, _ = run(capsys, "family", str(f), "--jobs", jobs, "--output", "text")
    assert code == 2
    assert out.splitlines() == [
        "0: line 1: error: pattern order 9 exceeds the cap 8",
        f"1: {to_graph6(cycle(5))} gamma=2 members: K1, E2",
    ]


def test_analyze_empty_graph_is_an_error_entry(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"?\nC~\n"))
    code, payload, _ = run_json(capsys, "analyze", "-")
    assert code == 2
    empty, k4 = payload["results"]
    assert empty["index"] == 0 and empty["line"] == 1 and "order at least 1" in empty["error"]
    assert k4["params"]["gamma"]["value"] == 1


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_bytes(b"C~\nCl\n"))
    code, payload, _ = run_json(capsys, "analyze", "-")
    assert code == 0
    assert payload["input"]["source"] == "stdin"
    assert [r["graph6"] for r in payload["results"]] == ["C~", "Cl"]


def test_analyze_parallel_byte_identical(tmp_path, capsys):
    f = tmp_path / "batch.g6"
    f.write_text("".join(to_graph6(cycle(n)) + "\n" for n in range(3, 10)))
    _, serial, _ = run(capsys, "analyze", str(f), "--param", "all")
    _, parallel, _ = run(capsys, "analyze", str(f), "--param", "all", "--jobs", "3")
    assert serial == parallel


def test_jobs_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOMEXC_JOBS", "2")
    f = tmp_path / "two.g6"
    f.write_text("C~\nCl\n")
    code, payload, _ = run_json(capsys, "analyze", str(f))
    assert code == 0 and len(payload["results"]) == 2


@pytest.mark.parametrize("env, flag", [("abc", None), ("0", None), (None, "0"), (None, "-3"), (None, "x")])
def test_bad_jobs_exit_2(capsys, monkeypatch, env, flag):
    # a bad worker count is an input error, not a failed claim or a traceback
    if env is not None:
        monkeypatch.setenv("DOMEXC_JOBS", env)
    argv = ["verify", "--suite", "quick"] + (["--jobs", flag] if flag is not None else [])
    code, out, err = run(capsys, *argv)
    source = "DOMEXC_JOBS" if env is not None else "--jobs"
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and source in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["family", "C~", "--param", "bogus"], "bogus"),
        (["search", "--catalog", "no-such-dir/catalog.g6"], "No such file"),
        (["search", "--gen", "all:4", "--pattern", "!!bad"], "graph6"),
        (["gen", "trees", "15"], "order"),
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize(
    "argv", [["convert", "Cl"], ["search", "--gen", "all:3"]], ids=["convert", "search"]
)
def test_convert_takes_no_jobs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "clause",
    [["--excellent", "gamma_t"], ["--where", "gamma_t=2"], ["--pattern", "K2", "--pattern-param", "gamma_t"]],
)
def test_search_undefined_parameter_is_no_match(capsys, clause):
    code, payload, err = run_json(capsys, "search", "--gen", "all:4", *clause)
    assert code == 0 and err == ""
    assert payload["input"]["size"] == 11
    assert payload["results"] and all(r["values"]["gamma_t"] >= 2 for r in payload["results"])


def test_analyze_bad_param(capsys):
    code, _, err = run(capsys, "analyze", "C~", "--param", "gamma,delta")
    assert code == 2 and "delta" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.g6")
    assert code == 2
    assert "no such file and not a graph6 string" in err


def test_family_members(capsys):
    code, payload, _ = run_json(capsys, "family", to_graph6(cycle(7)))
    assert code == 0
    (r,) = payload["results"]
    assert r["defined"] and r["excellent"] and r["value"] == 3
    assert [m["name"] for m in r["members"]] == ["K1", "E2", "K2", "E3"]
    assert all(m["graph6"] for m in r["members"])


def test_family_not_excellent_and_undefined(capsys):
    code, payload, _ = run_json(capsys, "family", to_graph6(path(3)))
    assert code == 0
    assert payload["results"][0]["excellent"] is False
    assert payload["results"][0]["members"] == []
    code, payload, _ = run_json(capsys, "family", "A?", "--param", "gamma_t")
    assert code == 0
    assert payload["results"][0]["defined"] is False


def test_family_text_output(capsys):
    code, out, _ = run(capsys, "family", to_graph6(cycle(7)), "--output", "text")
    assert code == 0
    assert "members: K1, E2, K2, E3" in out


def test_verify_quick(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "quick")
    assert code == 0
    assert payload["summary"] == {"pass": 15, "fail": 0, "skipped-long-running": 0}
    assert all(r["status"] == "pass" for r in payload["results"])
    assert all(r["runtime"] is None for r in payload["results"])


def test_verify_paper_expected_failures(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "paper")
    assert code == 1
    failing = {r["claim_id"] for r in payload["results"] if r["status"] == "fail"}
    assert failing == {
        "complement-product-families-extended",
        "four-regular-nine-survey",
    }
    skipped = [r for r in payload["results"] if r["status"] == "skipped-long-running"]
    assert [r["claim_id"] for r in skipped] == ["five-regular-twelve-search"]
    ids = [r["claim_id"] for r in payload["results"]]
    assert len(ids) == len(set(ids)) == 31
    assert payload["summary"]["pass"] == 28


def test_verify_has_no_long_flag(capsys):
    # --suite long is the one way to run long-running claims
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "--suite", "paper", "--long"])
    assert exc.value.code == 2
    assert "--long" in capsys.readouterr().err


def test_verify_timings(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "quick", "--timings")
    assert code == 0
    assert all(isinstance(r["runtime"], float) for r in payload["results"])


def test_verify_repeat_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "quick")
    _, second, _ = run(capsys, "verify", "--suite", "quick", "--jobs", "4")
    assert first == second


def test_verify_text_summary(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "quick", "--output", "text")
    assert code == 0
    assert out.strip().splitlines()[-1] == "15 passed, 0 failed, 0 skipped (long)"


def test_gen_counts(capsys):
    code, out, _ = run(capsys, "gen", "trees", "7")
    assert code == 0 and len(out.split()) == 11
    code, out, _ = run(capsys, "gen", "all", "4")
    assert code == 0 and len(out.split()) == 11
    code, out, _ = run(capsys, "gen", "regular", "6", "3")
    assert code == 0 and len(out.split()) == 2


def test_gen_trees_pinned(capsys):
    # level-sequence labelling, in generator order
    digest = hashlib.sha256()
    for n in range(1, 13):
        code, out, _ = run(capsys, "gen", "trees", str(n))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "95bd871f9c20164e64add5423990d6bbd2f77726b2f5a5d43addb6438686f964"


def test_gen_errors(capsys):
    code, _, err = run(capsys, "gen", "regular", "6")
    assert code == 2 and "needs N and K" in err
    code, _, err = run(capsys, "gen", "regular", "5", "3")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "gen", "all", "9")
    assert code == 2
    code, out, err = run(capsys, "gen", "all", "3", "5")
    assert code == 2 and out == "" and "error: gen all takes only N" in err
    code, out, err = run(capsys, "gen", "trees", "3", "2")
    assert code == 2 and out == "" and "error: gen trees takes only N" in err


def test_empty_connected_catalog(capsys):
    code, out, _ = run(capsys, "gen", "regular", "4", "0", "--connected")
    assert code == 0 and out == ""
    code, out, _ = run(
        capsys, "search", "--gen", "regular:4:0", "--connected", "--output", "text"
    )
    assert code == 0 and "0 of 0 matched" in out


def test_search_pattern(capsys):
    code, payload, _ = run_json(
        capsys,
        "search",
        "--gen",
        "regular:9:4",
        "--pattern",
        "K3",
        "--connected",
        "--include-family",
    )
    assert code == 0
    assert payload["input"] == {"source": "regular:9:4", "size": 16}
    assert len(payload["results"]) == 3
    for r in payload["results"]:
        assert r["values"]["gamma"] == 3
        assert "K3" in r["family"]["members"]


def test_search_where_clause(capsys):
    code, payload, _ = run_json(
        capsys, "search", "--gen", "all:5", "--where", "gamma=1", "--where", "beta0=4"
    )
    assert code == 0
    for r in payload["results"]:
        assert r["values"] == {"gamma": 1, "beta0": 4}


def test_search_catalog_file(tmp_path, capsys):
    f = tmp_path / "c.g6"
    f.write_text("".join(to_graph6(cycle(n)) + "\n" for n in (4, 5, 6)))
    code, payload, _ = run_json(
        capsys, "search", "--catalog", str(f), "--excellent", "gamma"
    )
    assert code == 0
    assert len(payload["results"]) == 3


def test_search_errors(tmp_path, capsys):
    for spec in ("regular:9", "all:x", "regular:9:x"):
        code, _, err = run(capsys, "search", "--gen", spec)
        assert code == 2
        assert err == f"error: bad gen spec '{spec}'; use all:N or regular:N:K\n"
    code, _, err = run(capsys, "search")
    assert code == 2 and "needs --catalog" in err
    code, _, err = run(capsys, "search", "--gen", "all:4", "--where", "gamma2=1")
    assert code == 2 and "gamma2" in err
    for clause in ("gamma=x", "gamma"):
        code, _, err = run(capsys, "search", "--gen", "all:4", "--where", clause)
        assert code == 2
        assert err == f"error: bad --where clause '{clause}'; use PARAM=VALUE\n"
    # a catalog file is decoded as latin-1, so a stray byte names its line
    f = tmp_path / "mixed.g6"
    f.write_bytes(b"D?{\n\xff\nDQc\n")
    code, out, err = run(capsys, "search", "--catalog", str(f))
    assert (code, out) == (2, "")
    assert err == "error: line 2: byte 255 outside graph6 range (byte 0)\n"


def test_convert_canonical_idempotent(capsys):
    g = cycle(5).relabel((2, 0, 3, 1, 4))
    code, out, _ = run(capsys, "convert", to_graph6(g), "--to", "canonical", "--output", "text")
    assert code == 0
    canon = out.strip()
    code, out, _ = run(capsys, "convert", canon, "--to", "canonical", "--output", "text")
    assert code == 0 and out.strip() == canon


def test_convert_edges(capsys):
    code, payload, _ = run_json(capsys, "convert", "Cl", "--to", "edges")
    assert code == 0
    assert payload["input"] == {"source": "inline", "graphs": 1}
    r = payload["results"][0]
    assert r["order"] == 4 and len(r["edges"]) == 4


def count_codec_calls(monkeypatch):
    """Count graph6 parses through both import sites, and cli encodes."""
    calls = {"from_graph6": 0, "to_graph6": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    for module in (domexc.graph6, domexc.cli):
        monkeypatch.setattr(module, "from_graph6", counted("from_graph6", module.from_graph6))
    monkeypatch.setattr(domexc.cli, "to_graph6", counted("to_graph6", domexc.cli.to_graph6))
    return calls


def test_convert_parses_and_encodes_each_graph_once(tmp_path, capsys, monkeypatch):
    f = tmp_path / "many.g6"
    f.write_text("".join(to_graph6(path(n)) + "\n" for n in range(1, 8)))
    calls = count_codec_calls(monkeypatch)
    code, payload, _ = run_json(capsys, "convert", str(f))
    assert code == 0 and payload["input"]["graphs"] == 7
    assert calls == {"from_graph6": 7, "to_graph6": 7}


def test_inline_argument_parsed_once(capsys, monkeypatch):
    calls = count_codec_calls(monkeypatch)
    code, payload, _ = run_json(capsys, "convert", "Cl")
    assert code == 0 and payload["results"][0]["graph6"] == "Cl"
    assert calls["from_graph6"] == 1


def test_convert_bad_inline(capsys):
    code, _, err = run(capsys, "convert", "!!bad!!")
    assert code == 2 and "not a graph6 string" in err


@pytest.mark.parametrize(
    "raw, reason",
    [
        (":Fa@x^", "sparse6 input is not supported (byte 0)"),
        ("~?@?", "expected 336 adjacency bytes for order 64, found 0 (byte 4)"),
    ],
)
def test_bad_inline_keeps_parser_reason(capsys, raw, reason):
    for command in ("analyze", "convert"):
        code, _, err = run(capsys, command, raw)
        assert code == 2
        assert f"not a graph6 string: {raw!r}: {reason}" in err


@pytest.mark.parametrize(
    "command, raw",
    [("convert", " Cl"), ("convert", "Cl "), ("analyze", "Cl\n"), ("analyze", "\tCl\n")],
)
def test_inline_argument_stripped_like_a_file_line(capsys, command, raw):
    for output in ("json", "text"):
        want = run(capsys, command, "Cl", "--output", output)
        assert want[0] == 0
        assert run(capsys, command, raw, "--output", output) == want


def test_search_catalog_past_match_budget_exits_2(tmp_path, capsys, monkeypatch):
    # srg(16, 6, 2, 2) twice: one bucket, and no lex-min key to fall back on
    monkeypatch.setattr(domexc.canon, "MATCH_BUDGET", 2)
    rook = cartesian_product(complete(4), complete(4))
    f = tmp_path / "big.g6"
    f.write_text(to_graph6(rook) + "\n" + to_graph6(rook.relabel(tuple(range(15, -1, -1)))) + "\n")
    code, out, err = run(capsys, "search", "--catalog", str(f))
    assert code == 2 and out == ""
    assert err == "error: isomorphism test on order 16 exceeded 2 search nodes\n"
