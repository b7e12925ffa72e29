"""Tests for the command-line interface and the OMQ file format."""

import json

import pytest

from repro.cli import main
from repro.core.parser import ParseError, parse_omq


OMQ_TEXT = """
schema: P/1, T/1
rules:
    P(x) -> R(x, w)
    R(x, y) -> P(y)
    T(x) -> P(x)
query: q(x) :- R(x, y), P(y)
"""

OMQ_P = """
schema: P/1, T/1
rules:
    P(x) -> R(x, w)
    R(x, y) -> P(y)
    T(x) -> P(x)
query: q(x) :- P(x)
"""

OMQ_T_ONLY = """
schema: P/1, T/1
query: q(x) :- T(x)
"""


class TestOMQFileFormat:
    def test_parse_full_document(self):
        omq = parse_omq(OMQ_TEXT)
        assert len(omq.sigma) == 3
        assert omq.arity == 1
        assert omq.data_schema.arity("P") == 1

    def test_rules_optional(self):
        omq = parse_omq(OMQ_T_ONLY)
        assert not omq.sigma

    def test_ucq_query(self):
        omq = parse_omq(
            "schema: A/1, B/1\nquery: q(x) :- A(x) | q(x) :- B(x)"
        )
        assert len(omq.as_ucq()) == 2

    def test_multiple_query_lines(self):
        omq = parse_omq(
            "schema: A/1, B/1\nquery: q(x) :- A(x)\nquery: q(x) :- B(x)"
        )
        assert len(omq.as_ucq()) == 2

    def test_missing_schema_rejected(self):
        with pytest.raises(ParseError):
            parse_omq("query: q(x) :- A(x)")

    def test_missing_query_rejected(self):
        with pytest.raises(ParseError):
            parse_omq("schema: A/1")

    def test_comments_allowed(self):
        omq = parse_omq(
            "% a comment\nschema: A/1\nquery: q(x) :- A(x)"
        )
        assert omq.arity == 1

    def test_stray_line_rejected(self):
        with pytest.raises(ParseError):
            parse_omq("A(x) -> B(x)\nschema: A/1\nquery: q() :- A(x)")


@pytest.fixture
def files(tmp_path):
    omq1 = tmp_path / "q1.omq"
    omq1.write_text(OMQ_TEXT)
    omq2 = tmp_path / "q2.omq"
    omq2.write_text(OMQ_P)
    omq3 = tmp_path / "q3.omq"
    omq3.write_text(OMQ_T_ONLY)
    ontology = tmp_path / "rules.tgd"
    ontology.write_text("P(x) -> R(x, w)\nR(x, y) -> P(y)")
    db = tmp_path / "data.db"
    db.write_text("T(alice). P(bob).")
    return {
        "q1": str(omq1),
        "q2": str(omq2),
        "q3": str(omq3),
        "ontology": str(ontology),
        "db": str(db),
    }


class TestCLI:
    def test_classify(self, files, capsys):
        assert main(["classify", files["ontology"]]) == 0
        out = capsys.readouterr().out
        assert "L" in out and "preferred" in out

    def test_rewrite(self, files, capsys):
        assert main(["rewrite", files["q1"]]) == 0
        out = capsys.readouterr().out
        assert "P(?x)" in out and "T(?x)" in out

    def test_evaluate(self, files, capsys):
        assert main(["evaluate", files["q1"], files["db"]]) == 0
        out = capsys.readouterr().out
        assert "(alice)" in out and "(bob)" in out

    def test_contains_yes(self, files, capsys):
        assert main(["contains", files["q1"], files["q2"]]) == 0
        assert "contained" in capsys.readouterr().out

    def test_contains_no_prints_witness(self, files, capsys):
        assert main(["contains", files["q2"], files["q3"]]) == 1
        out = capsys.readouterr().out
        assert "not-contained" in out
        assert "witness database" in out

    def test_distributes(self, files, capsys):
        assert main(["distributes", files["q1"]]) == 0
        assert "distributes: True" in capsys.readouterr().out

    def test_rewritable(self, files, capsys):
        assert main(["rewritable", files["q1"], "--show"]) == 0
        out = capsys.readouterr().out
        assert "UCQ rewritable: True" in out

    def test_minimize(self, files, capsys, tmp_path):
        redundant = tmp_path / "redundant.omq"
        redundant.write_text(
            "schema: A/1\nrules:\n    A(x) -> B(x)\nquery: q(x) :- B(x), A(x)"
        )
        assert main(["minimize", str(redundant)]) == 0
        out = capsys.readouterr().out
        assert "query:" in out
        # A(x) is redundant given B(x)... no: B needs A — A(x) implies B(x),
        # so the minimized query keeps exactly one atom.
        assert out.count("A(") + out.count("B(") >= 1

    def test_explain(self, files, capsys, tmp_path):
        # Explanations need a terminating chase: use an acyclic ontology.
        terminating = tmp_path / "terminating.omq"
        terminating.write_text(
            "schema: T/1, P/1\nrules:\n    T(x) -> Pp(x)\n"
            "query: q(x) :- Pp(x)"
        )
        assert main(["explain", str(terminating), files["db"], "alice"]) == 0
        out = capsys.readouterr().out
        assert "[fact]" in out and "T(alice)" in out

    def test_explain_non_answer(self, files, capsys, tmp_path):
        terminating = tmp_path / "terminating.omq"
        terminating.write_text(
            "schema: T/1, P/1\nrules:\n    T(x) -> Pp(x)\n"
            "query: q(x) :- Pp(x)"
        )
        assert main(["explain", str(terminating), files["db"], "nobody"]) == 1

    def test_explain_diverging_chase(self, files, capsys):
        # The quickstart ontology's chase is infinite: honest exit code 2.
        assert main(
            ["explain", files["q1"], files["db"], "alice", "--budget", "200"]
        ) == 2


class TestJSONOutput:
    def test_contains_json_contained(self, files, capsys):
        assert main(["contains", files["q1"], files["q2"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "contained"
        assert payload["witness"] is None
        assert payload["method"]

    def test_contains_json_witness(self, files, capsys):
        assert main(["contains", files["q2"], files["q3"], "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "not-contained"
        assert payload["witness"]["database"]
        assert isinstance(payload["witness"]["answer"], list)

    def test_rewrite_json(self, files, capsys):
        assert main(["rewrite", files["q1"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert payload["count"] == len(payload["disjuncts"]) == 2

    def test_contains_json_through_engine(self, files, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = [
            "contains", files["q1"], files["q2"], "--json",
            "--cache-dir", cache,
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cached"] is False
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cached"] is True
        assert warm["verdict"] == cold["verdict"] == "contained"


#: Two derived hops, then 28 data hops: 30 atoms, so XRewrite's atom cap
#: (20 × budget) binds long before its query budget at ``--budget 5``.
LONG_PATH_OMQ = (
    "schema: E/2\nrules:\n    E(x, y) -> A(x, y)\nquery: q() :- "
    + ", ".join(
        f"{'A' if i < 2 else 'E'}(x{i}, x{i + 1})" for i in range(30)
    )
    + "\n"
)
#: The same 30 hops over the data relation alone.
LONG_E_PATH_OMQ = (
    "schema: E/2\nquery: q() :- "
    + ", ".join(f"E(x{i}, x{i + 1})" for i in range(30))
    + "\n"
)


class TestOneRunPath:
    """``contains`` and ``rewrite`` run one job object whether or not an
    engine flag routes it through a BatchEngine, so both paths give one
    answer."""

    @pytest.mark.parametrize("command", ["rewrite", "contains"])
    def test_engine_flags_change_no_answer(self, command, tmp_path, capsys):
        q = tmp_path / "q.omq"
        q.write_text(LONG_PATH_OMQ)
        e = tmp_path / "e.omq"
        e.write_text(LONG_E_PATH_OMQ)
        operands = [str(q)] if command == "rewrite" else [str(q), str(e)]
        argv = [command, *operands, "--budget", "5", "--json"]

        direct_code = main(argv)
        direct = json.loads(capsys.readouterr().out)
        engine_code = main(argv + ["--cache-dir", str(tmp_path / "cache")])
        routed = json.loads(capsys.readouterr().out)
        assert routed.pop("cached") is False
        assert "cached" not in direct
        assert routed == direct
        assert engine_code == direct_code


class TestInputErrors:
    """Bad input exits 3 with one ``error:`` line, never a verdict's code
    (0 contained, 1 not contained, 2 unknown), on either run path."""

    @pytest.mark.parametrize("engine", [False, True], ids=["direct", "engine"])
    def test_different_data_schemas(self, engine, files, tmp_path, capsys):
        other = tmp_path / "other.omq"
        other.write_text("schema: E/2\nquery: q(x) :- E(x, y)\n")
        argv = ["contains", files["q1"], str(other), "--json"]
        if engine:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: OMQs have different data schemas: "
            "{P/1, T/1} vs {E/2}\n"
        )

    def test_different_arities(self, files, tmp_path, capsys):
        boolean = tmp_path / "boolean.omq"
        boolean.write_text("schema: P/1, T/1\nquery: q() :- T(x)\n")
        assert main(["contains", files["q1"], str(boolean)]) == 3
        assert capsys.readouterr().err == (
            "error: OMQs have different arities: 1 vs 0\n"
        )

    @pytest.mark.parametrize(
        "command",
        [["contains", "BAD", "Q1"], ["contains", "Q1", "BAD", "--workers", "2"],
         ["rewrite", "BAD"], ["classify", "BAD"]],
        ids=["contains", "contains-engine", "rewrite", "classify"],
    )
    def test_parse_error_in_any_input(self, command, files, tmp_path, capsys):
        bad = tmp_path / "bad.omq"
        bad.write_text("schema: P/1\nquery: q(x) :- P(x\n")
        paths = {"BAD": str(bad), "Q1": files["q1"]}
        assert main([paths.get(arg, arg) for arg in command]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_lists_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["contains", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert (
            "exit codes: 0 contained, 1 not contained, 2 unknown, "
            "3 input error"
        ) in text


class TestServeFlags:
    def test_benchmark_replica_argv(self, tmp_path, monkeypatch):
        """The benchmark boots its replica through these exact flags."""
        import logging
        from pathlib import Path

        import repro.serve.server as server

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.serve import TASK_TIMEOUT_S, Replica

        tiers = tmp_path / "tiers"
        for workers, traced in ((1, False), (2, True)):
            argv = Replica(tmp_path, tiers, workers, traced).argv()
            configs = []
            monkeypatch.setattr(server, "run", configs.append)
            monkeypatch.setattr(logging, "basicConfig", lambda **kw: None)
            main(argv[argv.index("serve"):])
            (config,) = configs
            assert config.port == 0
            assert config.drain_grace_s == 2.0
            assert config.cache_dir == str(tiers / "cache")
            assert config.catalog == str(tiers / "catalog.sqlite")
            assert config.witness_store == str(tiers / "witnesses.sqlite")
            assert config.workers == workers
            if workers > 1:
                assert config.task_timeout == TASK_TIMEOUT_S
            else:
                assert config.task_timeout is None
            if traced:
                assert (config.trace_mode, config.max_traces) == ("always", 64)
            else:
                assert (config.trace_mode, config.max_traces) == ("off", 512)


class TestBatchCommand:
    @pytest.fixture
    def batch_file(self, files, tmp_path):
        ontology = tmp_path / "rules.tgd"
        ontology.write_text("P(x) -> R(x, w)\nR(x, y) -> P(y)")
        manifest = tmp_path / "batch.txt"
        manifest.write_text(
            "% a demo manifest\n"
            f"contains {files['q1']} {files['q2']}\n"
            f"contains {files['q2']} {files['q3']}\n"
            f"rewrite {files['q1']}\n"
            "classify rules.tgd\n"
        )
        return str(manifest)

    def test_batch_text_output(self, batch_file, capsys):
        assert main(["batch", batch_file]) == 0
        out = capsys.readouterr().out
        assert "contained via" in out
        assert "not-contained via" in out
        assert "2 disjuncts, complete" in out
        assert "preferred L" in out

    def test_batch_json_output(self, batch_file, capsys):
        assert main(["batch", batch_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 4
        kinds = [j["kind"] for j in payload["jobs"]]
        assert kinds == ["containment", "containment", "rewrite", "classify"]
        assert payload["jobs"][0]["verdict"] == "contained"
        assert payload["jobs"][1]["verdict"] == "not-contained"
        assert payload["jobs"][3]["best"] == "L"
        assert "cache" in payload["stats"]

    def test_batch_warm_cache(self, batch_file, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["batch", batch_file, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch", batch_file, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert out.count("(cached)") == 4

    def test_batch_rejects_bad_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("frobnicate something.omq\n")
        assert main(["batch", str(bad)]) == 2
        assert "unrecognized" in capsys.readouterr().err

    def test_batch_empty_manifest(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("% nothing here\n")
        assert main(["batch", str(empty)]) == 2

    def test_batch_parallel_matches_serial(self, batch_file, capsys):
        assert main(["batch", batch_file, "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["batch", batch_file, "--json", "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for s, p in zip(serial["jobs"], parallel["jobs"]):
            assert s.get("verdict") == p.get("verdict")
            assert s.get("count") == p.get("count")

    @pytest.fixture
    def dedup_file(self, files, tmp_path):
        """A manifest asking the same containment question twice, the
        second time through an α-renamed spelling of q1."""
        alpha = tmp_path / "q1_alpha.omq"
        alpha.write_text(
            "schema: P/1, T/1\n"
            "rules:\n"
            "    T(a) -> P(a)\n"
            "    R(u, v) -> P(v)\n"
            "    P(u) -> R(u, w)\n"
            "query: q(m) :- P(n), R(m, n)\n"
        )
        manifest = tmp_path / "dedup.txt"
        manifest.write_text(
            f"contains {files['q1']} {files['q2']}\n"
            f"contains {alpha} {files['q2']}\n"
        )
        return str(manifest)

    def test_batch_reports_coalesced_duplicates(self, dedup_file, capsys):
        assert main(["batch", dedup_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["stats"]["metrics"]
        assert metrics["engine.dedup.coalesced"] >= 1
        assert metrics["engine.containment.runs"] == 1
        coalesced = [j["coalesced"] for j in payload["jobs"]]
        assert coalesced == [False, True]
        verdicts = {j["verdict"] for j in payload["jobs"]}
        assert verdicts == {"contained"}

    def test_batch_dedup_marked_in_text_output(self, dedup_file, capsys):
        assert main(["batch", dedup_file]) == 0
        out = capsys.readouterr().out
        assert out.count("(deduplicated)") == 1

    def test_batch_stream_text(self, batch_file, capsys):
        assert main(["batch", batch_file, "--stream", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        # Every job shows up as a progress line, numbered by arrival.
        for n in range(1, 5):
            assert f"[{n}/4]" in captured.out
        assert "contained via" in captured.out
        assert "preferred L" in captured.out
        assert "4 jobs" in captured.err  # the summary still prints

    def test_batch_stream_json_keeps_stdout_clean(self, batch_file, capsys):
        assert main(["batch", batch_file, "--stream", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is one JSON document
        assert len(payload["jobs"]) == 4
        assert "[1/4]" in captured.err  # progress went to stderr

    def test_batch_stream_matches_plain_batch(self, batch_file, capsys):
        assert main(["batch", batch_file, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(
            ["batch", batch_file, "--json", "--stream", "--workers", "2"]
        ) == 0
        streamed = json.loads(capsys.readouterr().out)
        for s, p in zip(streamed["jobs"], plain["jobs"]):
            assert s.get("verdict") == p.get("verdict")
            assert s.get("count") == p.get("count")
            assert s.get("best") == p.get("best")
