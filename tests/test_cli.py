import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rbt_lab
from rbt_lab import (
    Graph,
    GraphSystem,
    balanced_bipartite_system,
    bipartite_triple,
    exhaustive_max_product,
    exhaustive_max_sum,
    nest_reduce,
    search,
    system_from_json,
    two_complete_one_empty,
)
from rbt_lab import certify as cert
from rbt_lab import cli
from rbt_lab.canonical import canonical_system_bits
from rbt_lab.cli import build_parser, main
from rbt_lab.reports import PreconditionError, RainbowFoundError

RAINBOW = '{"n":3,"graphs":[[[0,1]],[[1,2]],[[0,2]]]}'
TWO_COMPLETE = '{"n":5,"hex":["ff03","ff03","0000"]}'


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_rbt_rainbow(tmp_path, capsys):
    path = write(tmp_path, "s.json", RAINBOW)
    code, out, _ = run(capsys, ["check-rbt", "-i", path, "--output", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["rbt_free"] is False
    assert doc["witness"]["triangle"] == [0, 1, 2]


def test_check_rbt_free(tmp_path, capsys):
    path = write(tmp_path, "s.json", TWO_COMPLETE)
    code, out, _ = run(capsys, ["check-rbt", "-i", path])
    assert code == 0
    assert "free" in out


def test_check_rbt_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TWO_COMPLETE))
    code, out, _ = run(capsys, ["check-rbt", "--output", "json"])
    assert code == 0
    assert json.loads(out)["rbt_free"] is True


def test_certify_tight_sum(tmp_path, capsys):
    path = write(tmp_path, "s.json", TWO_COMPLETE)
    code, out, _ = run(
        capsys, ["certify", "--claim", "sum-t3", "-i", path, "--output", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tight"] is True
    assert doc["value"] == "20" and doc["bound"] == "20"
    assert doc["witness"]["equality_pattern"] is True


def test_certify_rainbow_input_exits_1(tmp_path, capsys):
    path = write(tmp_path, "s.json", RAINBOW)
    code, _, err = run(capsys, ["certify", "--claim", "sum-t3", "-i", path])
    assert code == 1
    assert "rainbow" in err


def test_certify_wrong_t_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.json", '{"n":3,"hex":["00","00"]}')
    code, _, err = run(capsys, ["certify", "--claim", "sum-t3", "-i", path])
    assert code == 2
    assert "error" in err


def test_certify_product_nested(tmp_path, capsys):
    k23 = Graph.complete_bipartite(2, 3).to_hex()
    path = write(tmp_path, "s.json", json.dumps({"n": 5, "hex": [k23] * 3}))
    code, out, _ = run(
        capsys, ["certify", "--claim", "product-nested", "-i", path, "--output", "json"]
    )
    assert code == 0
    assert json.loads(out)["value"] == "216"


# the stored outputs of `certify --claim prop31` on three copies of the star K_{1,3} + K_1
PROP31_STAR_JSON = """\
{
  "claim": "prop31",
  "value": "3",
  "bound": "3",
  "slack": "0",
  "tight": true,
  "witness": {
    "matching_size": 1,
    "p": 2,
    "q": 3,
    "alpha": "1",
    "beta": "3/2",
    "b_value": 3,
    "b_bound": 3,
    "cd_value": 6,
    "cd_bound": 12
  }
}
"""
PROP31_STAR_HUMAN = """\
claim prop31: value 3 vs bound 3 -> OK (slack 0, tight=True)
witness: {'matching_size': 1, 'p': 2, 'q': 3, 'alpha': '1', 'beta': '3/2', \
'b_value': 3, 'b_bound': 3, 'cd_value': 6, 'cd_bound': 12}
"""


def test_certify_prop31_matches_stored_documents(tmp_path, capsys):
    star = [[0, 1], [0, 2], [0, 3]]
    path = write(tmp_path, "s.json", json.dumps({"n": 5, "graphs": [star] * 3}))
    argv = ["certify", "--claim", "prop31", "-i", path]
    assert run(capsys, argv + ["--output", "json"]) == (0, PROP31_STAR_JSON, "")
    assert run(capsys, argv) == (0, PROP31_STAR_HUMAN, "")


# each claim's certifier, and whether it takes the three graphs or the system
CLAIM_CERTIFIERS = {
    "sum-t3": (cert.certify_sum_t3, False),
    "sum-t": (cert.certify_sum_t, False),
    "weighted": (cert.certify_weighted_sum, True),
    "nearly-matchable": (cert.certify_nearly_matchable, True),
    "product-nested": (cert.certify_product_nested, True),
    "conjecture": (cert.conjecture_margin, True),
    "prop31": (cert.certify_partition_bounds, True),
}
TRIPLE_CLAIMS = [claim for claim, (_, triple) in CLAIM_CERTIFIERS.items() if triple]
# a rainbow triple, a sum-t3 equality case with a triangle in B, three
# nested bipartite graphs, three stars (prop31 applies), and a system of
# four graphs
CERTIFY_SYSTEMS = [
    system_from_json(RAINBOW),
    two_complete_one_empty(5),
    bipartite_triple(6),
    system_from_json(json.dumps({"n": 5, "graphs": [[[0, 1], [0, 2], [0, 3]]] * 3})),
    balanced_bipartite_system(6, 4),
]


def _certifier_outcome(certifier, *args):
    """The exit code, report document and error the CLI must give for this call."""
    try:
        report = certifier(*args)
    except RainbowFoundError as exc:
        return 1, None, str(exc)
    except PreconditionError as exc:
        return 2, None, str(exc)
    return (0 if report.passed else 1), report.to_json_dict(), None


@pytest.mark.parametrize("claim", CLAIM_CERTIFIERS)
def test_certify_gives_each_claims_certifier_report(tmp_path, monkeypatch, capsys, claim):
    certifier, triple = CLAIM_CERTIFIERS[claim]
    # every certifier records its calls, so the one the CLI reaches is seen
    # to be looked up on the module when the claim runs
    called = []
    for other, _ in CLAIM_CERTIFIERS.values():
        monkeypatch.setattr(cert, other.__name__,
                            lambda *args, _f=other: called.append(_f) or _f(*args))
    for system in CERTIFY_SYSTEMS:
        if triple and system.t != 3:
            continue
        code, doc, error = _certifier_outcome(certifier, *(system.graphs if triple else [system]))
        path = write(tmp_path, "s.json", json.dumps(system.to_json_dict()))
        called.clear()
        got, out, err = run(capsys, ["certify", "--claim", claim, "-i", path, "--output", "json"])
        assert got == code
        assert called[:1] == [certifier]
        if doc is None:
            assert out == "" and error in err
        else:
            assert json.loads(out) == doc


@pytest.mark.parametrize("claim", TRIPLE_CLAIMS)
def test_certify_triple_claim_on_four_graphs_exits_2(tmp_path, capsys, claim):
    path = write(tmp_path, "s.json", json.dumps(CERTIFY_SYSTEMS[-1].to_json_dict()))
    code, out, err = run(capsys, ["certify", "--claim", claim, "-i", path])
    assert (code, out) == (2, "")
    assert f"claim {claim} needs exactly 3 graphs, got 4" in err


def test_certify_choices_are_the_claim_table():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    claim = next(a for a in commands.choices["certify"]._actions if a.dest == "claim")
    assert list(claim.choices) == list(cli._CLAIMS) == list(CLAIM_CERTIFIERS)


@pytest.mark.parametrize("argv", [
    ["search", "--objective", "product", "--n", "4", "--exhaustive"],
    ["check-rbt", "--format", "json"],
    ["certify", "--claim", "sum-t3", "--format", "hex"],
])
def test_removed_flags_are_unrecognized(capsys, argv):
    flag = next(a for a in argv if a in ("--exhaustive", "--format"))
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


# every argv that argparse answers itself, with help or a usage error
PARSER_EXITS = [
    [],
    ["-h"],
    ["bogus"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["search", "--objective", "sum", "--n", "4", "--bogus"],
    ["certify", "--claim", "nope"],
    ["search", "--objective", "sum", "--n", "x"],
    ["search", "--objective", "sum"],
    ["--output", "json", "search", "--objective", "sum", "--n", "4"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_full_parser(monkeypatch, capsys, argv):
    # fixed width, so both help texts wrap alike
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    expected = (2 if exc.value.code not in (0, None) else 0, *capsys.readouterr())
    assert run(capsys, argv) == expected


def test_a_call_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    argv = ["search", "--objective", "sum", "--n", "4", "--t", "2", "--output", "json"]
    assert run(capsys, argv)[0] == 0
    assert built == ["rbt-lab search"]
    # arguments the command's parser leaves over go to the full parser
    build_parser.cache_clear()
    built.clear()
    code, out, err = run(capsys, argv + ["--bogus"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --bogus" in err
    assert built == ["rbt-lab search", "rbt-lab"] + [f"rbt-lab {name}" for name in cli._COMMANDS]


def test_parse_errors_exit_2(tmp_path, capsys):
    for text, message in (
        ('{"n":3,"graphs":[[[0,0]]]}', "error"),
        ("{broken", "malformed JSON at line 1, column 2"),
        ('{"n":70,"hex":["00"]}', "error"),
        ('{"n":3,"graphs":[[[0,1],[0,1]]]}', "error"),
        ('{"n":3,"hex":["03 ","00","00"]}', "error"),
        ('{"n":6,"hex":["03 04","0000","0000"]}', "error"),
        # the last copy of a key must not silently win: the first "hex" is a
        # rainbow triangle, the first "n" fits the graphs
        ('{"n":3,"hex":["01","04","02"],"hex":["00","00","00"]}', "duplicate key 'hex'"),
        ('{"n":3,"n":4,"hex":["00","00","00"]}', "duplicate key 'n'"),
        ('{"n":3,"graphs":[[[0,1]],[[1,2]],[[0,2]]],"graphs":[[],[],[]]}',
         "duplicate key 'graphs'"),
    ):
        path = write(tmp_path, "bad.json", text)
        code, _, err = run(capsys, ["check-rbt", "-i", path])
        assert code == 2
        assert "error" in err and message in err


def test_search_product_cli(capsys):
    code, out, _ = run(
        capsys,
        ["search", "--objective", "product", "--n", "4", "--output", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best_value"] == "64"
    assert doc["bound_exceeded"] is False
    assert doc["theory_bound"] == "64"


def test_search_sum_human(capsys):
    code, out, _ = run(capsys, ["search", "--objective", "sum", "--n", "3", "--t", "3"])
    assert code == 0
    assert "6" in out


def test_search_local_cli(capsys):
    code, out, _ = run(
        capsys,
        ["search", "--objective", "product", "--n", "6", "--local", "--seed", "4",
         "--restarts", "2", "--output", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert int(doc["best_value"]) >= int(doc["references"]["seed_value"])


@pytest.mark.parametrize("flags, message", [
    (["--local", "--seed", "1", "--checkpoint", "run.json"], "exhaustive search only"),
    (["--local", "--seed", "1", "--iso-pruning"], "exhaustive search only"),
    (["--seed", "3"], "local search only"),
    (["--local", "--seed", "4", "--iters", "2000"], "unrecognized arguments: --iters"),
    (["--restarts", "3"], "--restarts applies to local search only"),
])
def test_search_rejects_flags_the_mode_ignores(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["search", "--objective", "product", "--n", "4"] + flags)
    assert code == 2
    assert out == ""
    assert message in err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["extremal", "--kind", "two-complete", "--n", "6", "--t", "9"],
     "--t applies to --kind bipartite-k only"),
    (["extremal", "--kind", "bipartite-triple", "--n", "6", "--t", "3"],
     "--t applies to --kind bipartite-k only"),
    (["ineq-scan", "--which", "31", "--step", "1/3", "--max", "2"],
     "--step applies to --which 32 only"),
    (["ineq-scan", "--which", "31", "--max", "2"], "--max applies to --which 32 only"),
    (["ineq-scan", "--which", "32", "--l-max", "5"], "--l-max applies to --which 31 only"),
    (["ineq-scan", "--which", "32", "--q-max", "5"], "--q-max applies to --which 31 only"),
])
def test_flags_of_another_kind_exit_2(capsys, argv, message):
    code, out, err = run(capsys, argv + ["--output", "json"])
    assert code == 2
    assert out == ""
    assert message in err


# a checkpoint as written before the chunk record was flattened: string-packed
# per-value tie buckets and no "format" key in the header
OLD_FORMAT_CHECKPOINT = {
    "header": {"objective": "product", "n": 4, "t": 3, "iso_pruning": False, "chunk_size": 64,
               "num_chunks": 1, "seed_value": "64"},
    "done": {"0": {"best": "64", "ties": {"64": [["30", "30", "30"]]},
                   "tie_overflow": {"64": False}, "nodes": "1451", "pruned": "2261"}},
}


def test_search_old_checkpoint_format_exits_2(tmp_path, capsys):
    path = write(tmp_path, "old.json", json.dumps(OLD_FORMAT_CHECKPOINT))
    with pytest.raises(ValueError, match="different search"):
        exhaustive_max_product(4, checkpoint=path)
    code, out, err = run(capsys, ["search", "--objective", "product", "--n", "4",
                                  "--checkpoint", path, "--output", "json"])
    assert code == 2
    assert out == ""
    assert "different search" in err
    assert json.loads((tmp_path / "old.json").read_text()) == OLD_FORMAT_CHECKPOINT
    # a fresh file carries the format version that refused the old one
    fresh = tmp_path / "new.json"
    exhaustive_max_product(4, checkpoint=str(fresh))
    assert json.loads(fresh.read_text())["header"]["format"] == 10


def test_search_format_2_checkpoint_exits_2(tmp_path, capsys):
    # formats 2 to 6 stored the same record shape, but their nodes and
    # pruned were counted by the walk before the exact last-slot bound, by
    # the bit-vector scoring of the last free graph, (format 4, t = 2)
    # over every first graph, and (format 5) over every order of the
    # graphs, so a resume would mix two kinds of counts; a format 6
    # iso-pruned chunk was a run of classes, not of their parent classes,
    # a format 7 chunk without iso-pruning was a run of first graphs, and
    # a format 8 chunk's parents and pruned count took in the classes with
    # too few edges to reach the seed value, and a format 9 chunk's pruned
    # count bounded a G2 subtree by |G1| rather than by its own largest graph
    path = tmp_path / "run.json"
    argv = ["search", "--objective", "product", "--n", "4", "--checkpoint", str(path),
            "--output", "json"]
    assert run(capsys, argv)[0] == 0
    fresh = json.loads(path.read_text())
    for old_format in (2, 3, 4, 5, 6, 7, 8, 9):
        path.write_text(json.dumps({**fresh, "header": {**fresh["header"], "format": old_format}}))
        before = path.read_bytes()
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "different search" in err
        assert path.read_bytes() == before


@pytest.mark.parametrize("flags, message", [
    (["--threads", "0"], "threads must be >= 1"),
    (["--witness-cap", "0"], "witness_cap must be >= 1"),
    (["--local", "--seed", "1", "--restarts", "0"], "restarts must be >= 1"),
    (["--local"], "local search requires a seed"),
])
def test_search_range_checks_exit_2(capsys, flags, message):
    code, out, err = run(capsys, ["search", "--objective", "product", "--n", "4"] + flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_search_iso_pruning_beyond_canonical_range_exits_2(monkeypatch, capsys):
    # n = 9 would otherwise start canonicalizing 2^36 graphs
    monkeypatch.setattr(search, "canonical_bits", lambda *args: pytest.fail("canonicalized"))
    monkeypatch.setattr(search, "_search_chunk", lambda *args: pytest.fail("chunk searched"))
    with pytest.raises(ValueError, match="canonicalization supported up to n=8"):
        exhaustive_max_product(9)
    for flags in ([], ["--iso-pruning"]):
        code, out, err = run(capsys, ["search", "--objective", "product", "--n", "9",
                                      "--output", "json"] + flags)
        assert code == 2
        assert out == ""
        assert "canonicalization supported up to n=8" in err


def test_search_t1_takes_the_checks_of_every_search(tmp_path, capsys):
    # the canonical range bounds the first level of a walk, and t = 1 walks none
    code, out, err = run(capsys, ["search", "--objective", "sum", "--n", "9", "--t", "1",
                                  "--iso-pruning", "--output", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["best_value"] == "36"
    missing = tmp_path / "missing" / "ck.json"
    code, out, err = run(capsys, ["search", "--objective", "sum", "--n", "4", "--t", "1",
                                  "--checkpoint", str(missing), "--output", "json"])
    assert code == 2
    assert out == ""
    assert "cannot use checkpoint" in err
    # a usable checkpoint is written, and resuming from it gives the same report
    ckpt = tmp_path / "run.json"
    argv = ["search", "--objective", "sum", "--n", "4", "--t", "1", "--checkpoint", str(ckpt),
            "--output", "json"]
    docs = []
    for _ in range(2):
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert (docs[0]["best_value"], docs[0]["witnesses"]) == ("6", [["3f"]])
    assert (docs[0]["nodes"], docs[0]["pruned"], docs[0]["references"]) == ("1", "0", {})
    assert json.loads(ckpt.read_text())["done"]["0"]["witnesses"] == [[63]]


@pytest.mark.parametrize("n", ["0", "-3", "65"])
@pytest.mark.parametrize("flags", [["--objective", "sum", "--t", "1"],
                                   ["--objective", "sum", "--t", "2"],
                                   ["--objective", "sum", "--t", "3"],
                                   ["--objective", "product"],
                                   ["--objective", "product", "--local", "--seed", "1"]])
def test_search_vertex_count_exits_2_with_one_message(tmp_path, capsys, n, flags):
    ckpt = tmp_path / "run.json"
    extra = [] if "--local" in flags else ["--checkpoint", str(ckpt)]
    code, out, err = run(capsys, ["search", "--n", n] + flags + extra + ["--output", "json"])
    assert code == 2
    assert out == ""
    assert f"vertex count must be in 1..64, got {n}" in err
    # no checkpoint file is left behind
    assert not ckpt.exists()


def _forge_bound_exceeded(record):
    record.update(best=10**9, witnesses=[[1, 2, 3]])


@pytest.mark.parametrize("damage, message", [
    (lambda record: record.pop("nodes"), "keys"),
    (lambda record: record.update(best="999"), "non-negative integers"),
    (_forge_bound_exceeded, "of value 1000000000"),
])
def test_search_damaged_checkpoint_exits_2(tmp_path, capsys, damage, message):
    ckpt = tmp_path / "run.json"
    argv = ["search", "--objective", "product", "--n", "4", "--checkpoint", str(ckpt),
            "--output", "json"]
    assert run(capsys, argv)[0] == 0
    doc = json.loads(ckpt.read_text())
    damage(doc["done"]["0"])
    ckpt.write_text(json.dumps(doc))
    before = ckpt.read_bytes()
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert ckpt.read_bytes() == before


FORGED_CHUNK_0 = '"0": {"best": 99, "witnesses": [], "nodes": 1, "pruned": 0}, '


@pytest.mark.parametrize("forge, message", [
    # only the last copy of a key used to be read, so a forged first copy passed
    (lambda text: text.replace('"done": {', '"done": {' + FORGED_CHUNK_0, 1),
     "duplicate key '0'"),
    (lambda text: text.replace('"nodes": ', '"nodes": 999999, "nodes": ', 1),
     "duplicate key 'nodes'"),
    (lambda text: text[: len(text) // 2], "malformed JSON"),
    (lambda text: '{"nodes": 999999, ' + text[1:], "exactly a header and done"),
])
def test_search_forged_checkpoint_document_exits_2(tmp_path, capsys, forge, message):
    ckpt = tmp_path / "run.json"
    argv = ["search", "--objective", "sum", "--n", "4", "--t", "3", "--checkpoint", str(ckpt),
            "--output", "json"]
    assert run(capsys, argv)[0] == 0
    text = ckpt.read_text()
    forged = forge(text)
    assert forged != text
    ckpt.write_text(forged)
    before = ckpt.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {ckpt}")) as refused:
        exhaustive_max_sum(4, 3, checkpoint=str(ckpt))
    assert message in str(refused.value)
    assert ckpt.read_bytes() == before
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"checkpoint {ckpt}" in err and message in err
    assert ckpt.read_bytes() == before


DEEP_JSON = "[" * 100_000


def test_check_rbt_deeply_nested_json_exits_2(tmp_path, capsys):
    path = write(tmp_path, "deep.json", DEEP_JSON)
    code, out, err = run(capsys, ["check-rbt", "--input", path])
    assert (code, out) == (2, "")
    assert "error: JSON nested too deeply" in err


def test_search_deeply_nested_checkpoint_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "run.json"
    ckpt.write_text(DEEP_JSON)
    code, out, err = run(capsys, ["search", "--objective", "sum", "--n", "4", "--t", "3",
                                  "--checkpoint", str(ckpt), "--output", "json"])
    assert (code, out) == (2, "")
    assert f"cannot use checkpoint {ckpt}: JSON nested too deeply" in err
    assert ckpt.read_text() == DEEP_JSON


def test_search_unusable_checkpoint_path_exits_2(tmp_path, monkeypatch, capsys):
    # a directory cannot be read, and a file in a missing directory cannot be
    # written; both are refused before any chunk is searched
    monkeypatch.setattr(search, "_search_chunk", lambda *args: pytest.fail("chunk searched"))
    directory = tmp_path / "ckdir"
    directory.mkdir()
    for path in (directory, tmp_path / "missing" / "ck.json"):
        with pytest.raises(ValueError, match="cannot use checkpoint"):
            exhaustive_max_product(4, checkpoint=str(path))
        code, out, err = run(capsys, ["search", "--objective", "product", "--n", "4",
                                      "--checkpoint", str(path), "--output", "json"])
        assert code == 2
        assert out == ""
        assert "cannot use checkpoint" in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_search_checkpoint_and_threads_flags(tmp_path, capsys):
    ckpt = tmp_path / "run.json"
    argv = ["search", "--objective", "product", "--n", "4",
            "--threads", "2", "--checkpoint", str(ckpt), "--output", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["best_value"] == "64"
    assert ckpt.exists()
    # resuming from a complete checkpoint reproduces the report
    code, out2, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out2)["best_value"] == "64"


def test_search_theory_bound_only_where_a_theorem_applies(capsys):
    # sum-t3 needs n >= 3 and no theorem bounds t <= 2: report null, exit 0
    for n, t, best in (("2", "3", "3"), ("3", "2", "6")):
        code, out, _ = run(capsys, ["search", "--objective", "sum", "--n", n, "--t", t,
                                    "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["best_value"] == best
        assert doc["theory_bound"] is None
        assert doc["bound_exceeded"] is False
    code, out, _ = run(capsys, ["search", "--objective", "sum", "--n", "2", "--t", "3"])
    assert code == 0 and "no theory bound" in out
    # the product objective is defined for triples only
    code, _, err = run(capsys, ["search", "--objective", "product", "--n", "4", "--t", "5"])
    assert code == 2
    assert "t = 3" in err


@pytest.mark.parametrize("flags, message", [
    (["--objective", "product", "--n", "9"], "canonicalization supported up to n=8"),
    (["--objective", "sum", "--n", "9", "--t", "3", "--iso-pruning"],
     "canonicalization supported up to n=8"),
    (["--objective", "sum", "--n", "4", "--t", "33"], "t must be <= 32, got 33"),
    # deeper than the interpreter's recursion limit
    (["--objective", "sum", "--n", "1", "--t", "2000"], "t must be <= 32, got 2000"),
])
def test_search_limits_exit_2(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.setattr(search, "_search_chunk", lambda *args: pytest.fail("chunk searched"))
    path = tmp_path / "ck.json"
    code, out, err = run(capsys, ["search"] + flags + ["--checkpoint", str(path),
                                                       "--output", "json"])
    assert code == 2
    assert out == ""
    assert message in err
    assert not path.exists()


def test_search_t2_is_not_budgeted(capsys):
    # the written-down t <= 2 answer is never walked, so no limit of a walk
    # applies, with --iso-pruning or without
    full = Graph.complete(9).to_hex()
    for flags in ([], ["--iso-pruning"]):
        code, out, err = run(capsys, ["search", "--objective", "sum", "--n", "9", "--t", "2",
                                      "--output", "json"] + flags)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["best_value"], doc["witnesses"]) == ("72", [[full, full]])
        assert (doc["nodes"], doc["pruned"]) == ("1", "0")
    code, out, _ = run(capsys, ["search", "--objective", "sum", "--n", "64", "--t", "2",
                                "--output", "json"])
    assert code == 0
    assert json.loads(out)["best_value"] == "4032"


@pytest.mark.parametrize("flags", [["--objective", "sum", "--n", "5", "--t", "3"],
                                   ["--objective", "product", "--n", "5"]])
def test_search_iso_pruning_flag_changes_nothing(capsys, flags):
    # every exhaustive search walks one first graph per class, so the flag,
    # kept for old command lines, leaves the report as it is
    docs = []
    for extra in ([], ["--iso-pruning"]):
        code, out, err = run(capsys, ["search"] + flags + extra + ["--output", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        doc.pop("wall_time")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert "iso_pruning" not in docs[0]["config"]


def test_search_n6_reaches_the_theory_values(capsys):
    # expected values from the sum theorem, n(n-1) attained by (K6, K6, empty)
    # in any order, and from the bipartite constructor for the product
    full, empty = Graph.complete(6).to_hex(), Graph.empty(6).to_hex()
    code, out, _ = run(capsys, ["search", "--objective", "sum", "--n", "6", "--t", "3",
                                "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["best_value"] == "30"
    assert sorted(doc["witnesses"]) == sorted([[empty, full, full], [full, empty, full],
                                               [full, full, empty]])
    assert not doc["witness_overflow"]
    code, out, _ = run(capsys, ["search", "--objective", "product", "--n", "6",
                                "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["best_value"] == "729" == str(9**3)
    triple = canonical_system_bits(6, tuple(g.to_bits() for g in bipartite_triple(6).graphs))
    assert doc["witnesses"] == [[Graph.from_bits(6, g).to_hex() for g in triple]]
    assert doc["bound_exceeded"] is False


def test_extremal_kinds(capsys):
    code, out, _ = run(
        capsys, ["extremal", "--kind", "two-complete", "--n", "5", "--output", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "20" and doc["rbt_free"] is True

    code, out, _ = run(
        capsys,
        ["extremal", "--kind", "bipartite-k", "--n", "5", "--t", "4", "--output", "json"],
    )
    assert json.loads(out)["value"] == "24"

    code, out, _ = run(
        capsys,
        ["extremal", "--kind", "bipartite-triple", "--n", "4", "--output", "json",
         "--compact"],
    )
    doc = json.loads(out)
    assert doc["value"] == "64"
    assert "hex" in doc


def test_extremal_round_trips_into_check(capsys, tmp_path, monkeypatch):
    code, out, _ = run(
        capsys, ["extremal", "--kind", "bipartite-triple", "--n", "6", "--output",
                 "json", "--compact"]
    )
    doc = json.loads(out)
    system = system_from_json(json.dumps({"n": doc["n"], "hex": doc["hex"]}))
    assert system.t == 3
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, ["check-rbt", "--output", "json"])
    assert code == 0


def test_reduce_cli(tmp_path, capsys):
    doc = {"n": 3, "graphs": [[[0, 1]], [[1, 2]], [[0, 1], [1, 2]]]}
    path = write(tmp_path, "s.json", json.dumps(doc))
    code, out, _ = run(capsys, ["reduce", "-i", path, "--output", "json"])
    assert code == 0
    reduced = system_from_json(out)
    counts = [g.edge_count() for g in reduced.graphs]
    assert counts == [0, 2, 2]


def test_partition_cli(tmp_path, capsys):
    path = write(tmp_path, "s.json", '{"n":3,"graphs":[[[0,1],[1,2]]]}')
    code, out, _ = run(capsys, ["partition", "-i", path, "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["partition"]["x_side"] == [1]

    tri = write(tmp_path, "t.json", '{"n":3,"graphs":[[[0,1],[1,2],[0,2]]]}')
    code, _, err = run(capsys, ["partition", "-i", tri])
    assert code == 2
    assert "triangle" in err


def test_ineq_scan_cli(capsys):
    code, out, _ = run(
        capsys, ["ineq-scan", "--which", "31", "--l-max", "5", "--q-max", "10",
                 "--output", "json"]
    )
    assert code == 0
    assert json.loads(out)["violations"] == []

    code, out, _ = run(
        capsys, ["ineq-scan", "--which", "32", "--step", "1/10", "--max", "2",
                 "--output", "json"]
    )
    assert code == 0
    assert json.loads(out)["violations"] == []

    # degenerate grid: single point at the origin
    code, out, _ = run(capsys, ["ineq-scan", "--which", "32", "--max", "0"])
    assert code == 0


def test_usage_errors_exit_2(capsys):
    assert main(["certify"]) == 2  # missing --claim
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    # a zero denominator is bad input, not a violation found by the scan
    for flag in ("--step", "--max"):
        code, out, err = run(capsys, ["ineq-scan", "--which", "32", flag, "1/0"])
        assert code == 2
        assert out == ""
        assert "non-zero denominator" in err


LEAN_START = r"""
import contextlib, io, json, sys
import rbt_lab.cli

POOL = ("concurrent.futures", "multiprocessing")

def loaded():
    return [m for m in POOL if m in sys.modules]

def run(argv, stdin=""):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rbt_lab.cli.main(argv)
    return code, out.getvalue()

result = {"import": loaded()}
result["codes"] = [
    run(["check-rbt"], '{"n":5,"hex":["ff03","ff03","0000"]}')[0],
    run(["search", "--objective", "product", "--n", "4"])[0],
    run(["search", "--objective", "product", "--n", "6", "--local", "--seed", "4",
         "--restarts", "2"])[0],
]
result["single"] = loaded()
reports = []
for threads in ("1", "2"):
    code, out = run(["search", "--objective", "sum", "--n", "8", "--t", "3",
                     "--threads", threads, "--output", "json"])
    result["codes"].append(code)
    reports.append(json.loads(out))
result["fanned_out"] = loaded()
result["reports"] = reports
print(json.dumps(result))
"""


def test_single_threaded_commands_never_load_the_pool():
    # a fresh interpreter, since this one has loaded the pool already
    env = dict(os.environ, PYTHONPATH=str(Path(rbt_lab.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", LEAN_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["import"] == result["single"] == []
    assert result["codes"] == [0, 0, 0, 0, 0]
    # sum (8, 3) has 81 parent classes with enough edges in 2 chunks, so
    # --threads 2 fans out and loads the pool
    assert result["fanned_out"] == ["concurrent.futures", "multiprocessing"]
    one, two = result["reports"]
    assert (one["config"].pop("threads"), two["config"].pop("threads")) == (1, 2)
    del one["wall_time"], two["wall_time"]
    assert one == two


LIGHT_IMPORT = r"""
import gc, json, sys
import rbt_lab.cli
from rbt_lab import Graph, partition_bound_params

HEAVY = ("dataclasses", "inspect", "fractions")
result = {"import": [m for m in HEAVY if m in sys.modules], "frozen": gc.get_freeze_count()}
partition_bound_params(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
result["rational"] = "fractions" in sys.modules
print(json.dumps(result))
"""


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    # -S: no site hook may import either on the module's behalf
    env = dict(os.environ, PYTHONPATH=str(Path(rbt_lab.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-S", "-c", LIGHT_IMPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["import"] == []
    assert result["frozen"] > 0
    # the first rational formed loads fractions
    assert result["rational"] is True


LEAN_RATIOS = r"""
import contextlib, io, json, sys
import rbt_lab.cli

STAR = '{"n": 5, "graphs": [[[0, 1], [0, 2], [0, 3]], [[0, 1], [0, 2], [0, 3]], [[0, 1], [0, 2], [0, 3]]]}'
result = []
for argv, stdin in ((["certify", "--claim", "prop31"], STAR),
                    (["ineq-scan", "--which", "31", "--l-max", "6", "--q-max", "12"], "")):
    for output in ("human", "json"):
        sys.stdin, out = io.StringIO(stdin), io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rbt_lab.cli.main(argv + ["--output", output])
        result.append([code, out.getvalue(), "fractions" in sys.modules])
print(json.dumps(result))
"""


def test_prop31_and_scan_31_never_load_fractions(capsys):
    # a fresh interpreter, since this one has loaded fractions already
    env = dict(os.environ, PYTHONPATH=str(Path(rbt_lab.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-S", "-c", LEAN_RATIOS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert [loaded for _, _, loaded in result] == [False] * 4
    assert result[:2] == [[0, PROP31_STAR_HUMAN, False], [0, PROP31_STAR_JSON, False]]
    for (code, out, _), output in zip(result[2:], ("human", "json")):
        expected = run(capsys, ["ineq-scan", "--which", "31", "--l-max", "6", "--q-max", "12",
                                "--output", output])
        assert (code, out) == expected[:2]


def test_closed_stdout_exits_2_without_a_traceback():
    # the report is far larger than a pipe's buffer, so writing it meets the closed end
    env = dict(os.environ, PYTHONPATH=str(Path(rbt_lab.__file__).resolve().parent.parent))
    argv = ["extremal", "--kind", "bipartite-k", "--n", "64", "--t", "8", "--output", "json"]
    proc = subprocess.Popen([sys.executable, "-c", "from rbt_lab.cli import entry; entry()", *argv],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.read(100).startswith("{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["error: stdout was closed before the report was written"]


def test_stdout_closed_at_start_exits_2():
    # with fd 1 closed at start the interpreter sets sys.stdout to None
    env = dict(os.environ, PYTHONPATH=str(Path(rbt_lab.__file__).resolve().parent.parent))
    argv = ["extremal", "--kind", "bipartite-k", "--n", "8", "--output", "json"]
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-c",
                           "from rbt_lab.cli import entry; entry()", *argv],
                          env=env, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: stdout is closed, so no report can be written"]


# pieces of the random documents: every JSON escape, non-ASCII text and the
# numbers whose spelling json.dumps decides
TEXT_PIECES = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "漢", "\U0001f600",
               "a", "key", " "]
FLOATS = [-0.0, 1e-7, 1e16, 0.1, 2.5]
INTS = [0, 7, -1, -3000, 2**63, 2**64 + 1, -(2**64) - 5, 10**30]


def random_json(rng, depth=0):
    """One random document json.dumps can write, biased to the writer's join paths."""
    kind = rng.randrange(11 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(INTS + [rng.randint(-100, 100)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice(FLOATS)
    if kind in (3, 4):
        return "".join(rng.choices(TEXT_PIECES, k=rng.randrange(5)))
    if kind == 5:
        # a list of ints, now and then with a bool among them
        items = [rng.choice(INTS) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.3:
            items.insert(rng.randrange(len(items) + 1), rng.choice([True, False]))
        return items
    if kind == 6:
        # an edge list, now and then with a bool, a float or a third member in a pair
        pairs = [[rng.randrange(64), rng.choice(INTS)] for _ in range(rng.randrange(1, 6))]
        odd = rng.randrange(5)
        if odd == 1:
            pairs[rng.randrange(len(pairs))][rng.randrange(2)] = rng.choice([True, False])
        elif odd == 2:
            pairs[rng.randrange(len(pairs))][rng.randrange(2)] = rng.choice(FLOATS)
        elif odd == 3:
            pairs[rng.randrange(len(pairs))].append(rng.randrange(64))
        return pairs
    if kind == 7:
        return rng.choice([[], {}, [[]], [{}], {"": []}])
    if kind in (8, 9):
        return {"".join(rng.choices(TEXT_PIECES, k=rng.randrange(4))): random_json(rng, depth + 1)
                for _ in range(rng.randrange(1, 5))}
    return [random_json(rng, depth + 1) for _ in range(rng.randrange(1, 5))]


def test_json_writer_matches_json_dumps_indent_2(capsys):
    rng = random.Random(2929)
    for _ in range(3000):
        doc = random_json(rng)
        assert cli._indented(doc, "") == json.dumps(doc, indent=2), doc
    doc = {"graphs": [[[0, 1], [1, 2]], []], "rbt_free": True, "wall_time": 0.25}
    cli._emit_json(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_json_writer_falls_back_to_json_dumps_off_its_paths():
    # tuples and dicts with non-str keys go to json.dumps; a pair holding a
    # bool or a float is written member by member
    for doc in [{"a": (1, 2), 3: [True]}, [[(0, 1)], {"x": {False: None}}], [[1, 2], (3, 4)],
                {"flag": [[1, True]], "v": [1.0, 2]}]:
        assert cli._indented(doc, "") == json.dumps(doc, indent=2)


def random_system(rng, n, t):
    m = n * (n - 1) // 2
    return GraphSystem.of(*(Graph.from_bits(n, rng.getrandbits(m) & rng.getrandbits(m))
                            for _ in range(t)))


@pytest.mark.parametrize("compact_in", [False, True])
@pytest.mark.parametrize("compact_out", [False, True])
def test_reduce_at_n64_prints_json_dumps_indent_2(tmp_path, capsys, compact_in, compact_out):
    system = random_system(random.Random(6464), 64, 4)
    path = write(tmp_path, "s.json", system.to_json(compact=compact_in))
    argv = ["reduce", "-i", path, "--output", "json"] + ["--compact"] * compact_out
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert doc == nest_reduce(system).to_json_dict(compact=compact_out)


def is_colex(pairs):
    """Each pair [u, v] has u < v, and the pairs ascend by v, then u."""
    return all(u < v for u, v in pairs) and pairs == sorted(pairs, key=lambda e: (e[1], e[0]))


def test_reduce_and_extremal_edge_lists_print_json_dumps_indent_2(tmp_path, capsys):
    # the writer reads the edge lists off each graph's rows: every n meets it,
    # each with two t in 1..8, with empty graphs among the random ones
    rng = random.Random(6565)
    path = tmp_path / "s.json"
    for n in range(1, 65):
        m = n * (n - 1) // 2
        ts = (1 + n % 8, 8 - n % 8)
        for t in ts:
            system = GraphSystem.of(*(Graph.from_bits(n, 0 if rng.random() < 0.2 else
                                                      rng.getrandbits(m) & rng.getrandbits(m))
                                      for _ in range(t)))
            path.write_text(system.to_json())
            code, out, err = run(capsys, ["reduce", "-i", str(path), "--output", "json"])
            assert (code, err) == (0, ""), (n, t)
            assert out == json.dumps(json.loads(out), indent=2) + "\n", (n, t)
            assert system_from_json(out) == nest_reduce(system), (n, t)
            assert all(is_colex(pairs) for pairs in json.loads(out)["graphs"]), (n, t)
        built = [(["--kind", "bipartite-k", "--t", str(t)], balanced_bipartite_system(n, t))
                 for t in ts]
        built += [(["--kind", "two-complete"], two_complete_one_empty(n)),
                  (["--kind", "bipartite-triple"], bipartite_triple(n))]
        for flags, system in built:
            code, out, err = run(capsys, ["extremal", "--n", str(n), "--output", "json"] + flags)
            assert (code, err) == (0, ""), (n, flags)
            assert out == json.dumps(json.loads(out), indent=2) + "\n", (n, flags)
            assert system_from_json(out) == system, (n, flags)
            assert all(is_colex(pairs) for pairs in json.loads(out)["graphs"]), (n, flags)


def test_human_edge_lists_print_each_edge_as_before():
    # `_fmt_edges` fills one template from the rows; the line it writes is the
    # join of one "(u,v)" per edge of Graph.edges(), "(none)" for no edges
    rng = random.Random(1729)
    for n in range(1, 65):
        m = n * (n - 1) // 2
        for g in (Graph.empty(n), Graph.from_bits(n, rng.getrandbits(m)),
                  Graph.from_bits(n, rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m))):
            expected = " ".join(f"({e.u},{e.v})" for e in g.edges()) or "(none)"
            assert cli._fmt_edges(g) == expected, n
