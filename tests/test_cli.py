import io
import json

import pytest

from rbt_lab import Graph, exhaustive_max_product, system_from_json
from rbt_lab.cli import main

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


def test_parse_errors_exit_2(tmp_path, capsys):
    for text in (
        '{"n":3,"graphs":[[[0,0]]]}',
        "{broken",
        '{"n":70,"hex":["00"]}',
        '{"n":3,"graphs":[[[0,1],[0,1]]]}',
    ):
        path = write(tmp_path, "bad.json", text)
        code, _, err = run(capsys, ["check-rbt", "-i", path])
        assert code == 2
        assert "error" in err
        if text == "{broken":
            assert "malformed JSON at line 1, column 2" in err


def test_format_flag_enforced(tmp_path, capsys):
    path = write(tmp_path, "s.json", '{"n":3,"hex":["00","00","00"]}')
    code, _, err = run(capsys, ["check-rbt", "-i", path, "--format", "json"])
    assert code == 2
    code, _, _ = run(capsys, ["check-rbt", "-i", path, "--format", "hex"])
    assert code == 0


def test_search_product_cli(capsys):
    code, out, _ = run(
        capsys,
        ["search", "--objective", "product", "--n", "4", "--exhaustive",
         "--output", "json"],
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
    assert int(doc["best_value"]) >= int(doc["references"]["constructor_value"])


@pytest.mark.parametrize("flags, message", [
    (["--local", "--seed", "1", "--checkpoint", "run.json"], "exhaustive search only"),
    (["--local", "--seed", "1", "--iso-pruning"], "exhaustive search only"),
    (["--exhaustive", "--seed", "3"], "local search only"),
    (["--local", "--seed", "4", "--iters", "2000"], "unrecognized arguments: --iters"),
    (["--exhaustive", "--restarts", "3"], "--restarts applies to local search only"),
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
    assert json.loads(fresh.read_text())["header"]["format"] == 2


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


def test_search_checkpoint_and_threads_flags(tmp_path, capsys):
    ckpt = tmp_path / "run.json"
    argv = ["search", "--objective", "product", "--n", "4", "--exhaustive",
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


def test_search_budget_error(capsys):
    code, _, err = run(capsys, ["search", "--objective", "sum", "--n", "6", "--t", "3"])
    assert code == 2
    assert "budget" in err


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
