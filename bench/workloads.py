"""Workloads of the rbt-lab benchmark: job lists, seeded inputs and expected outputs.

A workload is a list of CLI jobs.  `build` generates and writes each job's
inputs; every job carries an `expect` thunk that the oracle evaluates only
after the timed pass.  Inputs are built here in plain Python, never with
rbt_lab, so the expected values are independent of the code under test:

- `exhaustive`: the paper's exact small-n maxima.  The best values are the
  theorems' bounds; the witness lists were recorded at the seed commit and
  live in golden.json.  The seed changes nothing here.
- `local`: the product local search with the workload seed.  Restart 0 is
  the balanced bipartite triple, random greedy fills stay far below it at
  n >= 48, and at n = 8 every tie seen in seeds 0..2999 canonicalizes to the
  same triple, so the expected report is the constructor's.
- `verify`: verdicts on constructions whose answers follow from their
  structure (see `_verify_instance`), drawn from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("exhaustive", "local", "verify")
GOLDEN = Path(__file__).with_name("golden.json")

Edge = tuple[int, int]


@dataclass
class Job:
    """One CLI call and its expected outcome.

    `expect()` returns {"exit": code, "fields": {key: value}} compared key by
    key with the JSON report, or {"exit": code, "same_as": job_id} for a
    resumed search that must repeat an earlier report field for field.
    """

    id: str
    argv: list[str]
    expect: Callable[[], dict[str, Any]]
    role: str = ""


# -- plain-Python graph helpers ------------------------------------------------


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _colex(edges) -> list[Edge]:
    return sorted(edges, key=lambda e: (e[1], e[0]))


def complete(n: int) -> set[Edge]:
    return {(u, v) for v in range(n) for u in range(v)}


def bipartite(n: int) -> set[Edge]:
    """Balanced complete bipartite graph, parts {0..n//2-1} and the rest."""
    half = n // 2
    return {(u, v) for u in range(half) for v in range(half, n)}


def to_hex(n: int, edges) -> str:
    bits = 0
    for u, v in edges:
        bits |= 1 << (v * (v - 1) // 2 + u)
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return bits.to_bytes(nbytes, "little").hex()


def system_doc(n: int, graphs, encoding: str) -> dict[str, Any]:
    if encoding == "hex":
        return {"n": n, "hex": [to_hex(n, g) for g in graphs]}
    return {"n": n, "graphs": [[list(e) for e in _colex(g)] for g in graphs]}


def quarter(n: int) -> int:
    return n * n // 4


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def _cert(claim: str, value: int, bound: int) -> dict[str, Any]:
    slack = bound - value
    return {
        "exit": 0 if slack >= 0 else 1,
        "fields": {"claim": claim, "value": str(value), "bound": str(bound),
                   "slack": str(slack), "tight": slack == 0},
    }


# -- exhaustive ---------------------------------------------------------------

_EXHAUSTIVE = {
    False: [("sum", 5, 3), ("product", 5, 3), ("sum", 4, 5)],
    True: [("sum", 4, 3), ("product", 4, 3), ("sum", 3, 5)],
}


def _search_argv(objective: str, n: int, t: int) -> list[str]:
    argv = ["search", "--objective", objective, "--n", str(n), "--threads", "1"]
    return argv + (["--t", str(t)] if objective == "sum" else [])


def _build_exhaustive(workdir: Path, smoke: bool) -> list[Job]:
    golden = json.loads(GOLDEN.read_text())["exhaustive"]
    sum3, product, sum5 = _EXHAUSTIVE[smoke]
    checkpoint = workdir / "search.ckpt"
    checkpoint.unlink(missing_ok=True)
    # iso-pruned sum and product; the t=5 sum, where the per-node guard
    # dominates; the unpruned sum writing a fresh checkpoint
    plan = [(sum3, ["--iso-pruning"], "-iso"), (product, ["--iso-pruning"], "-iso"),
            (sum5, [], ""), (sum3, ["--checkpoint", str(checkpoint)], "-checkpoint")]
    jobs = []
    for (objective, n, t), flags, tag in plan:
        key = f"{objective}-n{n}-t{t}"
        jobs.append(Job(f"search-{key}{tag}", _search_argv(objective, n, t) + flags,
                        lambda fields=golden[key]: {"exit": 0, "fields": fields}))
    # the same command again resumes from the finished checkpoint
    fresh = jobs[-1]
    jobs.append(Job(fresh.id.replace("-checkpoint", "-resume"), list(fresh.argv),
                    lambda: {"exit": 0, "same_as": fresh.id}, role="resume"))
    return jobs


# -- local --------------------------------------------------------------------


def _build_local(seed: int, smoke: bool) -> list[Job]:
    golden = json.loads(GOLDEN.read_text())["local"]
    jobs = []
    for n in (6, 10, 12) if smoke else (8, 48, 64):

        def expect(n=n) -> dict[str, Any]:
            # witnesses are canonicalized only up to n = 8
            witness = golden.get(str(n)) or [to_hex(n, bipartite(n))] * 3
            value = str(quarter(n) ** 3)
            return {"exit": 0, "fields": {"best_value": value, "witnesses": [witness],
                                          "theory_bound": value, "bound_exceeded": False}}

        argv = ["search", "--objective", "product", "--n", str(n), "--local",
                "--seed", str(seed), "--threads", "1"]
        jobs.append(Job(f"search-product-n{n}-local", argv, expect, role="local"))
    return jobs


# -- verify -------------------------------------------------------------------


def _first_rainbow(graphs: list[set[Edge]], candidates) -> dict[str, Any] | None:
    """Reference for check-rbt's witness among triangles known to hold all rainbow ones.

    check-rbt reports the first rainbow triangle (a, b, c), a < b < c, in
    (b, a, c) order, and the lexicographically first assignment of its edges
    (ab, ac, bc) to distinct graphs, listed by graph index.
    """
    for a, b, c in sorted(candidates, key=lambda tri: (tri[1], tri[0], tri[2])):
        tri_edges = [(a, b), (a, c), (b, c)]
        masks = [[i for i, g in enumerate(graphs) if e in g] for e in tri_edges]
        for i1 in masks[0]:
            for i2 in masks[1]:
                for i3 in masks[2]:
                    if len({i1, i2, i3}) == 3:
                        picked = sorted(zip((i1, i2, i3), tri_edges))
                        return {"triangle": [a, b, c], "graphs": [i for i, _ in picked],
                                "edges": [list(e) for _, e in picked]}
    return None


def _verify_instance(n: int, rng: random.Random) -> dict[str, tuple[list[set[Edge]], list]]:
    """Seeded systems at one even n, each with its jobs as (argv tail, expect(encoding)).

    K_n + M + M (M a random perfect matching) is rainbow-free and dense: two
    edges of one triangle share a vertex, so they cannot both come from M,
    and every one of the C(n,3) triangles of the union is scanned.  The
    ROADMAP's K_n, K_n - e, empty would take find_rainbow_triangle's
    "fewer than 3 nonempty graphs" shortcut and scan nothing.
    """
    kn = complete(n)
    order = list(range(n))
    rng.shuffle(order)
    m = {_norm(order[2 * i], order[2 * i + 1]) for i in range(n // 2)}
    partner = {}
    for u, v in m:
        partner[u], partner[v] = v, u
    # one extra edge in the third graph; its only two rainbow triangles have
    # middle vertex n-2, so the scan finds the first witness late
    u = n - 1
    v = n - 2 if partner[u] != n - 2 else n - 3
    late = [kn, m, m | {(v, u)}]
    late_witness = _first_rainbow(late, [tuple(sorted((u, v, partner[u]))),
                                         tuple(sorted((u, v, partner[v])))])
    # a matching of k edges with n > 2k + 2, so prop31 applies
    rng.shuffle(order)
    k = n // 4
    sparse = {_norm(order[2 * i], order[2 * i + 1]) for i in range(k)}
    # a triangle-free graph with a unique perfect matching on n - 4 vertices
    # (a random half graph x_i ~ y_j, j <= i) plus 4 isolated vertices: the
    # matching partition is then fixed by the spec, not by the matcher
    rng.shuffle(order)
    h = (n - 4) // 2
    xs, ys, isolated = order[:h], order[h:2 * h], order[2 * h:]
    half = {_norm(xs[i], ys[j]) for i in range(h) for j in range(i + 1)
            if i == j or rng.random() < 0.5}
    matched = _colex(_norm(xs[i], ys[i]) for i in range(h))
    # four random graphs for the nesting reduction
    mix = [{e for e in _colex(kn) if rng.random() < 0.5} for _ in range(4)]

    c, q = pairs(n), quarter(n)
    half_n = n // 2

    def partition_expect(encoding: str) -> dict[str, Any]:
        edges, bound = len(half), h * (n - h)
        return {"exit": 0, "fields": {
            "partition": {"x_side": [a for a, _ in matched], "y_side": [b for _, b in matched],
                          "z_side": sorted(isolated), "size": h},
            "verified": True,
            "edge_bound": {"claim": "mantel-edge-bound", "value": str(edges),
                           "bound": str(bound), "slack": str(bound - edges),
                           "tight": bound == edges, "witness": {"matching_size": h, "n": n}},
        }}

    def reduce_expect(encoding: str) -> dict[str, Any]:
        # the nested chain with the same edge multiplicities is unique
        mult: dict[Edge, int] = {}
        for g in mix:
            for e in g:
                mult[e] = mult.get(e, 0) + 1
        chain = [{e for e, k in mult.items() if k >= level} for level in (4, 3, 2, 1)]
        return {"exit": 0, "fields": system_doc(n, chain, encoding)}

    def prop31_expect(encoding: str) -> dict[str, Any]:
        # B = sparse: l = k, Z = the n - 2k unmatched vertices, p = 0
        zq = n - 2 * k
        b_value, b_bound = k, k * k
        cd_value, cd_bound = c + k, 2 * (k * k + k * zq + zq * (zq - 1) // 2)
        if b_bound - b_value <= cd_bound - cd_value:
            return _cert("prop31", b_value, b_bound)
        return _cert("prop31", cd_value, cd_bound)

    def late_expect(encoding: str) -> dict[str, Any]:
        return {"exit": 1, "fields": {"n": n, "t": 3, "rbt_free": False, "witness": late_witness}}

    def free_expect(encoding: str) -> dict[str, Any]:
        return {"exit": 0, "fields": {"n": n, "t": 3, "rbt_free": True, "witness": None}}

    def cert(claim: str, value: int, bound: int):
        return ["certify", "--claim", claim], lambda encoding: _cert(claim, value, bound)

    return {
        "dense": ([kn, m, m], [
            (["check-rbt"], free_expect),
            cert("sum-t3", c + n, n * (n - 1)),
            cert("conjecture", c * half_n * half_n, q ** 3),
        ]),
        "late": (late, [(["check-rbt"], late_expect)]),
        "quad": ([kn, m, m, m], [cert("sum-t", c + 3 * half_n, 4 * q)]),
        "matched": ([m, kn, m], [
            cert("weighted", c + 3 * half_n, 4 * q),
            cert("nearly-matchable", c + half_n, 2 * q),
            cert("product-nested", half_n * c * half_n, q ** 3),
        ]),
        "sparse": ([sparse, kn, sparse], [(["certify", "--claim", "prop31"], prop31_expect)]),
        "half": ([half], [(["partition"], partition_expect)]),
        # reduce answers in the encoding it was given
        "mix": (mix, [(["reduce"], reduce_expect)]),
    }


def _build_verify(seed: int, workdir: Path, smoke: bool) -> list[Job]:
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    # one n=64 instance makes the slow tail; four at n=32 put the median inside
    # the n=32 scans and leave more than ten calls above p90 in every pass
    instances = [(8, 0), (12, 0)] if smoke else [(64, 0)] + [(32, i) for i in range(4)]
    jobs = []
    for n, i in instances:
        systems = _verify_instance(n, random.Random(f"verify:{seed}:{n}:{i}"))
        for encoding in ("graphs", "hex"):
            for name, (graphs, tasks) in systems.items():
                path = inputs / f"{name}-n{n}-i{i}-{encoding}.json"
                path.write_text(json.dumps(system_doc(n, graphs, encoding)))
                for tail, expect in tasks:
                    argv = tail + ["--input", str(path)]
                    if tail == ["reduce"] and encoding == "hex":
                        argv.append("--compact")
                    job_id = f"{tail[-1]}-{name}-n{n}-i{i}-{encoding}"
                    jobs.append(Job(job_id, argv, lambda e=expect, enc=encoding: e(enc)))
    if smoke:
        grids = [("31", ["--l-max", "6", "--q-max", "12"], {"l_max": 6, "q_max": 12}),
                 ("32", ["--step", "1/10", "--max", "2"], {"step": "1/10", "max": "2"})]
    else:
        grids = [("31", [], {"l_max": 30, "q_max": 60}),
                 ("32", [], {"step": "1/100", "max": "10"})]
    for which, extra, fields in grids:
        expected = {"exit": 0, "fields": {"which": which, **fields, "violations": []}}
        jobs.append(Job(f"ineq-scan-{which}", ["ineq-scan", "--which", which] + extra,
                        lambda e=expected: e))
    return jobs


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    """Generate and write the inputs of one pass; return its jobs in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "exhaustive":
        jobs = _build_exhaustive(workdir, smoke)
    elif workload == "local":
        jobs = _build_local(seed, smoke)
    elif workload == "verify":
        jobs = _build_verify(seed, workdir, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        job.argv += ["--output", "json"]
    return jobs


def check(job: Job, code: int, out: str, docs: dict[str, Any], tamper: bool = False) -> str | None:
    """Compare one job's exit code and JSON report with its expected values.

    Returns None on a match, else a one-line description of the first
    difference.  `docs` maps earlier job ids to their parsed reports; `tamper`
    corrupts one expected value so the self-test can see the oracle fail.
    """
    expected = job.expect()
    if tamper:
        expected = {**expected, "exit": expected["exit"] + 1}
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not one JSON document: {exc}"
    if "same_as" in expected:
        fresh = docs.get(expected["same_as"])
        if fresh is None:
            return f"no report of {expected['same_as']} to compare with"
        want = {k: v for k, v in fresh.items() if k != "wall_time"}
    else:
        want = expected["fields"]
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key}: got {json.dumps(doc.get(key))[:200]}, expected {json.dumps(value)[:200]}"
    return None
