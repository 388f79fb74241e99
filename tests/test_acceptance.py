"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
on the real terminal (bypassing capture) so the run log shows all nine
verdicts at a glance.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from pricing import c0_at, c1_at

from lgkit.adversary import build_witness, rebalance_to_equal, verify_witness
from lgkit.adversary import linking_mutants
from lgkit.combinators import or_compose
from lgkit.complexity import c1_max, complexity
from lgkit.costmodel import fit_exponent
from lgkit.expand import expand
from lgkit.indexing import num_pairs, pair_position
from lgkit.loads import load_gadget, single_load_rules
from lgkit.model import BooleanFunction, GraphBuilder
from lgkit.serialize import build_function, build_graph, read_json
from lgkit.triangle import (
    GraphInstance,
    delta_mean_pairs,
    ninter_exact,
    ninter_sq_exact,
    oracle_delta_exact,
    triangle_function,
)


def _criterion(capsys, num, title, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} {title}: FAIL")
        raise
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {title}: PASS ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Load gadget exactness


def _single_load_graph(kind):
    b = GraphBuilder(1)
    b.add_vertex("s", (0,))
    w0, w1 = single_load_rules(kind, 0)
    b.add_ordinary("r", "s", 0, w0, w1)
    return b.graph(const_flow={0: 1.0})


def test_criterion_1_load_gadgets(capsys):
    def body():
        start = time.perf_counter()
        for k in range(1, 13):
            if k == 1:
                dense = _single_load_graph("dense")
                sparse = _single_load_graph("sparse")
            else:
                dense = load_gadget("dense", k, tuple(range(k))).inner
                sparse = load_gadget("sparse", k, tuple(range(k))).inner
            bound_scale = 6 * k * math.log(k + 1)
            for z in range(1 << k):
                assert c0_at(dense, z) == float(k * k)
                assert c1_at(dense, z) == 1.0
                ones = z.bit_count()
                assert c0_at(sparse, z) <= bound_scale * (ones + 1)
                assert c1_at(sparse, z) <= 1.0
        assert time.perf_counter() - start < 10.0

    _criterion(capsys, 1, "load gadget exactness", body)


# ---------------------------------------------------------------------------
# 2. Expansion consistency


def test_criterion_2_expansion(capsys, corpus_dir):
    def body():
        checked = 0
        for path in sorted((corpus_dir / "graphs").glob("*.json")):
            if path.name.endswith(".fn.json"):
                continue
            g = build_graph(read_json(path))
            f = build_function(read_json(path.parent / (path.stem + ".fn.json")))
            if not g.has_super():
                continue
            before = complexity(g, f)
            after = complexity(expand(g), f)
            for lhs, rhs in ((before.c0, after.c0), (before.c1, after.c1)):
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            checked += 1
        assert checked >= 5, f"only {checked} super-edge graphs in the corpus"

    _criterion(capsys, 2, "expansion consistency", body)


# ---------------------------------------------------------------------------
# 3. OR combinator


def _or_child(kind, nb, bits, domain):
    b = GraphBuilder(nb)
    if kind == "unit":
        b.add_vertex("s", bits)
        b.add_ordinary("r", "s", bits[0], *single_load_rules("dense", bits[0]))
        flows = {0: 1.0}
    elif kind == "and2":
        b.add_vertex("m", bits[:1])
        b.add_vertex("s", bits)
        b.add_ordinary("r", "m", bits[0], *single_load_rules("dense", bits[0]))
        b.add_ordinary("m", "s", bits[1], *single_load_rules("dense", bits[1]))
        flows = {0: 1.0, 1: 1.0}
    else:
        b.add_vertex("s", bits)
        b.add_super("r", "s", load_gadget(kind, nb, bits))
        flows = {0: 1.0}
    mask = sum(1 << p for p in bits)
    f = BooleanFunction(nb, {z: int(z & mask == mask) for z in domain})
    return b.graph(flows={y: flows for y in f.positives()}), f


def test_criterion_3_or_combinator(capsys):
    def body():
        rng = random.Random(99173)
        for _ in range(100):
            blocks = []
            cursor = 0
            for _c in range(rng.randint(2, 6)):
                size = rng.choice((1, 2))
                blocks.append(tuple(range(cursor, cursor + size)))
                cursor += size
            nb = cursor
            full = (1 << nb) - 1
            domain = (0, full)
            children = []
            for bits in blocks:
                kind = (
                    "unit" if len(bits) == 1 else rng.choice(("and2", "dense", "sparse"))
                )
                children.append(_or_child(kind, nb, bits, domain))
            k = rng.choice([v for v in (1, 2, 4) if v <= len(children)])
            res = or_compose(children, k)
            assert c1_at(res.graph, full) <= 1.0
            lhs = c0_at(res.graph, 0)
            # each child is weighted by its lambda, c1_max / k
            rhs = sum(c1_max(g, f) / k * c0_at(g, 0) for g, f in children)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

        for n in range(1, 65):
            for k in (1, 2, 4):
                if k > n:
                    continue
                full = (1 << n) - 1
                domain = (0, full)
                children = [_or_child("unit", n, (i,), domain) for i in range(n)]
                res = or_compose(children, k)
                value = complexity(res.graph, res.function).value
                want = math.sqrt(n / k)
                assert abs(value - want) <= 1e-9 * want

    _criterion(capsys, 3, "disjunction costs", body)


# ---------------------------------------------------------------------------
# 4. Adversary witnesses for the n=4 triangle builds


def test_criterion_4_witnesses(capsys, dense4, sparse4, anchored4):
    def body():
        for res in (dense4, sparse4, anchored4):
            t0 = time.perf_counter()
            target = complexity(res.graph, res.function).value
            g2 = rebalance_to_equal(res.graph, res.function)
            wit = build_witness(g2, res.function)
            rep = verify_witness(wit, res.function)
            for j, mat in wit.matrices.items():
                min_eig = np.linalg.eigvalsh(mat)[0]
                assert min_eig >= -1e-9, f"{res.variant}: M_{j} min eig {min_eig}"
            assert rep.crossing_ok, f"{res.variant}: {rep.crossing_lo}..{rep.crossing_hi}"
            assert rep.objective_ok
            assert abs(rep.objective - target) <= 1e-9 * target
            assert time.perf_counter() - t0 < 60.0

    _criterion(capsys, 4, "adversary witnesses", body)


# ---------------------------------------------------------------------------
# 5. Mutation soundness


def test_criterion_5_mutants(capsys, dense4):
    def body():
        muts = linking_mutants(dense4.graph, dense4.function, 50, seed=0)
        assert len(muts) == 50
        worst = math.inf
        for m in muts:
            rep = verify_witness(build_witness(m.graph, dense4.function), dense4.function)
            deviation = max(abs(rep.crossing_lo - 1.0), abs(rep.crossing_hi - 1.0))
            worst = min(worst, deviation)
        assert worst > 1e-3, f"weakest mutant deviation {worst}"

    _criterion(capsys, 5, "mutation soundness", body)


# ---------------------------------------------------------------------------
# 6. Counting identities and bounds by exhaustive enumeration


def _adjacency_tensor(n):
    pairs = list(itertools.combinations(range(n), 2))
    count = 1 << len(pairs)
    z = np.arange(count, dtype=np.int64)
    A = np.zeros((count, n, n), dtype=np.int64)
    for p, (u, v) in enumerate(pairs):
        bit = (z >> p) & 1
        A[:, u, v] = bit
        A[:, v, u] = bit
    return A, A.sum(axis=(1, 2)) // 2


def _subset_rows(n, size):
    rows = []
    for comb in itertools.combinations(range(n), size):
        row = np.zeros(n, dtype=np.int64)
        row[list(comb)] = 1
        rows.append(row)
    return np.array(rows)


def test_criterion_6_counting(capsys):
    def body():
        start = time.perf_counter()

        # mean intersection size is exact, second moment doubles it at worst
        for n1 in range(1, 9):
            V1 = tuple(range(n1))
            for nmask in range(1 << n1):
                N = tuple(i for i in range(n1) if (nmask >> i) & 1)
                for x in range(1, n1 + 1):
                    mean = Fraction(x * len(N), n1)
                    assert ninter_exact(V1, N, x) == mean
                    if mean >= 1:
                        assert ninter_sq_exact(V1, N, x) <= 2 * mean * mean

        # directed incidence between random subsets, all graphs up to n=6
        for n in range(2, 7):
            A, m = _adjacency_tensor(n)
            for x in range(1, min(3, n) + 1):
                X = _subset_rows(n, x)
                inc = np.einsum("gvu,xu->gvx", A, X)
                for y in range(1, min(3, n) + 1):
                    Y = _subset_rows(n, y)
                    tot = np.einsum("gvx,yv->g", inc, Y)
                    assert np.array_equal(
                        tot * n * n, 2 * x * y * m * len(X) * len(Y)
                    )

        # anchored pair average obeys the b^2/x cap, all graphs up to n=6
        for n in range(2, 7):
            A, m = _adjacency_tensor(n)
            T = np.einsum("guw,gvw->guv", A, A)
            S = np.array(
                [
                    [(bmask >> v) & 1 for v in range(n)]
                    for bmask in range(1, 1 << n)
                ],
                dtype=np.int64,
            )
            bsize = S.sum(axis=1)
            for x in range(1, n + 1):
                comb_col = np.array(
                    [math.comb(c, x) for c in range(n + 1)], dtype=np.int64
                )
                W = T * comb_col[n - T]
                vals = np.einsum("guv,bu,bv->gb", W, S, S)
                cap = bsize * bsize * n * math.comb(n, x)
                assert (vals * x <= cap[None, :]).all()

        # spot check the tensor route against the two scalar routes
        rng = random.Random(5)
        for _ in range(5):
            n = 5
            z = rng.randrange(1 << num_pairs(n))
            g = GraphInstance(n, z)
            B = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            x = rng.randint(1, n)
            assert oracle_delta_exact(g, B, x) == delta_mean_pairs(g, B, x)

        assert time.perf_counter() - start < 300.0

    _criterion(capsys, 6, "counting identities", body)


# ---------------------------------------------------------------------------
# 7. Exponent fits


def test_criterion_7_exponents(capsys):
    def body():
        start = time.perf_counter()
        dense = fit_exponent("dense")
        assert abs(dense.exponent - 1.25) <= 0.02, dense.exponent
        sparse = fit_exponent("sparse", m_law="n^1.5")
        assert abs(sparse.exponent - 7 / 6) <= 0.03, sparse.exponent
        anchored = fit_exponent("sparsenew", m_law="n^1.5")
        assert abs(anchored.exponent - 13 / 12) <= 0.03, anchored.exponent
        assert time.perf_counter() - start < 60.0

    _criterion(capsys, 7, "growth exponents", body)


# ---------------------------------------------------------------------------
# 8. Triangle function count


def test_criterion_8_triangle_count(capsys):
    def body():
        f = triangle_function(4)
        brute = 0
        for z in range(1 << 6):
            found = any(
                (z >> pair_position(u, v, 4)) & 1
                and (z >> pair_position(u, w, 4)) & 1
                and (z >> pair_position(v, w, 4)) & 1
                for u, v, w in itertools.combinations(range(4), 3)
            )
            assert f(z) == int(found)
            brute += int(found)
        assert brute == 23
        assert len(f.positives()) == 23
        assert len(f.negatives()) == 64 - 23 == 41

    _criterion(capsys, 8, "triangle truth table", body)


# ---------------------------------------------------------------------------
# 9. Sparse advantage on thin instances


def test_criterion_9_sparse_advantage(capsys, dense4, sparse4):
    def body():
        for z in range(1 << 6):
            if z.bit_count() > 3:
                continue
            dense_cost = c0_at(dense4.graph, z)
            sparse_cost = c0_at(sparse4.graph, z)
            assert sparse_cost < dense_cost, f"instance {z:06b}"

    _criterion(capsys, 9, "sparse advantage", body)
