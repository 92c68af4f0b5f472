import math
import sys
import time

import pytest

from vccover import (
    FeasibilityError,
    Parameters,
    covering_witness_family,
    exists_covering_with_vc_at_most,
    full_family,
    is_k_covering,
    oracle_D,
    vc_dimension,
)

# Ground truth for small triples, frozen from the power-set enumeration
# oracle (all 2^C(n,s) subfamilies checked exhaustively).
FROZEN_VALUES = {
    (2, 3, 5): 2,
    (1, 2, 3): 1,
    (1, 2, 4): 1,
    (1, 2, 5): 1,
    (2, 3, 6): 2,
    (2, 2, 5): 2,
    (1, 3, 5): 1,
    (2, 4, 5): 1,
}

# Nodes the branch-and-bound visits on the benchmark's oracle commands
# (--cap 126). The contract is the order in which the search meets
# solutions, which fixes the witness; the counts are pinned so that a change
# to them that nobody intended shows up here.
BENCH_NODE_COUNTS = {
    (2, 4, 8): 41,
    (3, 5, 8): 344,
    (2, 6, 9): 169,
    (2, 4, 9): 48,
    (2, 5, 8): 68,
}

# Triples with D = 3 whose d = 2 refutation is nearly all of the search:
# (total nodes, d = 2 nodes) at --cap 126.
HARD_NODE_COUNTS = {
    (3, 4, 7): (14_496, 14_456),
    (3, 4, 8): (42_511, 42_452),
    (3, 4, 9): (123_512, 123_428),
}


class TestExistsCovering:
    def test_decision_positive(self):
        fam = exists_covering_with_vc_at_most(Parameters(1, 2, 4), 1)
        assert fam is not None
        assert is_k_covering(fam, 1).holds
        assert fam.uniform_size == 2
        assert vc_dimension(fam).dimension <= 1

    def test_decision_negative(self):
        assert exists_covering_with_vc_at_most(Parameters(2, 2, 4), 1) is None

    def test_diagonal_returns_full_family(self):
        fam = exists_covering_with_vc_at_most(Parameters(2, 2, 5), 2)
        assert fam == full_family(5, 2)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            exists_covering_with_vc_at_most(Parameters(1, 2, 4), 3)

    def test_d_out_of_range_refused_before_any_table(self):
        # C(18,9) = 48,620 s-sets fit the cap, but their tables take seconds.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="need 0 <= d"):
            exists_covering_with_vc_at_most(Parameters(2, 9, 18), 10, cap=10**6)
        assert time.perf_counter() - start < 1.0

    def test_cap_enforced(self):
        with pytest.raises(FeasibilityError):
            exists_covering_with_vc_at_most(Parameters(2, 3, 9), 1)

    @pytest.mark.parametrize("call", [
        lambda p: oracle_D(p),
        lambda p: oracle_D(p, method="exhaustive"),
        lambda p: exists_covering_with_vc_at_most(p, 2),
    ], ids=["branch-and-bound", "exhaustive", "decision"])
    def test_over_cap_refused_before_any_table(self, call):
        # C(24,12) = 2,704,156 s-sets: building any table would take far
        # longer than the bound below.
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match="exceeds cap"):
            call(Parameters(3, 12, 24))
        assert time.perf_counter() - start < 1.0


class TestOracle:
    def test_whole_ground_is_trivial(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                result = oracle_D(Parameters(k, n, n))
                assert result.value == 0
                assert result.witness.member_elements() == [tuple(range(1, n + 1))]

    def test_diagonal_closed_form(self):
        assert oracle_D(Parameters(2, 2, 5)).value == 2

    def test_frozen_small_values(self):
        for (k, s, n), value in FROZEN_VALUES.items():
            assert oracle_D(Parameters(k, s, n)).value == value, (k, s, n)

    def test_witness_invariants(self):
        for (k, s, n), value in FROZEN_VALUES.items():
            result = oracle_D(Parameters(k, s, n))
            assert result.witness.uniform_size == s
            assert is_k_covering(result.witness, k).holds
            assert vc_dimension(result.witness).dimension == value
            # Minimality: the completed refutation one level down.
            if value > 0:
                assert exists_covering_with_vc_at_most(Parameters(k, s, n), value - 1) is None

    def test_never_beats_the_witness_construction(self):
        for n in range(2, 7):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    if math.comb(n, s) > 24:
                        continue
                    witness_dim = vc_dimension(covering_witness_family(k, s, n)).dimension
                    assert oracle_D(Parameters(k, s, n)).value <= witness_dim, (k, s, n)

    def test_enumeration_agrees_with_branch_and_bound(self):
        for (k, s, n), value in FROZEN_VALUES.items():
            if math.comb(n, s) > 12:
                continue
            enum = oracle_D(Parameters(k, s, n), method="exhaustive")
            assert enum.value == value
            assert enum.method == "exhaustive"
            assert is_k_covering(enum.witness, k).holds
            assert vc_dimension(enum.witness).dimension == value

    def test_determinism_across_runs_and_workers(self):
        params = Parameters(2, 3, 6)
        base = oracle_D(params)
        again = oracle_D(params)
        threaded = oracle_D(params, workers=8)
        assert base.value == again.value == threaded.value
        assert base.witness == again.witness == threaded.witness

    def test_node_count_independent_of_workers(self):
        for triple in [(1, 2, 5), (2, 3, 5), (2, 3, 6)]:
            params = Parameters(*triple)
            one = oracle_D(params, workers=1).nodes_explored
            assert oracle_D(params, workers=8).nodes_explored == one, triple

    def test_bench_node_counts_pinned(self):
        for triple, nodes in BENCH_NODE_COUNTS.items():
            assert oracle_D(Parameters(*triple), cap=126).nodes_explored == nodes, triple

    def test_scan_is_the_per_d_decisions(self):
        # oracle_D's value and witness are those of the first d at which the
        # decision search finds a covering, and its node count is the sum of
        # the decision searches' counts over d = 0..D.
        triples = list(BENCH_NODE_COUNTS) + list(FROZEN_VALUES)
        for triple in triples:
            params = Parameters(*triple)
            stats: dict = {}
            for d in range(min(params.s, params.n - params.s) + 1):
                witness = exists_covering_with_vc_at_most(params, d, cap=126, stats=stats)
                if witness is not None:
                    break
            result = oracle_D(params, cap=126)
            assert (result.value, result.witness) == (d, witness), triple
            assert result.nodes_explored == stats["nodes"], triple

    @pytest.mark.parametrize("method", ["branch-and-bound", "exhaustive"])
    def test_one_table_build_per_call(self, table_builds, method):
        # The candidate bitmaps and the power-set route's walk on every
        # covering subfamily read the universe family's one table.
        assert oracle_D(Parameters(2, 3, 5), method=method).value == 2
        assert table_builds == [full_family(5, 3)]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            oracle_D(Parameters(1, 2, 3), method="guess")

    def test_result_serialization(self):
        result = oracle_D(Parameters(1, 2, 4))
        payload = result.as_dict()
        assert payload["value"] == 1
        assert "nodes_explored" not in payload


class TestHardTriples:
    def test_value_and_witness(self):
        for triple, (nodes, _) in HARD_NODE_COUNTS.items():
            result = oracle_D(Parameters(*triple), cap=126)
            assert result.value == 3, triple
            assert is_k_covering(result.witness, 3).holds, triple
            assert vc_dimension(result.witness).dimension == 3, triple
            assert result.nodes_explored == nodes, triple

    def test_refuted_at_two(self):
        for triple, (_, nodes) in HARD_NODE_COUNTS.items():
            stats: dict = {}
            assert exists_covering_with_vc_at_most(
                Parameters(*triple), 2, cap=126, stats=stats
            ) is None, triple
            assert stats["nodes"] == nodes, triple


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_covering_deeper_than_the_recursion_limit():
    # The covering of [80] by singletons is 80 members deep; the search keeps
    # its own stack, so 50 frames above the caller's depth are enough.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        result = oracle_D(Parameters(1, 1, 80), cap=100)
    finally:
        sys.setrecursionlimit(limit)
    assert result.value == 1
    assert len(result.witness) == 80
