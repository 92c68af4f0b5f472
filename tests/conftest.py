import random

import pytest

from vccover import (
    SetFamily,
    base_pairs_family,
    full_family,
    hypercube_family,
    initial_segment_family,
    make_family,
    recursive_family,
)


def random_family(rng: random.Random, max_n: int = 12, uniform: bool = False) -> SetFamily:
    """Seeded random family; uniform=True draws all members at one size."""
    n = rng.randint(2, max_n)
    count = rng.randint(1, min(2**n - 1, 40))
    members = []
    if uniform:
        s = rng.randint(1, n)
        for _ in range(count):
            members.append(rng.sample(range(1, n + 1), s))
    else:
        for _ in range(count):
            r = rng.randint(0, n)
            members.append(rng.sample(range(1, n + 1), r))
    return make_family(n, members)


def build_corpus() -> list[tuple[str, SetFamily]]:
    """The fixed family corpus the property suites run over."""
    corpus: list[tuple[str, SetFamily]] = [
        ("pair-disjoint", make_family(4, [{1, 2}, {3, 4}])),
        ("pair-overlap", make_family(3, [{1, 2}, {2, 3}])),
        ("single-pair", make_family(2, [{1, 2}])),
        ("whole-ground", make_family(4, [{1, 2, 3, 4}])),
        ("empty-member", make_family(3, [set()])),
        ("mixed-sizes", make_family(4, [{1}, {1, 2}, {2, 3, 4}])),
    ]
    for n, s in [(2, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (12, 6)]:
        corpus.append((f"full-{n}-{s}", full_family(n, s)))
    for n in [2, 3, 5, 8]:
        corpus.append((f"segments-{n}", initial_segment_family(n)))
    for m in range(2, 9):
        corpus.append((f"pairs-{m}", base_pairs_family(m)))
    for m in range(2, 9):
        for k in range(1, 4):
            corpus.append((f"recursive-{m}-{k}", recursive_family(m, k)))
    corpus.append(("recursive-10-3", recursive_family(10, 3)))
    for k, m in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        corpus.append((f"hypercube-{k}-{m}", hypercube_family(k, m)))
    rng = random.Random(422711)
    for i in range(6):
        corpus.append((f"random-{i}", random_family(rng, max_n=8)))
    for i in range(6):
        corpus.append((f"random-uniform-{i}", random_family(rng, max_n=8, uniform=True)))
    return corpus


_CORPUS = build_corpus()


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, SetFamily]]:
    return _CORPUS


@pytest.fixture
def table_builds(monkeypatch) -> list[SetFamily]:
    """The families whose incidence table is built, in build order, by
    every module that reads a table outside families.py."""
    import vccover.covering
    import vccover.families
    import vccover.oracle
    import vccover.vc

    built, tables = [], []
    build = vccover.families.incidence_columns

    def counted(f):
        columns = build(f)
        if not any(columns is table for table in tables):  # a new table: a build
            tables.append(columns)
            built.append(f)
        return columns

    for module in (vccover.covering, vccover.oracle, vccover.vc):
        monkeypatch.setattr(module, "incidence_columns", counted)
    return built
