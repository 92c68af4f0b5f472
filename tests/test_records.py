"""The record contract: the library's values print, compare and refuse
assignment as documented. Plain records are named tuples, `Parameters` and
`HypercubeSpec` are validating named tuples, and `SetFamily` is a slotted
class whose length, iteration and `in` run over its members."""

import copy
import pickle

import pytest

from vccover import (
    HypercubeSpec,
    Parameters,
    SetFamily,
    VcReport,
    is_k_covering,
    lower_bound_certificate,
    make_family,
    oracle_D,
    vc_dimension,
)


def test_readme_library_reprs():
    f = make_family(4, [{1, 2}, {3, 4}])
    assert repr(f) == "SetFamily(n=4, members=(3, 12), uniform_size=2)"
    assert repr(vc_dimension(f)) == "VcReport(dimension=1, witness=1, refuted_size=2)"
    assert repr(is_k_covering(f, 2)) == "CoverReport(k=2, holds=False, uncovered=5)"
    assert repr(oracle_D(Parameters(2, 3, 5))) == (
        "OracleResult(params=Parameters(k=2, s=3, n=5), value=2, "
        "witness=SetFamily(n=5, members=(7, 11, 13, 19, 21, 25), uniform_size=3), "
        "nodes_explored=16, method='branch-and-bound')"
    )
    assert repr(lower_bound_certificate(2, 3, 14)) == (
        "Certificate(params=Parameters(k=2, s=3, n=14), kind='lower-vc-ge-k', inequality_lhs=15, "
        "inequality_rhs=31, holds=True, witness_file=None, sufficient_inequality_holds=True)"
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (make_family(4, [{1, 2}]), "n"),
        (make_family(4, [{1, 2}]), "members"),
        (Parameters(2, 3, 5), "k"),
        (VcReport(dimension=1, witness=1, refuted_size=2), "dimension"),
    ],
)
def test_assignment_raises_attribute_error(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


def test_set_family_runs_over_members():
    f = make_family(4, [{3, 4}, {1, 2}])
    assert len(f) == 2
    assert list(f) == [0b0011, 0b1100]
    assert 0b0011 in f and 0b1100 in f
    # A tuple base would find n = 4 and uniform_size = 2 here.
    assert 4 not in f and 2 not in f


def test_set_family_equality_and_hash():
    f = make_family(4, [{1, 2}, {3, 4}])
    g = SetFamily(n=4, members=(3, 12))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != make_family(5, [{1, 2}, {3, 4}])
    assert f != (4, (3, 12), 2) and (4, (3, 12), 2) != f
    assert f != (3, 12)
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.deepcopy(f) == f


def test_set_family_keeps_its_value_once_its_table_is_built():
    from vccover.families import incidence_columns

    f = make_family(4, [{1, 2}, {3, 4}])
    before = repr(f), hash(f)
    table = incidence_columns(f)
    assert incidence_columns(f) is table and table == (0b01, 0b01, 0b10, 0b10)
    assert (repr(f), hash(f)) == before
    assert f == SetFamily(4, (3, 12)) and SetFamily(4, (3, 12)) == f
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert copied == f and repr(copied) == repr(f) and hash(copied) == hash(f)
        assert incidence_columns(copied) == table
    for name in ("n", "members", "uniform_size", "_columns", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert incidence_columns(f) is table and repr(f) == before[0]


def test_set_family_copies_a_list_of_members():
    masks = [1, 2]
    f = SetFamily(3, masks)
    assert f == SetFamily(3, (1, 2)) and hash(f) == hash(SetFamily(3, (1, 2)))
    assert f.members == (1, 2) and repr(f) == "SetFamily(n=3, members=(1, 2), uniform_size=1)"
    masks.append(4)
    masks[0] = 0
    assert f.members == (1, 2) and len(f) == 2


@pytest.mark.parametrize(
    "k, s, n, message",
    [
        (0, 1, 2, "need 1 <= k <= s <= n"),
        (3, 2, 5, "need 1 <= k <= s <= n"),
        (2, 3, 2, "need 1 <= k <= s <= n"),
        (1, 1, 257, "ground size 257 exceeds maximum 256"),
    ],
)
def test_parameters_reject_bad_values(k, s, n, message):
    with pytest.raises(ValueError, match=message):
        Parameters(k, s, n)
    with pytest.raises(ValueError, match=message):
        Parameters(k=k, s=s, n=n)
    with pytest.raises(ValueError, match=message):
        Parameters(1, 1, 1)._replace(k=k, s=s, n=n)


@pytest.mark.parametrize(
    "k, m, message",
    [
        (0, 2, "need k >= 1 and m >= 1"),
        (2, 0, "need k >= 1 and m >= 1"),
        (2, 6, "ground size 729 exceeds maximum 256"),
    ],
)
def test_hypercube_spec_rejects_bad_values(k, m, message):
    with pytest.raises(ValueError, match=message):
        HypercubeSpec(k, m)
    with pytest.raises(ValueError, match=message):
        HypercubeSpec(k=k, m=m)
    with pytest.raises(ValueError, match=message):
        HypercubeSpec(1, 1)._replace(k=k, m=m)


def test_validated_records_keep_their_fields():
    assert Parameters(2, 3, 5) == Parameters(k=2, s=3, n=5)
    assert Parameters(2, 3, 5)._replace(n=6).n == 6
    spec = HypercubeSpec(k=2, m=3)
    assert (spec.k, spec.m, spec.ground_size) == (2, 3, 27)
    assert pickle.loads(pickle.dumps(spec)) == spec
