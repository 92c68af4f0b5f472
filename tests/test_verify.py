import math
import time
from fractions import Fraction

import pytest

from vccover import (
    Parameters,
    covering_witness_family,
    explore,
    family_certifies_upper,
    full_family,
    lower_bound_certificate,
    make_family,
    min_cover_size_lower_bound,
    monotonicity_scan,
    oracle_D,
    read_family,
    recursive_family,
    rows_to_csv,
    stab_upper,
    stabilized_ground_size,
    surjectivity_scan,
    ufp_implies_vc_bound_check,
    upper_bound_certificate,
    vc_dimension,
    verify_main_theorem,
    verify_prop_const,
)


class TestMinCoverSize:
    def test_exact_ceiling(self):
        assert min_cover_size_lower_bound(2, 3, 14) == 31

    def test_diagonal(self):
        for n in range(2, 8):
            for k in range(1, n + 1):
                assert min_cover_size_lower_bound(k, k, n) == math.comb(n, k)

    def test_small(self):
        assert min_cover_size_lower_bound(1, 2, 5) == 3


class TestLowerBoundCertificate:
    def test_at_the_stabilized_ground_size(self):
        cert = lower_bound_certificate(2, 3, 14)
        assert cert.holds
        assert cert.inequality_lhs == 15
        assert cert.inequality_rhs == 31
        assert cert.sufficient_inequality_holds

    def test_boundary_where_sufficient_fails(self):
        cert = lower_bound_certificate(2, 3, 13)
        assert cert.holds
        assert not cert.sufficient_inequality_holds
        assert cert.inequality_lhs == 14
        assert cert.inequality_rhs == 26

    def test_small_case_checked_against_oracle(self):
        cert = lower_bound_certificate(2, 2, 4)
        value = oracle_D(Parameters(2, 2, 4)).value
        assert value == 2
        if cert.holds:
            assert value >= 2

    def test_soundness_against_oracle(self):
        for n in range(2, 7):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    if math.comb(n, s) > 24:
                        continue
                    if lower_bound_certificate(k, s, n).holds:
                        assert oracle_D(Parameters(k, s, n)).value >= k, (k, s, n)

    def test_sufficient_inequality_implies_certificate(self):
        # Exact-arithmetic grid: wherever the classical inequality holds
        # with 2k <= n, the direct sum comparison holds too.
        for k in range(1, 6):
            for s in range(k, 6):
                for n in range(s, 201):
                    if 2 * k > n:
                        continue
                    sufficient = Fraction(k * math.comb(n, k - 1)) < Fraction(
                        math.comb(n, k), math.comb(s, k)
                    )
                    if sufficient:
                        assert lower_bound_certificate(k, s, n).holds, (k, s, n)

    def test_sufficient_flag_is_the_rational_inequality(self):
        # The certificate compares cross-multiplied integers; the flag must
        # equal the rational form everywhere, 2k > n included.
        for k in range(1, 6):
            for s in range(k, 6):
                for n in range(s, 201):
                    rational = Fraction(k * math.comb(n, k - 1)) < Fraction(
                        math.comb(n, k), math.comb(s, k)
                    )
                    flag = lower_bound_certificate(k, s, n).sufficient_inequality_holds
                    assert flag is rational, (k, s, n)

    def test_exact_integers_exposed(self):
        # Both sides are exact ints, never floats, for both certificate kinds.
        cert = lower_bound_certificate(2, 3, 14)
        upper = upper_bound_certificate(2, 3, 8)
        sides = (cert.inequality_lhs, cert.inequality_rhs, upper.inequality_lhs, upper.inequality_rhs)
        assert all(type(side) is int for side in sides)
        payload = cert.as_dict()
        assert payload["inequality_lhs"] == "15"
        assert payload["kind"] == "lower-vc-ge-k"


class TestUpperBoundCertificate:
    def test_witness_file_reverifies_alone(self, tmp_path):
        path = tmp_path / "witness.vcfam"
        cert = upper_bound_certificate(2, 3, 8, witness_path=str(path))
        assert cert.holds
        reloaded = read_family(path.read_text())
        assert family_certifies_upper(reloaded, 2)

    def test_grid(self):
        for n in range(2, 9):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    assert upper_bound_certificate(k, s, n).holds, (k, s, n)


class TestPropConst:
    def test_depth_one(self):
        report = verify_prop_const(4, 1)
        assert report.passed
        assert report.tail_checked  # 2 < 4

    def test_depth_two(self):
        report = verify_prop_const(4, 2)
        assert report.passed
        assert report.as_dict()["items"] == {
            "covering": True,
            "unique_faces": True,
            "interpolation": True,
            "tail_shattered": True,
        }

    def test_grid(self):
        for m in range(2, 9):
            for k in range(1, 4):
                assert verify_prop_const(m, k).passed, (m, k)

    def test_ground_beyond_sixteen(self):
        assert verify_prop_const(20, 5).passed  # n = 24, 18,832 members

    def test_vacuous_tail_when_ground_is_narrow(self):
        report = verify_prop_const(2, 2)  # n=3, 2k=4 >= 3
        assert not report.tail_checked
        assert report.passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_prop_const(1, 1)
        assert verify_prop_const(14, 4).passed  # n = 17
        with pytest.raises(ValueError, match="ground size 257 exceeds maximum 256"):
            verify_prop_const(250, 8)


class TestOneIncidenceTable:
    """A family builds its incidence table once, however many kernels are
    run on it."""

    @pytest.mark.parametrize("passes, family", [
        (lambda: verify_main_theorem(2, 3).passed, covering_witness_family(2, 3, 14)),
        (lambda: upper_bound_certificate(2, 3, 14).holds, covering_witness_family(2, 3, 14)),
        (lambda: verify_prop_const(6, 3).passed, recursive_family(6, 3)),
        (lambda: family_certifies_upper(full_family(6, 2), 2), full_family(6, 2)),
        (lambda: ufp_implies_vc_bound_check(recursive_family(6, 3)), recursive_family(6, 3)),
    ], ids=["main", "certificate", "prop-const", "certifies-upper", "ufp-implies-vc"])
    def test_one_build_per_family(self, table_builds, passes, family):
        assert passes()
        assert table_builds == [family]


class TestMainTheorem:
    def test_smallest_pairs(self):
        for k, s in [(1, 1), (1, 2), (2, 2)]:
            report = verify_main_theorem(k, s)
            assert report.n == stabilized_ground_size(k, s)
            assert report.passed, (k, s)

    def test_two_three_in_detail(self):
        report = verify_main_theorem(2, 3)
        assert report.n == 14
        assert report.certificate.inequality_lhs == 15
        assert report.certificate.inequality_rhs == 31
        assert report.witness_vc == 2
        assert report.passed

    def test_intractable_rejected(self):
        # Only the ground-size ceiling limits the check: (2,7) at n=86 runs,
        # (3,7) at n=318 exceeds MAX_GROUND = 256.
        assert stabilized_ground_size(2, 7) == 86
        assert verify_main_theorem(2, 7).passed
        assert stabilized_ground_size(3, 7) == 318
        with pytest.raises(ValueError):
            verify_main_theorem(3, 7)

    def test_oracle_agreement_at_tiny_parameters(self):
        report = verify_main_theorem(1, 2)
        assert report.n == 3
        assert oracle_D(Parameters(1, 2, 3)).value == 1


class TestExplore:
    def test_point_covers_stay_exact(self):
        rows = explore(1, 2, range(3, 8))
        assert [r.exact for r in rows] == [1, 1, 1, 1, 1]
        for r in rows:
            assert r.method == "oracle"

    def test_diagonal_closed_form(self):
        rows = explore(2, 2, range(2, 7))
        assert [r.exact for r in rows] == [min(2, n - 2) for n in range(2, 7)]

    def test_row_consistency(self):
        for k, s, ns in [(1, 2, range(3, 8)), (2, 3, range(5, 8)), (2, 2, range(2, 7))]:
            for row in explore(k, s, ns):
                assert row.lower <= row.upper
                if row.exact is not None:
                    assert row.lower <= row.exact <= row.upper, (k, s, row)

    def test_forced_family_beyond_cap(self):
        rows = explore(2, 2, range(8, 10))  # C(n,2) > 24 here
        for row in rows:
            assert row.method == "unique-family"
            assert row.exact == 2

    def test_forced_rows_take_the_forced_familys_dimension(self):
        # s = k forces the full family and s = n the one member [n]; the row
        # reports the witness's VC-dimension, which must be the forced family's.
        for n in range(1, 13):
            for k in range(1, n + 1):
                for s in {k, n}:
                    forced = full_family(n, s) if s == k else make_family(n, [range(1, n + 1)])
                    (row,) = explore(k, s, range(n, n + 1), cap=0)
                    assert row.method == "unique-family"
                    assert row.exact == vc_dimension(forced).dimension, (k, s, n)

    def test_certified_row_at_stabilized_size(self):
        (row,) = explore(2, 3, range(14, 15))
        assert row.lower == 2 and row.upper == 2 and row.stab_upper_hint

    def test_csv_schema(self):
        rows = explore(1, 2, range(3, 6))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "k,s,n,lower,upper,exact,method"
        assert lines[1] == "1,2,3,1,1,1,oracle"
        assert len(lines) == 4

    def test_blank_exact_in_csv(self):
        rows = explore(2, 3, range(9, 10))  # beyond cap, not forced
        text = rows_to_csv(rows)
        assert text.strip().split("\n")[1].split(",")[5] == ""

    def test_workers_agree(self):
        a = explore(2, 3, range(5, 8), workers=1)
        b = explore(2, 3, range(5, 8), workers=8)
        assert a == b

    def test_out_of_range_n_refused_before_any_row(self):
        # Rows 3..256 alone take over a minute, and walking or sorting 10^12
        # values would take hours and run out of memory.
        start = time.perf_counter()
        for n_range in (range(3, 258), range(3, 10**12), range(10**12, 2, -1)):
            with pytest.raises(ValueError, match="ground size 257 exceeds maximum 256"):
                explore(2, 3, n_range)
        assert time.perf_counter() - start < 1.0

    def test_rows_ascend_for_any_step(self):
        ascending = explore(2, 3, range(3, 10, 2))
        assert [row.n for row in ascending] == [3, 5, 7, 9]
        assert explore(2, 3, range(9, 0, -2)) == ascending
        assert [row.n for row in explore(2, 3, range(10, 0, -3))] == [4, 7, 10]

    @pytest.mark.parametrize("k", [0, 6])
    def test_bad_pair_refused_when_no_n_reaches_s(self, k):
        with pytest.raises(ValueError, match="need 1 <= k <= s"):
            explore(k, 5, range(1, 5))

    def test_pair_refused_exactly_where_parameters_refuse_it(self):
        # The pair check names no n, but refuses what Parameters(k, s, s) refuses.
        for k in range(-1, 8):
            for s in (*range(-1, 8), 255, 256, 257, 300):
                try:
                    Parameters(k, s, s)
                    refused = False
                except ValueError:
                    refused = True
                if refused:
                    with pytest.raises(ValueError, match=f"^need 1 <= k <= s <= 256, got k={k} s={s}$"):
                        explore(k, s, range(1, 5))
                else:
                    explore(k, s, range(1, 2))

    def test_range_below_s_is_empty(self):
        assert explore(2, 5, range(1, 5)) == []

    def test_scans(self):
        rows = explore(2, 2, range(2, 7))
        assert stab_upper(rows) == 4  # min(2, n-2) reaches 2 from n=4 onward
        assert monotonicity_scan(rows) == []
        assert surjectivity_scan(rows) == {0, 1, 2}

    def test_stab_upper_none_when_tail_open(self):
        rows = explore(2, 3, range(5, 7))
        # rows bracket [1,2] here, so no stabilization evidence yet
        assert stab_upper(rows) is None or all(
            r.stab_upper_hint for r in rows if r.n >= stab_upper(rows)
        )


class TestParameterValidation:
    """Every entry point rejects bad parameters through the one check it reaches."""

    @pytest.mark.parametrize("k, s, n", [(0, 2, 5), (3, 2, 5), (2, 6, 5), (2, 3, 257)])
    @pytest.mark.parametrize(
        "entry", [covering_witness_family, lower_bound_certificate, upper_bound_certificate]
    )
    def test_triple(self, entry, k, s, n):
        with pytest.raises(ValueError):
            entry(k, s, n)

    @pytest.mark.parametrize("k, s", [(0, 2), (3, 2)])
    def test_main_theorem_pair(self, k, s):
        with pytest.raises(ValueError):
            verify_main_theorem(k, s)

    @pytest.mark.parametrize("m, k", [(1, 2), (3, 0)])
    @pytest.mark.parametrize("entry", [recursive_family, verify_prop_const])
    def test_recursive_shape(self, entry, m, k):
        with pytest.raises(ValueError):
            entry(m, k)
