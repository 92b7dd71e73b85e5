import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexnmpc as cn
from helpers import brute_force_level


class TestIndexing:
    def test_all_ones_is_first(self):
        assert cn.encode((1, 1), 3) == 1

    def test_maximal_sequence(self):
        assert cn.encode((3, 3), 3) == 9

    def test_mixed_sequence(self):
        assert cn.encode((2, 3), 3) == 8

    def test_out_of_range_coefficient(self):
        with pytest.raises(cn.OutOfRangeError):
            cn.encode((0, 1), 3)
        with pytest.raises(cn.OutOfRangeError):
            cn.encode((4,), 3)

    def test_out_of_range_index(self):
        with pytest.raises(cn.OutOfRangeError):
            cn.decode(0, 3, 2)
        with pytest.raises(cn.OutOfRangeError):
            cn.decode(10, 3, 2)

    def test_exhaustive_round_trip(self):
        for s, N in itertools.product((2, 3), range(1, 6)):
            for j in range(1, s ** N + 1):
                assert cn.encode(cn.decode(j, s, N), s) == j
            for coeffs in itertools.product(range(1, s + 1), repeat=N):
                assert cn.decode(cn.encode(coeffs, s), s, N) == coeffs

    @given(st.integers(2, 5), st.lists(st.integers(1, 5), min_size=1,
                                       max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, s, coeffs):
        if any(c > s for c in coeffs):
            with pytest.raises(cn.OutOfRangeError):
                cn.encode(coeffs, s)
            return
        j = cn.encode(coeffs, s)
        assert 1 <= j <= s ** len(coeffs)
        assert cn.decode(j, s, len(coeffs)) == tuple(coeffs)


class TestCatalog:
    def test_level_counts_and_suffix_closure(self, ex2_catalog_n3):
        cat = ex2_catalog_n3
        assert cat.suffix_closed()
        assert cat.count(1) == 3

    def test_matches_brute_force_enumeration(self, ex2, ex2_catalog_n3):
        expect = brute_force_level(ex2["spec"], ex2["lin"], ex2["zsets"],
                                   ex2["terminal"], 3)
        assert list(ex2_catalog_n3.sequences(3)) == expect

    def test_monotone_suffix_counts(self, ex2_catalog_n3):
        cat = ex2_catalog_n3
        for level in (2, 3):
            suffixes = {seq[1:] for seq in cat.sequences(level)}
            assert len(cat.sequences(level - 1)) >= len(suffixes)
            assert suffixes <= set(cat.sequences(level - 1))

    def test_sorted_by_index(self, ex2_catalog_n3):
        for level, seqs in ex2_catalog_n3.levels.items():
            js = [cn.encode(c, 3) for c in seqs]
            assert js == sorted(js)

    def test_unreachable_region_pruned_at_level_one(self):
        # second region sits far from the origin: the terminal set is out of
        # one-step reach, so only all-ones sequences survive
        A = np.array([[0.5, 0.0], [0.0, 0.4]])
        b = np.array([1.0, 0.5])
        box = cn.Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        far = cn.Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                          [6.0, 1.0, -5.0, 1.0])  # 5 <= x1 <= 6
        spec = cn.SystemSpec(A=A, b=b, g=cn.Affine(np.zeros(2), 1.0),
                             regions=((box, 1), (far, 1)), u_lo=-1.0,
                             u_hi=1.0)
        lin = cn.build_linearization(
            spec, cn.compute_output_vector(A, b, 1.0), b0=1.0)
        zsets = cn.build_stage_sets(spec, lin)
        term = cn.build_terminal(spec, lin, zsets, 0.5 * np.eye(2), 1.0,
                                 kind="ellipsoid")
        cat = cn.prune_catalog(spec, lin, zsets, term, 3)
        for level in (1, 2, 3):
            assert cat.sequences(level) == ((1,) * level,)
        # direct enumeration agrees
        assert brute_force_level(spec, lin, zsets, term, 3) == [(1, 1, 1)]

    def test_parallel_matches_serial(self, ex2):
        serial = cn.prune_catalog(ex2["spec"], ex2["lin"], ex2["zsets"],
                                  ex2["terminal"], 6, n_workers=1)
        parallel = cn.prune_catalog(ex2["spec"], ex2["lin"], ex2["zsets"],
                                    ex2["terminal"], 6, n_workers=2)
        assert serial.levels == parallel.levels
        for key in ("screened", "warm", "appended"):
            assert serial.meta[key] == parallel.meta[key]
        assert sum(serial.meta["appended"].values()) > 0

    def test_resume_from_prefix(self, ex2, ex2_catalog_n3):
        full = ex2_catalog_n3
        prefix = full.cut(2)
        assert set(prefix.levels) == set(prefix.witnesses) == {1, 2}
        assert set(prefix.meta["screened"]) == {"1", "2"}
        cat = cn.prune_catalog(ex2["spec"], ex2["lin"], ex2["zsets"],
                               ex2["terminal"], 3, resume=prefix)
        assert cat.levels == full.levels
        # the prefix's counts are kept, and level 3 starts as it would
        assert cat.meta == full.meta

    def test_round_trip_file(self, ex2_catalog_n3, tmp_path):
        path = tmp_path / "cat.json"
        ex2_catalog_n3.save(path)
        loaded = cn.FeasibleCatalog.load(path)
        assert loaded.levels == ex2_catalog_n3.levels
        assert loaded.content_hash == ex2_catalog_n3.content_hash
        assert loaded.feas_tol == ex2_catalog_n3.feas_tol

    def test_hash_changes_with_tolerance(self, ex2):
        h1 = cn.catalog_hash(ex2["spec"], ex2["lin"], ex2["terminal"], 1e-7)
        h2 = cn.catalog_hash(ex2["spec"], ex2["lin"], ex2["terminal"], 1e-6)
        assert h1 != h2


class TestFilterForState:
    def test_origin_keeps_only_first_region(self, ex2, ex2_catalog_n3):
        out = cn.filter_for_state(ex2_catalog_n3, ex2["spec"],
                                  np.zeros(2))
        assert out
        assert all(c[0] == 1 for c in out)

    def test_outside_state_set_empty(self, ex2, ex2_catalog_n3):
        assert cn.filter_for_state(ex2_catalog_n3, ex2["spec"],
                                   np.array([3.0, 3.0])) == []

    def test_facet_state_sees_both_regions(self, ex2, ex2_catalog_n3):
        x = np.array([2.0 / 3.0, -2.0 / 3.0])
        out = cn.filter_for_state(ex2_catalog_n3, ex2["spec"], x, tol=1e-8)
        firsts = {c[0] for c in out}
        assert firsts == {1, 3}

    def test_sorted_ascending_by_j(self, ex2, ex2_catalog_n3):
        x = np.array([-1.0, 1.0])
        out = cn.filter_for_state(ex2_catalog_n3, ex2["spec"], x)
        js = [cn.encode(c, ex2_catalog_n3.s) for c in out]
        assert js == sorted(js)
