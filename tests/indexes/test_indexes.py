"""Tests for Ball-tree, R-tree, LSH, and the single-dimensional indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.indexes import (
    BallTree,
    BTreeIndex,
    HashIndex,
    RandomHyperplaneLSH,
    RTree,
    SortedFileIndex,
    rect_from_bbox,
)
from repro.storage.kvstore import Pager


def brute_radius(points, query, radius):
    dists = np.sqrt(((points - query) ** 2).sum(axis=1))
    return set(np.flatnonzero(dists <= radius).tolist())


class TestBallTree:
    def test_radius_matches_brute_force(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(500, 8))
        tree = BallTree(points, leaf_size=8)
        for _ in range(20):
            query = rng.normal(size=8)
            expected = brute_radius(points, query, 1.5)
            assert set(tree.query_radius(query, 1.5)) == expected

    def test_knn_matches_brute_force(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(300, 6))
        tree = BallTree(points, leaf_size=4)
        query = rng.normal(size=6)
        dists = np.sqrt(((points - query) ** 2).sum(axis=1))
        expected = set(np.argsort(dists)[:7].tolist())
        got = {row for _, row in tree.query_knn(query, 7)}
        assert got == expected

    def test_knn_sorted_ascending(self):
        rng = np.random.default_rng(2)
        tree = BallTree(rng.normal(size=(100, 4)))
        result = tree.query_knn(rng.normal(size=4), 5)
        dists = [dist for dist, _ in result]
        assert dists == sorted(dists)

    def test_custom_ids(self):
        points = np.array([[0.0, 0.0], [10.0, 10.0]])
        tree = BallTree(points, ids=["a", "b"])
        assert tree.query_radius([0.1, 0.1], 1.0) == ["a"]

    def test_duplicate_points(self):
        points = np.zeros((50, 3))
        tree = BallTree(points, leaf_size=4)
        assert len(tree.query_radius(np.zeros(3), 0.0)) == 50

    def test_zero_radius_exact_match(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        tree = BallTree(points)
        assert tree.query_radius([1.0, 2.0], 0.0) == [0]

    def test_rejects_empty(self):
        with pytest.raises(IndexError_, match="zero points"):
            BallTree(np.zeros((0, 4)))

    def test_rejects_bad_query_dim(self):
        tree = BallTree(np.zeros((3, 4)))
        with pytest.raises(IndexError_, match="dim"):
            tree.query_radius(np.zeros(3), 1.0)

    def test_rejects_negative_radius(self):
        tree = BallTree(np.zeros((3, 2)))
        with pytest.raises(IndexError_, match="non-negative"):
            tree.query_radius(np.zeros(2), -1.0)

    def test_rejects_bad_k(self):
        tree = BallTree(np.zeros((3, 2)))
        with pytest.raises(IndexError_, match="k must be"):
            tree.query_knn(np.zeros(2), 0)

    def test_id_count_mismatch(self):
        with pytest.raises(IndexError_, match="ids"):
            BallTree(np.zeros((3, 2)), ids=["only-one"])

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_radius_property(self, n, dim, radius):
        rng = np.random.default_rng(n * 31 + dim)
        points = rng.normal(size=(n, dim))
        tree = BallTree(points, leaf_size=5)
        query = rng.normal(size=dim)
        assert set(tree.query_radius(query, radius)) == brute_radius(
            points, query, radius
        )


def brute_intersect(rects, query):
    out = set()
    for idx, (mins, maxs) in enumerate(rects):
        if all(
            lo <= q_hi and q_lo <= hi
            for lo, hi, q_lo, q_hi in zip(mins, maxs, query[0], query[1])
        ):
            out.add(idx)
    return out


class TestRTree:
    def _random_rects(self, rng, n, dim=2, extent=100.0):
        rects = []
        for _ in range(n):
            mins = rng.uniform(0, extent, size=dim)
            sizes = rng.uniform(0.5, extent / 10, size=dim)
            rects.append((tuple(mins), tuple(mins + sizes)))
        return rects

    def test_intersect_matches_brute_force(self):
        rng = np.random.default_rng(3)
        rects = self._random_rects(rng, 400)
        tree = RTree(max_entries=8)
        for idx, rect in enumerate(rects):
            tree.insert(rect, idx)
        for _ in range(20):
            query = self._random_rects(rng, 1)[0]
            assert set(tree.search_intersect(query)) == brute_intersect(rects, query)

    def test_bulk_load_matches_inserts(self):
        rng = np.random.default_rng(4)
        rects = self._random_rects(rng, 300)
        inserted = RTree()
        for idx, rect in enumerate(rects):
            inserted.insert(rect, idx)
        bulk = RTree()
        bulk.bulk_load(list(zip(rects, range(len(rects)))))
        assert len(bulk) == len(inserted) == 300
        query = ((20.0, 20.0), (60.0, 60.0))
        assert set(bulk.search_intersect(query)) == set(
            inserted.search_intersect(query)
        )

    def test_containment(self):
        tree = RTree()
        tree.insert(((1, 1), (2, 2)), "inside")
        tree.insert(((0, 0), (10, 10)), "outside")
        assert tree.search_contained_in(((0, 0), (5, 5))) == ["inside"]

    def test_point_query(self):
        tree = RTree()
        tree.insert(((0, 0), (5, 5)), "a")
        tree.insert(((10, 10), (20, 20)), "b")
        assert tree.search_point((3, 3)) == ["a"]
        assert tree.search_point((7, 7)) == []

    def test_higher_dimensions(self):
        rng = np.random.default_rng(5)
        rects = self._random_rects(rng, 150, dim=6)
        tree = RTree(max_entries=8)
        for idx, rect in enumerate(rects):
            tree.insert(rect, idx)
        query = self._random_rects(rng, 1, dim=6)[0]
        assert set(tree.search_intersect(query)) == brute_intersect(rects, query)

    def test_empty_tree_queries(self):
        tree = RTree()
        assert tree.search_intersect(((0, 0), (1, 1))) == []

    def test_rect_from_bbox(self):
        assert rect_from_bbox((5, 7, 2, 3)) == ((2.0, 3.0), (5.0, 7.0))

    def test_rejects_min_gt_max(self):
        tree = RTree()
        with pytest.raises(IndexError_, match="min > max"):
            tree.insert(((5, 5), (1, 1)), "bad")

    def test_rejects_dim_mismatch(self):
        tree = RTree()
        tree.insert(((0, 0), (1, 1)), "2d")
        with pytest.raises(IndexError_, match="dims"):
            tree.insert(((0, 0, 0), (1, 1, 1)), "3d")

    def test_height_grows(self):
        tree = RTree(max_entries=4)
        rng = np.random.default_rng(6)
        for idx, rect in enumerate(self._random_rects(rng, 200)):
            tree.insert(rect, idx)
        assert tree.height() >= 3

    def test_duplicates_allowed(self):
        tree = RTree()
        rect = ((0, 0), (1, 1))
        tree.insert(rect, "a")
        tree.insert(rect, "b")
        assert set(tree.search_intersect(rect)) == {"a", "b"}


class TestLSH:
    def test_exact_duplicates_always_candidates(self):
        rng = np.random.default_rng(7)
        lsh = RandomHyperplaneLSH(dim=16, n_tables=4, n_bits=8, seed=1)
        vectors = rng.normal(size=(50, 16))
        for idx, vec in enumerate(vectors):
            lsh.insert(vec, idx)
        for idx, vec in enumerate(vectors):
            assert idx in lsh.candidates(vec)

    def test_near_neighbors_usually_found(self):
        rng = np.random.default_rng(8)
        lsh = RandomHyperplaneLSH(dim=32, n_tables=12, n_bits=8, seed=2)
        base = rng.normal(size=(100, 32))
        for idx, vec in enumerate(base):
            lsh.insert(vec, idx)
        found = 0
        for idx in range(100):
            probe = base[idx] + rng.normal(0, 0.01, size=32)
            if idx in lsh.candidates(probe):
                found += 1
        assert found >= 90

    def test_candidates_shrink_with_more_bits(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(400, 16))
        few_bits = RandomHyperplaneLSH(dim=16, n_tables=2, n_bits=4, seed=3)
        many_bits = RandomHyperplaneLSH(dim=16, n_tables=2, n_bits=16, seed=3)
        for idx, vec in enumerate(vectors):
            few_bits.insert(vec, idx)
            many_bits.insert(vec, idx)
        query = rng.normal(size=16)
        assert len(many_bits.candidates(query)) <= len(few_bits.candidates(query))

    def test_rejects_bad_params(self):
        with pytest.raises(IndexError_):
            RandomHyperplaneLSH(dim=0)
        with pytest.raises(IndexError_):
            RandomHyperplaneLSH(dim=4, n_bits=99)

    def test_rejects_wrong_dim_vector(self):
        lsh = RandomHyperplaneLSH(dim=4)
        with pytest.raises(IndexError_, match="dim"):
            lsh.insert(np.zeros(5), "x")


class TestSingleDimIndexes:
    def test_hash_index(self, tmp_path):
        with Pager(tmp_path / "idx.db") as pager:
            index = HashIndex(pager, "labels")
            index.insert("car", 1)
            index.insert("car", 2)
            index.insert("person", 3)
            assert sorted(index.lookup("car")) == [1, 2]
            assert index.lookup("bus") == []
            assert len(index) == 3

    def test_hash_index_no_range(self, tmp_path):
        with Pager(tmp_path / "idx.db") as pager:
            index = HashIndex(pager, "labels")
            with pytest.raises(IndexError_, match="range"):
                list(index.range(1, 2))

    def test_btree_index_range(self, tmp_path):
        with Pager(tmp_path / "idx.db") as pager:
            index = BTreeIndex(pager, "frameno")
            for frame in range(50):
                index.insert(frame, frame * 10)
            hits = list(index.range(10, 12))
            assert hits == [(10, 100), (11, 110), (12, 120)]

    def test_btree_bulk_load(self, tmp_path):
        with Pager(tmp_path / "idx.db") as pager:
            index = BTreeIndex(pager, "frameno")
            index.bulk_load([(i, i) for i in range(100)])
            assert index.lookup(42) == [42]

    def test_btree_delete(self, tmp_path):
        with Pager(tmp_path / "idx.db") as pager:
            index = BTreeIndex(pager, "x")
            index.insert(1, 10)
            index.insert(1, 11)
            assert index.delete(1, 10) == 1
            assert index.lookup(1) == [11]

    def test_sorted_file_index(self, tmp_path):
        index = SortedFileIndex(tmp_path / "sorted.idx")
        index.bulk_build([(3, 30), (1, 10), (2, 20)])
        assert index.lookup(2) == [20]
        assert [key for key, _ in index.range(1, 2)] == [1, 2]
        index.close()

    def test_sorted_file_append_ordered(self, tmp_path):
        index = SortedFileIndex(tmp_path / "sorted.idx")
        index.append(1, 10)
        index.append(5, 50)
        assert index.lookup(5) == [50]
        index.close()


class TestNumericKeyImages:
    """``7`` and ``7.0`` are equal keys, but their encoded images carry an
    int/float discriminator: probes must find either stored type."""

    @pytest.mark.parametrize("kind", ["hash", "btree"])
    @pytest.mark.parametrize(
        "stored, probe",
        [(7, 7.0), (7.0, 7), (7, 7), (7.0, 7.0), (7, np.float32(7.0))],
    )
    def test_lookup_finds_numerically_equal_key(
        self, tmp_path, kind, stored, probe
    ):
        with Pager(tmp_path / "idx.db") as pager:
            index = (HashIndex if kind == "hash" else BTreeIndex)(pager, "x")
            index.insert(stored, 1)
            index.insert(7.5, 2)
            index.insert(8, 3)
            index.insert(True, 4)
            assert index.lookup(probe) == [1]
            assert index.lookup(7.5) == [2]
            assert index.lookup(True) == [4]

    @pytest.mark.parametrize(
        "lo, hi, flags, expected",
        [
            (7, 9, {}, [7, 70, 80, 9, 90]),
            (7.0, 9.0, {}, [7, 70, 80, 9, 90]),
            (7, 9, {"include_lo": False}, [80, 9, 90]),
            (7, 9, {"include_hi": False}, [7, 70, 80]),
            (7.5, 9, {}, [80, 9, 90]),
            (None, 7, {}, [6, 7, 70]),
            (9.0, None, {}, [9, 90, 10]),
        ],
    )
    def test_btree_range_covers_both_images(
        self, tmp_path, lo, hi, flags, expected
    ):
        with Pager(tmp_path / "idx.db") as pager:
            index = BTreeIndex(pager, "x")
            # payload id = key for ints, 10 * key for floats
            for key in (6, 7, 7.0, 8.0, 9, 9.0, 10):
                index.insert(key, int(key * 10) if isinstance(key, float) else key)
            assert [pid for _, pid in index.range(lo, hi, **flags)] == expected
