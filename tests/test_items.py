"""Tests for data item implementations (façade/fragment behaviour)."""

import numpy as np
import pytest

from repro.items import (
    BalancedTree,
    Grid,
    KDTreeItem,
    ScalarItem,
    build_kdtree,
    synthetic_kdtree,
)
from repro.regions.box import Box
from repro.regions.blocked_tree import BlockedTreeRegion
from repro.regions.tree import TreeGeometry, TreeRegion


def assert_top_tree_joins_part_zero(geometry, parts, level):
    """Part 0 is its band sub-trees plus the tree above ``level``, built
    here one band root at a time as the reference."""
    roots = range(1 << (level - 1), 1 << level)
    top = TreeRegion.full(geometry)
    for root in roots:
        top = top.difference(TreeRegion.of_subtrees(geometry, [root]))
    mine = [root for root in roots if parts[0].contains(root)]
    assert parts[0] == TreeRegion.of_subtrees(geometry, mine).union(top)


def reference_synthetic_arrays(total_points, depth, low, high):
    """A node-by-node build of the synthetic kd-tree's arrays."""
    geometry = TreeGeometry(depth)
    lo = np.zeros((geometry.num_nodes + 1, len(low)))
    hi = np.zeros_like(lo)
    counts = np.zeros(geometry.num_nodes + 1)
    lo[1], hi[1], counts[1] = low, high, total_points
    for node in range(1, 1 << (depth - 1)):
        axis = int(np.argmax(hi[node] - lo[node]))
        mid = 0.5 * (lo[node, axis] + hi[node, axis])
        for child in (2 * node, 2 * node + 1):
            lo[child], hi[child] = lo[node], hi[node]
            counts[child] = counts[node] / 2.0
        hi[2 * node, axis] = mid
        lo[2 * node + 1, axis] = mid
    return lo, hi, counts


class TestGridItem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Grid(())
        with pytest.raises(ValueError):
            Grid((0, 4))
        with pytest.raises(ValueError):
            Grid((4, 4), element_bytes=0)

    def test_bytes_per_element(self):
        assert Grid((2, 2)).bytes_per_element == 8
        assert Grid((2, 2), dtype=np.float32).bytes_per_element == 4
        assert Grid((2, 2), element_bytes=100).bytes_per_element == 100

    def test_box_helper_clips(self):
        grid = Grid((4, 4))
        assert grid.box((2, 2), (10, 10)).size() == 4

    def test_decompose_partitions(self):
        grid = Grid((12, 12))
        parts = grid.decompose(5)
        assert len(parts) == 5
        total = grid.empty_region()
        for part in parts:
            assert total.intersect(part).is_empty()
            total = total.union(part)
        assert total.same_elements(grid.full_region)

    def test_declaration(self):
        grid = Grid((3, 3), name="g")
        decl = grid.declaration()
        assert decl.name == "g"
        assert decl.num_elements() == 9


class TestGridFragment:
    def setup_method(self):
        self.grid = Grid((8, 8), name="g")

    def test_gather_scatter_roundtrip(self):
        frag = self.grid.new_fragment(self.grid.box((0, 0), (8, 8)))
        window = Box.of((2, 2), (6, 6))
        frag.scatter(window, np.arange(16.0).reshape(4, 4))
        assert np.array_equal(
            frag.gather(window), np.arange(16.0).reshape(4, 4)
        )

    def test_gather_across_stored_boxes(self):
        region = self.grid.box((0, 0), (4, 8)).union(
            self.grid.box((4, 0), (8, 4))
        )
        frag = self.grid.new_fragment(region)
        frag.fill(lambda c: c[0] * 8 + c[1])
        window = Box.of((2, 0), (6, 4))
        values = frag.gather(window)
        assert values[0, 0] == 16 and values[3, 3] == 43

    def test_gather_outside_region_rejected(self):
        frag = self.grid.new_fragment(self.grid.box((0, 0), (4, 8)))
        with pytest.raises(KeyError):
            frag.gather(Box.of((2, 0), (6, 8)))

    def test_scatter_shape_checked(self):
        frag = self.grid.new_fragment(self.grid.full_region)
        with pytest.raises(ValueError):
            frag.scatter(Box.of((0, 0), (2, 2)), np.zeros((3, 3)))

    def test_resize_preserves_overlap(self):
        frag = self.grid.new_fragment(self.grid.box((0, 0), (4, 8)))
        frag.set((2, 3), 42.0)
        frag.resize(self.grid.box((2, 0), (6, 8)))
        assert frag.get((2, 3)) == 42.0
        with pytest.raises(KeyError):
            frag.get((0, 0))

    def test_extract_insert_moves_values(self):
        src = self.grid.new_fragment(self.grid.box((0, 0), (4, 8)))
        src.fill(lambda c: 1.0)
        dst = self.grid.new_fragment(self.grid.empty_region())
        dst.insert(src.extract(self.grid.box((1, 0), (3, 8))))
        assert dst.region.size() == 16
        assert dst.get((2, 5)) == 1.0

    def test_virtual_fragment_denies_value_access(self):
        frag = self.grid.new_fragment(self.grid.full_region, functional=False)
        with pytest.raises(RuntimeError):
            frag.get((0, 0))
        with pytest.raises(RuntimeError):
            frag.gather(Box.of((0, 0), (2, 2)))
        payload = frag.extract(self.grid.box((0, 0), (2, 8)))
        assert payload.nbytes == 16 * 8 and payload.data is None

    def test_virtual_payload_into_functional_rejected(self):
        functional = self.grid.new_fragment(self.grid.empty_region())
        virtual = self.grid.new_fragment(self.grid.full_region, functional=False)
        with pytest.raises(ValueError):
            functional.insert(virtual.extract(self.grid.full_region))


class TestScalarItem:
    def test_value_roundtrip(self):
        item = ScalarItem(name="s")
        frag = item.new_fragment(item.full_region)
        frag.set(2.5)
        assert frag.get() == 2.5
        payload = frag.extract(item.full_region)
        other = item.new_fragment(item.empty_region())
        other.insert(payload)
        assert other.get() == 2.5

    def test_empty_fragment_denies_access(self):
        item = ScalarItem()
        frag = item.new_fragment(item.empty_region())
        with pytest.raises(KeyError):
            frag.get()

    def test_resize_to_empty_drops_value(self):
        item = ScalarItem()
        frag = item.new_fragment(item.full_region)
        frag.set(1)
        frag.resize(item.empty_region())
        assert frag.value is None


class TestBalancedTree:
    def test_scheme_selection(self):
        flexible = BalancedTree(depth=4)
        blocked = BalancedTree(depth=4, scheme="blocked", root_height=2)
        assert isinstance(flexible.full_region, TreeRegion)
        assert isinstance(blocked.full_region, BlockedTreeRegion)
        with pytest.raises(ValueError):
            BalancedTree(depth=4, scheme="magic")

    def test_subtree_region_alignment(self):
        blocked = BalancedTree(depth=4, scheme="blocked", root_height=2)
        region = blocked.subtree_region(4)  # block root: aligned
        assert region.size() == 3
        with pytest.raises(ValueError):
            blocked.subtree_region(2)  # inside the root tree: not aligned
        flexible = BalancedTree(depth=4)
        assert flexible.subtree_region(2).size() == 7

    def test_nodes_region_only_flexible(self):
        blocked = BalancedTree(depth=4, scheme="blocked")
        with pytest.raises(ValueError):
            blocked.nodes_region([1])

    def test_decompose_both_schemes(self):
        for scheme in ("flexible", "blocked"):
            tree = BalancedTree(depth=5, scheme=scheme, root_height=2)
            parts = tree.decompose(3)
            assert len(parts) == 3
            total = tree.empty_region()
            for part in parts:
                assert total.intersect(part).is_empty()
                total = total.union(part)
            assert total.same_elements(tree.full_region)
            if scheme == "flexible":
                assert_top_tree_joins_part_zero(tree.geometry, parts, level=3)

    def test_fragment_values(self):
        tree = BalancedTree(depth=4)
        frag = tree.new_fragment(tree.subtree_region(2))
        frag.set(4, "x")
        assert frag.get(4) == "x"
        with pytest.raises(KeyError):
            frag.set(3, "y")  # node 3 not in subtree of 2
        other = tree.new_fragment(tree.subtree_region(3))
        other.insert(frag.extract(tree.subtree_region(4)))
        assert other.get(4) == "x"

    def test_fragment_resize_drops_values(self):
        tree = BalancedTree(depth=4)
        frag = tree.new_fragment(tree.full_region)
        frag.set(5, 1)
        frag.resize(tree.subtree_region(3))
        with pytest.raises(KeyError):
            frag.get(5)


class TestKDTree:
    def test_functional_query_matches_brute_force(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 100, size=(512, 3))
        tree = build_kdtree(points, depth=6)
        for _ in range(10):
            q = rng.uniform(0, 100, size=3)
            stats = tree.query(q, 25.0)
            assert stats.count == tree.brute_force_count(q, 25.0)
            assert stats.visited_nodes <= tree.num_nodes

    def test_pruning_reduces_work(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0, 100, size=(2048, 7))
        tree = build_kdtree(points, depth=8)
        stats = tree.query(rng.uniform(0, 100, size=7), 10.0)
        assert stats.visited_nodes < tree.num_nodes / 2
        assert stats.scanned_points < 2048

    def test_query_from_subtree_partition(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(0, 100, size=(1024, 4))
        tree = build_kdtree(points, depth=6)
        q = rng.uniform(0, 100, size=4)
        whole = tree.query(q, 30.0).count
        # level-2 subtrees partition the point set
        split = sum(tree.query_from(r, q, 30.0).count for r in (2, 3))
        assert split == whole

    def test_synthetic_structure(self):
        tree = synthetic_kdtree(2**20, depth=10, low=[0] * 3, high=[100] * 3)
        assert tree.total_points == 2**20
        assert tree.leaf_points is None
        stats = tree.query([50, 50, 50], 20.0)
        assert stats.visited_nodes > 1
        with pytest.raises(RuntimeError):
            tree.brute_force_count([0, 0, 0], 1.0)

    def test_synthetic_counts_halve(self):
        tree = synthetic_kdtree(1024.0, depth=4, low=[0, 0], high=[8, 8])
        assert tree.counts[2] == tree.counts[3] == 512

    @pytest.mark.parametrize("args", [
        (1024.0, 4, [0, 0], [8, 8]),
        (1_000_003, 10, [0.0] * 7, [100.0] * 7),
        (2**20, 9, [0, -3, 1], [100, 7, 60]),  # unequal widths
        (5.0, 1, [0], [1]),
    ])
    def test_synthetic_matches_node_by_node_build(self, args):
        tree = synthetic_kdtree(*args)
        lo, hi, counts = reference_synthetic_arrays(*args)
        for built, expected in zip((tree.bbox_lo, tree.bbox_hi, tree.counts),
                                   (lo, hi, counts)):
            assert built.dtype == expected.dtype
            assert np.array_equal(built, expected)

    def test_item_and_fragment(self):
        rng = np.random.default_rng(10)
        tree = build_kdtree(rng.uniform(0, 100, (256, 2)), depth=5)
        item = KDTreeItem(tree, name="kd")
        assert item.bytes_per_element >= 1
        frag = item.new_fragment(item.subtree_region(2))
        assert frag.can_visit(4)
        assert not frag.can_visit(3)
        payload = frag.extract(item.subtree_region(4))
        other = item.new_fragment(item.subtree_region(3))
        other.insert(payload)
        assert other.can_visit(4)

    def test_item_decompose_contiguous_bands(self):
        tree = synthetic_kdtree(2**12, depth=8, low=[0] * 2, high=[1] * 2)
        item = KDTreeItem(tree)
        parts = item.decompose(4)
        total = item.empty_region()
        for part in parts:
            assert total.intersect(part).is_empty()
            total = total.union(part)
        assert total.same_elements(item.full_region)
        assert_top_tree_joins_part_zero(item.geometry, parts, level=3)

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_kdtree(np.zeros(5), depth=3)
        with pytest.raises(ValueError):
            synthetic_kdtree(100, depth=4, low=[0, 0], high=[1])
