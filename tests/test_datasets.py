"""Tests for data generation, partitioning, and file ingestion."""

import numpy as np
import pytest

from oneshot_fl import datasets
from oneshot_fl.datasets import (
    FederatedDataset,
    dirichlet_partition,
    gen_image_classes,
    gen_synthetic,
    load_csv,
    load_idx,
    normalize_unit,
)

from idx_files import write_idx
from oracle import allocating_image_classes, padded_smooth_fields


class TestNormalizeUnit:
    def test_vector(self):
        v = normalize_unit(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8])

    def test_rows(self):
        x = normalize_unit(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0)

    def test_zero_row_named(self):
        with pytest.raises(ValueError, match="row 1"):
            normalize_unit(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 0"):
            normalize_unit(np.zeros(3))


class TestGenSynthetic:
    def test_shapes_and_unit_norms(self):
        ds = gen_synthetic(clients=3, per_client=50, dim=4, seed=0)
        assert ds.x.shape == (150, 4)
        assert ds.y.shape == (150,)
        assert ds.num_clients == 3
        assert ds.num_classes == 0
        assert np.allclose(np.linalg.norm(ds.x, axis=1), 1.0, atol=1e-12)

    def test_targets_match_recorded_weights(self):
        ds = gen_synthetic(clients=2, per_client=20, dim=3, seed=1)
        w = ds.meta["client_weight_vectors"]
        for i in range(2):
            xi, yi = ds.client_data(i)
            assert np.allclose(yi, xi @ w[i], atol=1e-12)

    def test_partition_contiguous_disjoint_cover(self):
        ds = gen_synthetic(clients=4, per_client=10, dim=2, seed=2)
        joined = np.concatenate(ds.partition)
        assert np.array_equal(np.sort(joined), np.arange(40))
        for i, part in enumerate(ds.partition):
            assert np.array_equal(part, np.arange(i * 10, (i + 1) * 10))

    def test_deterministic_per_seed(self):
        a = gen_synthetic(2, 15, 3, seed=5)
        b = gen_synthetic(2, 15, 3, seed=5)
        c = gen_synthetic(2, 15, 3, seed=6)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.x, c.x)

    def test_client_draws_independent_of_client_count(self):
        # Client 0's data must not change when more clients are added.
        a = gen_synthetic(1, 10, 3, seed=7)
        b = gen_synthetic(3, 10, 3, seed=7)
        assert np.array_equal(a.x[:10], b.x[:10])
        assert np.array_equal(a.y[:10], b.y[:10])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 10, 2, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(2, 0, 2, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(2, 10, 0, seed=0)


class TestDirichletPartition:
    def test_disjoint_cover(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=500)
        for seed in range(10):
            parts = dirichlet_partition(labels, clients=5, alpha=0.1, seed=seed)
            assert len(parts) == 5
            joined = np.concatenate(parts)
            assert np.array_equal(np.sort(joined), np.arange(500))
            for p in parts:
                assert p.size > 0
                assert np.array_equal(p, np.sort(p))

    def test_single_client_gets_everything(self):
        labels = np.array([0, 1, 0, 1])
        parts = dirichlet_partition(labels, clients=1, alpha=0.5, seed=0)
        assert len(parts) == 1
        assert np.array_equal(parts[0], np.arange(4))

    def test_small_alpha_is_skewed(self):
        # alpha = 0.05 should concentrate each class on few clients; measure
        # the mean share of a class's examples held by its top client.
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 10, size=2000)
        tops = []
        for seed in range(20):
            parts = dirichlet_partition(labels, clients=5, alpha=0.05, seed=seed)
            for c in range(10):
                owners = np.array([(labels[p] == c).sum() for p in parts])
                tops.append(owners.max() / owners.sum())
        assert np.mean(tops) > 0.7

    def test_large_alpha_is_balanced(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 10, size=2000)
        sizes = []
        for seed in range(20):
            parts = dirichlet_partition(labels, clients=4, alpha=100.0, seed=seed)
            sizes.append([p.size for p in parts])
        sizes = np.array(sizes, dtype=np.float64)
        # Every client close to n/clients = 500 on average.
        assert np.all(abs(sizes.mean(axis=0) - 500.0) < 50.0)

    def test_deterministic(self):
        labels = np.random.default_rng(3).integers(0, 5, size=300)
        a = dirichlet_partition(labels, 4, 0.3, seed=9)
        b = dirichlet_partition(labels, 4, 0.3, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_no_empty_clients_even_when_tight(self):
        # 5 examples, 5 clients, tiny alpha: the rescue path must fill all.
        labels = np.zeros(5, dtype=np.int64)
        parts = dirichlet_partition(labels, clients=5, alpha=0.01, seed=4)
        assert all(p.size == 1 for p in parts)

    def test_rejects_bad_args(self):
        labels = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, clients=0, alpha=0.1, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, clients=2, alpha=0.0, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, clients=11, alpha=0.1, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels.reshape(2, 5), clients=2, alpha=0.1, seed=0)


class TestIdxRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ip = str(tmp_path / "img.idx")
        lp = str(tmp_path / "lab.idx")
        write_idx(images, labels, ip, lp)
        x, y = load_idx(ip, lp)
        assert x.shape == (7, 20)
        assert y.dtype == np.int64
        assert np.array_equal(y, labels)
        assert np.allclose(x, images.reshape(7, 20) / 255.0)

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        images = np.full((2, 2, 2), 255, dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        write_idx(images, labels, str(tmp_path / "i"), str(tmp_path / "l"))
        x, _ = load_idx(str(tmp_path / "i"), str(tmp_path / "l"))
        assert np.all(x == 1.0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00\x00\x01" + b"\x00" * 12)
        lp = tmp_path / "lab"
        lp.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            load_idx(str(p), str(lp))

    def test_truncated_image_data(self, tmp_path):
        import struct

        p = tmp_path / "img"
        p.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + b"\x00" * 7)
        lp = tmp_path / "lab"
        lp.write_bytes(struct.pack(">II", 2049, 2) + b"\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            load_idx(str(p), str(lp))

    def test_count_mismatch(self, tmp_path):
        import struct

        p = tmp_path / "img"
        p.write_bytes(struct.pack(">IIII", 2051, 1, 2, 2) + b"\x00" * 4)
        lp = tmp_path / "lab"
        lp.write_bytes(struct.pack(">II", 2049, 2) + b"\x00\x01")
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(str(p), str(lp))

    def test_trailing_bytes(self, tmp_path):
        import struct

        p = tmp_path / "img"
        p.write_bytes(struct.pack(">IIII", 2051, 1, 1, 1) + b"\x00" + b"\xff")
        lp = tmp_path / "lab"
        lp.write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_idx(str(p), str(lp))

    def test_write_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_idx(np.zeros((2, 3)), np.zeros(2), str(tmp_path / "i"), str(tmp_path / "l"))
        with pytest.raises(ValueError):
            write_idx(
                np.zeros((2, 3, 3), dtype=np.uint8),
                np.zeros(3, dtype=np.uint8),
                str(tmp_path / "i"),
                str(tmp_path / "l"),
            )


class TestLoadCsv:
    def test_numeric_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,target\n1.0,2.0,3\n3.0,4.0,1\n5.0,6.0,3\n")
        x, y, names = load_csv(str(p))
        assert names == ["1", "3"]
        assert np.allclose(x, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(y, [1, 0, 1])
        assert y.dtype == np.int64

    def test_string_labels_sorted_codes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,label\n0.1,dog\n0.2,cat\n0.3,dog\n")
        x, y, names = load_csv(str(p))
        assert names == ["cat", "dog"]
        assert np.array_equal(y, [1, 0, 1])
        assert y.dtype == np.int64

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match=":3"):
            load_csv(str(p))

    def test_empty_and_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(str(p))
        p.write_text("a,b,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(p))

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\noops,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(str(p))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        # float() parses these, and training on them diverged.
        p = tmp_path / "d.csv"
        p.write_text(f"a,b,y\n1,2,x\n3,4,y\n5,{value},x\n")
        with pytest.raises(ValueError, match=f"d.csv:4: non-finite feature value '{value}'"):
            load_csv(str(p))

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n1\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(str(p))


class TestGenImageClasses:
    def test_shapes_ranges_determinism(self):
        xtr, ytr, xte, yte = gen_image_classes(40, 10, classes=4, side=8, seed=0)
        assert xtr.shape == (40, 64)
        assert xte.shape == (10, 64)
        assert ytr.shape == (40,) and yte.shape == (10,)
        assert xtr.min() >= 0.0 and xtr.max() <= 1.0
        assert set(np.unique(np.concatenate([ytr, yte]))) <= set(range(4))
        xtr2, ytr2, _, _ = gen_image_classes(40, 10, classes=4, side=8, seed=0)
        assert np.array_equal(xtr, xtr2)
        assert np.array_equal(ytr, ytr2)

    def test_classes_are_separable_by_template(self):
        # Nearest-template classification should beat chance by a wide margin
        # at the default noise levels.
        xtr, ytr, _, _ = gen_image_classes(200, 10, classes=5, side=12, seed=1)
        correct = 0
        templates = np.stack(
            [xtr[ytr == c].mean(axis=0) for c in range(5)]
        )
        for i in range(200):
            pred = np.argmin(((templates - xtr[i]) ** 2).sum(axis=1))
            correct += pred == ytr[i]
        assert correct / 200 > 0.6

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            gen_image_classes(10, 5, classes=1)

    def test_needs_side_two(self):
        # A 1x1 image is constant: min-max scaling would divide 0 by 0.
        with pytest.raises(ValueError, match="side of at least 2"):
            gen_image_classes(10, 5, classes=2, side=1)


class TestInPlaceImages:
    """The in-place blur and generator against the allocating references."""

    @pytest.mark.parametrize("side", [2, 3, 28])
    @pytest.mark.parametrize("passes", [0, 1, 2, 3])
    def test_smooth_fields_bit_identical(self, side, passes):
        got = datasets._smooth_fields(np.random.default_rng(31), 7, side, passes)
        want = padded_smooth_fields(np.random.default_rng(31), 7, side, passes)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("side", [6, 28])
    def test_image_classes_bit_identical(self, side):
        got = gen_image_classes(60, 20, classes=5, side=side, seed=4)
        want = allocating_image_classes(60, 20, classes=5, side=side, seed=4)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


class TestFederatedDataset:
    def test_client_data_slices(self):
        ds = FederatedDataset(
            x=np.arange(12.0).reshape(6, 2),
            y=np.arange(6.0),
            partition=[np.array([0, 2]), np.array([1, 3, 4, 5])],
        )
        x0, y0 = ds.client_data(0)
        assert np.array_equal(y0, [0.0, 2.0])
        assert x0.shape == (2, 2)
        assert ds.num_clients == 2
