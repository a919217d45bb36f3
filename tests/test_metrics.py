import numpy as np
import pytest

import multishape as ms
from conftest import disk_mask
from oracles import naive_dsc, naive_pixel_metrics


class TestPixelMetrics:
    def test_perfect_segmentation(self):
        rng = np.random.default_rng(2)
        truth = [rng.random((12, 12)) < 0.4 for _ in range(3)]
        rep = ms.pixel_metrics(truth, truth)
        assert (rep.tpr, rep.tnr, rep.fpr, rep.fnr) == (1.0, 1.0, 0.0, 0.0)

    def test_total_miss(self):
        truth = [disk_mask((16, 16), (8, 8), 4)]
        empty = [np.zeros((16, 16), dtype=bool)]
        rep = ms.pixel_metrics(empty, truth)
        assert rep.tpr == 0.0 and rep.fnr == 1.0

    def test_overlap_multi_count(self):
        # two objects share pixels; one object fully missed
        a = np.zeros((8, 8), dtype=bool)
        b = np.zeros((8, 8), dtype=bool)
        a[2:6, 1:5] = True
        b[2:6, 3:7] = True          # overlap columns 3..4
        predicted = [a.copy(), np.zeros_like(b)]
        rep = ms.pixel_metrics(predicted, [a, b])
        exp = naive_pixel_metrics(predicted, [a, b])
        assert (rep.tpr, rep.tnr, rep.fpr, rep.fnr) == exp
        # the shared pixels count inside the missed object's term
        assert rep.fnr == b.sum() / (a.sum() + b.sum())
        assert rep.tpr != 1.0 - rep.fnr

    def test_empty_truth_error(self):
        with pytest.raises(ms.EmptyTruth):
            ms.pixel_metrics([], [])

    def test_dimension_mismatch(self):
        with pytest.raises(ms.DimensionMismatch):
            ms.pixel_metrics([np.zeros((4, 4), bool)],
                             [np.zeros((5, 5), bool)])

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            truth = [rng.random((8, 8)) < rng.uniform(0.1, 0.7)
                     for _ in range(n)]
            pred = [rng.random((8, 8)) < rng.uniform(0.1, 0.7)
                    for _ in range(n)]
            rep = ms.pixel_metrics(pred, truth)
            exp = naive_pixel_metrics(pred, truth)
            assert (rep.tpr, rep.tnr, rep.fpr, rep.fnr) == exp
            assert rep.fpr == 1.0 - rep.tnr
            for v in (rep.tpr, rep.tnr, rep.fpr, rep.fnr):
                assert 0.0 <= v <= 1.0


class TestDsc:
    def test_identity(self):
        m = disk_mask((16, 16), (8, 8), 5)
        assert ms.dsc(m, m) == 1.0

    def test_disjoint(self):
        a = disk_mask((32, 16), (8, 8), 4)
        b = disk_mask((32, 16), (24, 8), 4)
        assert ms.dsc(a, b) == 0.0

    def test_hand_computed(self):
        a = np.zeros((20, 20), dtype=bool)
        b = np.zeros((20, 20), dtype=bool)
        a.reshape(-1)[:100] = True
        b.reshape(-1)[40:140] = True
        assert ms.dsc(a, b) == 0.6

    def test_both_empty(self):
        e = np.zeros((8, 8), dtype=bool)
        assert ms.dsc(e, e) == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            a = rng.random((8, 8)) < rng.uniform(0, 1)
            b = rng.random((8, 8)) < rng.uniform(0, 1)
            d1, d2 = ms.dsc(a, b), ms.dsc(b, a)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0
            assert d1 == naive_dsc(a, b)


class TestOverlappingDegree:
    def test_isolated_object(self):
        m = disk_mask((48, 48), (24, 24), 8)
        assert ms.overlapping_degree(m, [], (24.0, 24.0), 36) == 0.0
        far = disk_mask((48, 48), (40, 40), 3)
        assert ms.overlapping_degree(m, [far], (24.0, 24.0), 36) == 0.0

    def test_coincident_disks(self):
        m = disk_mask((48, 48), (24, 24), 8)
        k = 36
        degree = ms.overlapping_degree(m, [m.copy()], (24.0, 24.0), k)
        assert degree == (k - 1) / k
        assert ms.degree_bin(degree) == 3

    def test_half_embedded_disk(self):
        # half of the boundary lies inside a big neighbour
        m = disk_mask((96, 96), (40, 48), 10)
        other = np.zeros((96, 96), dtype=bool)
        other[:, 40:] = True
        degree = ms.overlapping_degree(m, [other], (40.0, 48.0), 360)
        assert abs(degree - 0.5) <= 0.05

    def test_range(self):
        m = disk_mask((48, 48), (24, 24), 8)
        other = disk_mask((48, 48), (28, 24), 8)
        d = ms.overlapping_degree(m, [other], (24.0, 24.0), 72)
        assert 0.0 <= d < 1.0

    def test_dimension_mismatch(self):
        m = disk_mask((48, 48), (24, 24), 8)
        other = disk_mask((48, 50), (28, 24), 8)
        with pytest.raises(ms.DimensionMismatch):
            ms.overlapping_degree(m, [other], (24.0, 24.0), 36)


class TestBinning:
    def _report(self, dsc, degree):
        return ms.ObjectReport(object_id=0, dsc=dsc,
                               overlapping_degree=degree,
                               bin_index=ms.metrics.degree_bin(degree),
                               isolated=degree == 0.0)

    def test_single_bin(self):
        reports = [self._report(0.9, 0.1) for _ in range(4)]
        bins = ms.bin_by_degree(reports)
        assert [b["count"] for b in bins] == [4, 0, 0, 0]
        assert bins[0]["mean_dsc"] == pytest.approx(0.9)

    def test_boundary_placement(self):
        degrees = [0.2, 0.3, 0.6, 0.8]
        reports = [self._report(0.8, d) for d in degrees]
        bins = ms.bin_by_degree(reports)
        assert [b["count"] for b in bins] == [1, 1, 1, 1]

    def test_exact_bin_edges(self):
        for degree, expected in [(0.0, 0), (0.25, 1), (0.5, 2), (0.75, 3)]:
            assert ms.metrics.degree_bin(degree) == expected

    def test_zero_degree_flagged(self):
        bins = ms.bin_by_degree([self._report(1.0, 0.0)])
        assert bins[0]["isolated"] == 1

    def test_empty_input_no_nan(self):
        bins = ms.bin_by_degree([])
        for b in bins:
            assert b["count"] == 0
            assert "mean_dsc" not in b and "std_dsc" not in b
