import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potts_sl import (
    DataError,
    Image,
    ProbField,
    miou,
    read_ground_truth,
    read_image,
    read_probfield,
    read_scribbles,
    visualize,
    write_image,
    write_labels,
    write_probfield,
)
from potts_sl.fileio import DEFAULT_PALETTE, read_label_map

# header (magic, 1, 1, 2 as u32 LE) + float32 LE 0.25, 0.75
GOLDEN_PFLD = (
    b"PFLD"
    + b"\x01\x00\x00\x00"
    + b"\x01\x00\x00\x00"
    + b"\x02\x00\x00\x00"
    + b"\x00\x00\x80\x3e"
    + b"\x00\x00\x40\x3f"
)


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = Image(rng.integers(0, 256, size=(3, 5, 3)))
        path = tmp_path / "img.ppm"
        write_image(image, path)
        back = read_image(path)
        np.testing.assert_array_equal(back.data, image.data)

    def test_known_ppm_bytes(self, tmp_path):
        path = tmp_path / "two.ppm"
        payload = bytes([10, 20, 30, 200, 210, 220, 1, 2, 3, 4, 5, 6])
        path.write_bytes(b"P6\n2 2\n255\n" + payload)
        image = read_image(path)
        np.testing.assert_array_equal(image.data.ravel(), np.frombuffer(payload, np.uint8))

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x07\x08\x09")
        assert read_image(path).data[0, 0, 2] == 9

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DataError):
            read_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(DataError):
            read_image(path)

    def test_nonstandard_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError):
            read_label_map(path)

    def test_pgm_round_trip_with_unlabeled(self, tmp_path):
        labels = np.array([[0, 1], [2, 0]])
        path = tmp_path / "lab.pgm"
        write_labels(labels, path)
        raw = read_label_map(path)
        np.testing.assert_array_equal(raw, [[255, 1], [2, 255]])
        scr = read_scribbles(path, classes=2)
        np.testing.assert_array_equal(scr.data, labels)

    def test_all_unlabeled(self, tmp_path):
        path = tmp_path / "u.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([255] * 4))
        scr = read_scribbles(path)
        assert not np.any(scr.data > 0)

    def test_illegal_scribble_value(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 2\n255\n" + bytes([200, 255]))
        with pytest.raises(DataError, match="illegal scribble value"):
            read_scribbles(path, classes=21)

    def test_ground_truth_keeps_ignore(self, tmp_path):
        path = tmp_path / "gt.pgm"
        path.write_bytes(b"P5\n3 1\n255\n" + bytes([1, 255, 2]))
        gt = read_ground_truth(path, classes=2)
        np.testing.assert_array_equal(gt, [[1, 255, 2]])


class TestPfld:
    def test_golden_bytes(self, tmp_path):
        field = ProbField(np.array([[[0.25, 0.75]]]))
        path = tmp_path / "f.pfld"
        write_probfield(field, path)
        assert path.read_bytes() == GOLDEN_PFLD
        assert path.stat().st_size == 24

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        raw = rng.dirichlet(np.ones(4), size=(5, 7)).astype(np.float32).astype(np.float64)
        field = ProbField(raw)
        a = tmp_path / "a.pfld"
        b = tmp_path / "b.pfld"
        write_probfield(field, a)
        back = read_probfield(a)
        write_probfield(back, b)
        assert a.read_bytes() == b.read_bytes()
        np.testing.assert_array_equal(back.data, raw)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "h.pfld"
        path.write_bytes(GOLDEN_PFLD[:16])
        with pytest.raises(DataError, match="truncated"):
            read_probfield(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pfld"
        path.write_bytes(b"XFLD" + GOLDEN_PFLD[4:])
        with pytest.raises(DataError):
            read_probfield(path)

    def test_writers_deterministic(self, tmp_path):
        field = ProbField.uniform(3, 3, 5)
        a = tmp_path / "a.pfld"
        b = tmp_path / "b.pfld"
        write_probfield(field, a)
        write_probfield(field, b)
        assert a.read_bytes() == b.read_bytes()


SHAPES = dict(h=st.integers(1, 8), w=st.integers(1, 8), seed=st.integers(0, 2**16))


class TestRoundTripProperties:
    """Write, read and write again: the same bytes and the same values, over
    random shapes including 1x1 and 1xW."""

    @staticmethod
    def twice(write, read, value):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            write(value, a)
            back = read(a)
            write(back, b)
            assert a.read_bytes() == b.read_bytes()
            return back

    @settings(max_examples=40)
    @given(**SHAPES, k=st.integers(2, 21))
    @example(h=1, w=1, k=2, seed=0)
    @example(h=1, w=7, k=21, seed=1)
    def test_pfld(self, h, w, k, seed):
        raw = np.random.default_rng(seed).dirichlet(np.ones(k), size=(h, w))
        exact = raw.astype(np.float32).astype(np.float64)
        for data in (exact, raw):
            back = self.twice(write_probfield, read_probfield, ProbField(data))
            assert np.array_equal(back.data, exact)

    @settings(max_examples=40)
    @given(**SHAPES, k=st.integers(1, 21))
    @example(h=1, w=1, k=1, seed=0)
    @example(h=1, w=7, k=21, seed=1)
    def test_pgm(self, h, w, k, seed):
        labels = np.random.default_rng(seed).integers(0, k + 1, size=(h, w))
        read = lambda path: read_scribbles(path, classes=k).data
        assert np.array_equal(self.twice(write_labels, read, labels), labels)

    @settings(max_examples=40)
    @given(**SHAPES)
    @example(h=1, w=1, seed=0)
    @example(h=1, w=7, seed=1)
    def test_ppm(self, h, w, seed):
        image = Image(np.random.default_rng(seed).integers(0, 256, size=(h, w, 3)))
        assert np.array_equal(self.twice(write_image, read_image, image).data, image.data)


class TestVisualize:
    def test_one_hot_gives_exact_palette_colors(self):
        data = np.zeros((1, 3, 3))
        for c in range(3):
            data[0, c, c] = 1.0
        image = visualize(ProbField(data))
        for c in range(3):
            assert tuple(image.data[0, c]) == DEFAULT_PALETTE[c]

    def test_uniform_two_class_mix(self):
        field = ProbField.uniform(1, 1, 2)
        image = visualize(field, palette=[(255, 0, 0), (0, 0, 255)])
        assert tuple(image.data[0, 0]) == (128, 0, 128)  # 127.5 rounds up

    def test_hand_mixed_pair(self):
        field = ProbField(np.array([[[0.75, 0.25]]]))
        image = visualize(field, palette=[(255, 0, 0), (0, 0, 255)])
        # 0.75*255 = 191.25 -> 191;  0.25*255 = 63.75 -> 64
        assert tuple(image.data[0, 0]) == (191, 0, 64)

    def test_palette_length_mismatch(self):
        with pytest.raises(DataError):
            visualize(ProbField.uniform(1, 1, 3), palette=[(0, 0, 0)])


class TestMiou:
    def test_perfect_prediction(self):
        gt = np.array([[1, 2], [2, 1]])
        assert miou(gt, gt, classes=2) == 1.0

    def test_complete_disagreement(self):
        pred = np.array([[1, 1]])
        gt = np.array([[2, 2]])
        assert miou(pred, gt, classes=2) == 0.0

    def test_hand_counted_case(self):
        pred = np.array([[1, 1], [2, 2]])
        gt = np.array([[1, 2], [2, 2]])
        # class 1: 1/2; class 2: 2/3
        assert abs(miou(pred, gt, classes=2) - 7.0 / 12.0) < 1e-12

    def test_ignore_pixels_dropped(self):
        pred = np.array([[1, 2, 1]])
        gt = np.array([[1, 255, 2]])
        assert abs(miou(pred, gt, classes=2) - 0.5 * (0.5 + 0.0)) < 1e-12

    def test_absent_classes_excluded(self):
        pred = np.array([[1, 1]])
        gt = np.array([[1, 1]])
        assert miou(pred, gt, classes=21) == 1.0

    def test_counts_are_sized_by_the_largest_label_present(self):
        # counts of classes + 1 entries would take three 8 MB arrays here
        pred = np.array([[1, 2], [2, 1]])
        gt = np.array([[1, 2], [1, 1]])
        tracemalloc.start()
        try:
            value = miou(pred, gt, classes=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == miou(pred, gt, classes=2) == (2.0 / 3.0 + 0.5) / 2.0
        assert peak < 10**6
