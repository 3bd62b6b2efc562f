import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepnmf import (VARIANTS, DataFormatError, DatasetBundle, Partition,
                     load_bundle, load_factors, load_labels, load_matrix,
                     make_spec, save_bundle, save_factors, save_labels,
                     save_matrix)
from deepnmf.dataio import MAGIC, parse_sizes, read_flat_config
from deepnmf.models import FactorStack


class TestCsv:
    def test_small_example(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(path), [[1, 2], [3, 4]])

    def test_round_trip(self, tmp_path, rng):
        m = np.abs(rng.standard_normal((4, 7)))
        path = save_matrix(tmp_path / "m.csv", m)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataFormatError, match="line 2, column 2"):
            load_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_matrix(path)


class TestBin:
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(0, 1e12, allow_nan=False)))
    @settings(deadline=None, max_examples=30)
    def test_round_trip_bit_identical(self, m):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = save_matrix(Path(tmp) / "m.bin", m)
            out = load_matrix(path)
        np.testing.assert_array_equal(out, m)
        assert out.dtype == np.float64

    def test_on_disk_layout_is_column_major(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        blob = (save_matrix(tmp_path / "m.bin", m)).read_bytes()
        assert blob[:6] == MAGIC
        assert struct.unpack_from("<II", blob, 6) == (2, 2)
        vals = struct.unpack_from("<4d", blob, 14)
        assert vals == (1.0, 3.0, 2.0, 4.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_payload_is_column_major_bytes_of_either_layout(self, tmp_path,
                                                            rng, order):
        m = np.asarray(rng.uniform(0.0, 1.0, size=(5, 7)), order=order)
        blob = (save_matrix(tmp_path / "m.bin", m)).read_bytes()
        assert blob[14:] == m.astype("<f8").tobytes(order="F")

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = save_matrix(tmp_path / "m.bin", np.ones((3, 2)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError, match="expected 48 payload bytes.*found 40"):
            load_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOTFMT" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="bad magic"):
            load_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_matrix(tmp_path / "absent.bin")

    def test_negative_entry_rejected_when_nonneg_required(self, tmp_path):
        path = save_matrix(tmp_path / "m.bin", np.array([[1.0, -2.0]]))
        with pytest.raises(DataFormatError, match="row 0, column 1"):
            load_matrix(path)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrix_rejected(self, tmp_path, shape):
        path = save_matrix(tmp_path / "m.bin", np.zeros(shape))
        with pytest.raises(DataFormatError,
                           match=f"m.bin: header gives an empty "
                                 f"{shape[0]}x{shape[1]} matrix"):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = save_matrix(tmp_path / "m.bin", np.array([[1.0, np.inf]]))
        with pytest.raises(DataFormatError, match="non-finite"):
            load_matrix(path)


class TestLabelsAndBundles:
    def test_labels_round_trip(self, tmp_path):
        part = Partition(np.array([0, 0, 1, 2, 1]), 3)
        save_labels(tmp_path / "l.csv", part)
        out = load_labels(tmp_path / "l.csv")
        np.testing.assert_array_equal(out.labels, part.labels)

    def test_labels_keep_their_class_ids(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("7\n7\n2\n5\n2\n")
        part = load_labels(path)
        np.testing.assert_array_equal(part.labels, [0, 0, 1, 2, 1])
        np.testing.assert_array_equal(part.ids, [7, 2, 5])
        save_labels(tmp_path / "out.csv", part)
        assert (tmp_path / "out.csv").read_text() == path.read_text()

    def test_bundle_round_trip(self, tmp_path, rng):
        x = rng.uniform(0.0, 1.0, size=(6, 10))
        bundle = DatasetBundle(x=x, labels=Partition(np.arange(10) % 3, 3),
                               name="toy")
        save_bundle(tmp_path / "toy.bin", bundle)
        out = load_bundle(tmp_path / "toy.bin")
        np.testing.assert_array_equal(out.x, x)
        np.testing.assert_array_equal(out.labels.labels, bundle.labels.labels)

    def test_bundle_without_labels(self, tmp_path, rng):
        x = rng.uniform(0.0, 1.0, size=(4, 6))
        save_bundle(tmp_path / "d.bin", DatasetBundle(x=x, labels=None, name="d"))
        assert load_bundle(tmp_path / "d.bin").labels is None

    def test_non_finite_bundle_rejected(self, rng):
        x = rng.uniform(0.0, 1.0, size=(4, 6))
        x[1, 2] = np.nan
        from deepnmf import InvalidInputError

        with pytest.raises(InvalidInputError, match="finite"):
            DatasetBundle(x=x, labels=None, name="d")

    @pytest.mark.parametrize("x, match", [
        (np.ones(5), "2-dimensional"), (np.ones((0, 3)), "nonempty"),
        (-np.ones((2, 3)), "nonnegative")])
    def test_bundle_matrix_checked_like_any_data_matrix(self, x, match):
        from deepnmf import InvalidInputError

        with pytest.raises(InvalidInputError, match=f"bundle matrix.*{match}"):
            DatasetBundle(x=x, labels=None, name="a")

    def test_label_count_must_match(self, rng):
        x = rng.uniform(0.0, 1.0, size=(4, 6))
        from deepnmf import InvalidInputError

        with pytest.raises(InvalidInputError):
            DatasetBundle(x=x, labels=Partition(np.zeros(5, dtype=int), 1), name="d")


class TestFactorDirs:
    def test_round_trip(self, tmp_path, rng):
        spec = make_spec("sdnmf_rl1", (4, 2), mu=0.3, lam=0.2)
        dims = (6, 4, 2)
        ws = [rng.uniform(0.0, 1.0, size=(a, b)) for a, b in zip(dims, dims[1:])]
        hs = [rng.uniform(0.0, 1.0, size=(k, 9)) for k in (4, 2)]
        stack = FactorStack(ws, hs)
        save_factors(tmp_path / "run", spec, stack, extra={"note": "x"})
        spec2, stack2, meta = load_factors(tmp_path / "run")
        assert spec2 == spec
        assert meta["note"] == "x"
        for a, b in zip(stack.w + stack.h, stack2.w + stack2.h):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("sizes", [(3,), (4, 3, 2)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_spec_round_trips(self, tmp_path, rng, variant,
                                            sizes):
        spec = make_spec(variant, sizes)
        dims = (6,) + sizes
        stack = FactorStack(
            [rng.uniform(0.0, 1.0, size=(a, b)) for a, b in zip(dims, dims[1:])],
            [rng.uniform(0.0, 1.0, size=(k, 5)) for k in sizes])
        save_factors(tmp_path / "run", spec, stack)
        assert load_factors(tmp_path / "run")[0] == spec

    def test_extra_key_may_not_replace_a_model_entry(self, tmp_path, rng):
        from deepnmf import InvalidInputError

        stack = FactorStack([rng.uniform(0.1, 1.0, size=(5, 3))],
                            [rng.uniform(0.1, 1.0, size=(3, 8))])
        with pytest.raises(InvalidInputError, match="'variant'"):
            save_factors(tmp_path / "run", make_spec("dnmf", (3,)), stack,
                         extra={"variant": "sdnmf_l"})

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "meta.cfg"
        path.write_text("mu = 0.1\nvariant = dnmf\nmu = 0.2\n")
        with pytest.raises(DataFormatError, match="mu is given on line 1 and "
                                                  "again on line 3"):
            read_flat_config(path)

    def test_layer_sizes_must_be_positive(self):
        assert parse_sizes("6, 3") == (6, 3)
        for raw in ("0,2", "4,-1", "4,x"):
            with pytest.raises(ValueError):
                parse_sizes(raw)
        with pytest.raises(ValueError, match="positive integer, got 0"):
            parse_sizes("0,2")

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "run").mkdir()
        with pytest.raises(DataFormatError, match="meta.cfg"):
            load_factors(tmp_path / "run")
