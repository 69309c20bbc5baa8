import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hgib.data import (
    CsvInputs,
    Dataset,
    SynthConfig,
    fuse_and_build,
    generate_synthetic,
    load_csv,
    normalize,
)
from hgib.errors import DataError


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a,b\np1,1,2\np2,3,4\np3,5,6\n")
        f2 = write(tmp_path / "m2.csv", "id,c\np1,0.5\np2,0.1\np3,0.9\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,NC\np2,AD\np3,NC\n")
        ds = load_csv([f1, f2], labels)
        assert ds.n == 3
        assert len(ds.modalities) == 2
        assert ds.modalities[0].shape == (3, 2)
        assert ds.class_names == ["AD", "NC"]
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_integer_labels(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np2,2\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\np2,1\n")
        ds = load_csv([f1], labels)
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_mismatched_ids(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np2,2\n")
        f2 = write(tmp_path / "m2.csv", "id,a\np1,1\npX,2\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\np2,1\n")
        with pytest.raises(DataError, match="pX"):
            load_csv([f1, f2], labels)

    def test_missing_label(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np2,2\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\n")
        with pytest.raises(DataError, match="p2"):
            load_csv([f1], labels)

    def test_duplicate_id(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np1,2\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv([f1], labels)

    def test_unparsable_value(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,oops\n\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\n")
        with pytest.raises(DataError, match="unparsable"):
            load_csv([f1], labels)

    @pytest.mark.parametrize("header", ["id,a", 'id,"a,b"'])
    def test_quoted_value_with_a_comma_unparsable(self, tmp_path, header):
        f1 = write(tmp_path / "m1.csv", f'{header}\np1,"1,5"\n')
        labels = write(tmp_path / "y.csv", "id,label\np1,0\n")
        with pytest.raises(DataError, match="unparsable"):
            load_csv([f1], labels)

    @pytest.mark.parametrize("row", ["p2", "p2,", "p2, "])
    def test_row_without_label(self, tmp_path, row):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np2,2\n")
        labels = write(tmp_path / "y.csv", f"id,label\np1,NC\n{row}\n")
        with pytest.raises(DataError, match=r"y\.csv: no label for id p2"):
            load_csv([f1], labels)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,a,b\np1,1,2\np2,3\np3,5,6\n", 3),        # a value short
            ("id,a,b\np1,1,2\n\np2,3,4,5\n", 4),         # a value over, after a blank line
            ("id,a\np1,1,2\np2,3,4\n", 2),                # every row one over the header
            ("id,a\r\np1,1\r\np2\r\n", 3),              # only an id
            ('id,a\n"p,1",1\n"p2",3,4\n', 3),             # quoted ids
        ],
    )
    def test_row_width_differs_from_header(self, tmp_path, text, line):
        f1 = write(tmp_path / "m1.csv", text)
        labels = write(tmp_path / "y.csv", "id,label\np1,0\np2,1\np3,0\n")
        with pytest.raises(DataError, match=rf"m1\.csv: line {line} has \d fields, the header \d"):
            load_csv([f1], labels)

    def test_duplicate_id_named_in_file_order(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np2,2\np2,3\np1,4\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\np2,1\n")
        with pytest.raises(DataError, match="duplicate id p1"):
            load_csv([f1], labels)

    def test_header_only_id(self, tmp_path):
        f1 = write(tmp_path / "m1.csv", "id\np1\np2\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\np2,1\n")
        with pytest.raises(DataError, match="at least one feature column"):
            load_csv([f1], labels)

    @pytest.mark.parametrize("marked", ["features", "labels", "both"])
    def test_utf8_byte_order_mark(self, tmp_path, marked):
        # an Excel "CSV UTF-8" export begins with EF BB BF
        bom = "\ufeff".encode()
        texts = {"features": b"id,a\r\np1,1\r\np2,2\r\n", "labels": b"id,label\r\np1,NC\r\np2,AD\r\n"}
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_bytes(bom + text if marked in (name, "both") else text)
        ds = load_csv([str(paths["features"])], str(paths["labels"]))
        np.testing.assert_array_equal(ds.modalities[0], [[1.0], [2.0]])
        assert ds.class_names == ["AD", "NC"]
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_sha256_of_the_bytes_read(self, tmp_path):
        # each file's bytes, byte-order mark included, after its length: a
        # line moved from one file to the next gives another digest
        f1 = tmp_path / "m1.csv"
        f1.write_bytes("\ufeffid,a\np1,1\n".encode())
        labels = write(tmp_path / "y.csv", "id,label\np1,NC\n")
        inputs = CsvInputs([str(f1)], labels)
        h = hashlib.sha256()
        for path in (f1, tmp_path / "y.csv"):
            content = path.read_bytes()
            h.update(len(content).to_bytes(8, "little") + content)
        assert inputs.sha256 == h.hexdigest()
        assert inputs.dataset().inputs_sha256 == inputs.sha256
        assert normalize(inputs.dataset()).inputs_sha256 == inputs.sha256
        moved = CsvInputs([write(tmp_path / "m2.csv", "\ufeffid,a\n")], write(tmp_path / "z.csv", "p1,1\nid,label\np1,NC\n"))
        assert moved.sha256 != inputs.sha256

    def test_files_read_once(self, tmp_path, monkeypatch):
        f1 = write(tmp_path / "m1.csv", "id,a\np1,1\np2,2\n")
        labels = write(tmp_path / "y.csv", "id,label\np1,0\np2,1\n")
        reads = []
        read_bytes = type(tmp_path).read_bytes
        monkeypatch.setattr(type(tmp_path), "read_bytes", lambda path: reads.append(str(path)) or read_bytes(path))
        inputs = CsvInputs([f1], labels)
        assert reads == []
        inputs.sha256
        inputs.dataset()
        assert reads == [f1, labels]

    def test_values_bit_identical_to_the_csv_module(self, tmp_path):
        # quoted ids (a comma, a quote, a line break inside), quoted values,
        # blank lines, CRLF and CR line ends, repr floats over the whole range
        rng = np.random.default_rng(8)
        values = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-310, 308, size=(40, 3))
        values[0] = [-0.0, 5e-324, 0.1]
        ids = [["v%d", "p,%d", 'q"%d', "line\n%d"][i % 4] % i for i in range(40)]
        plain = tmp_path / "plain.csv"
        quoted = tmp_path / "quoted.csv"
        for path, quoting in ((plain, csv.QUOTE_MINIMAL), (quoted, csv.QUOTE_ALL)):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh, quoting=quoting)
                w.writerow(["id", "a", "b", "c"])
                for i, (vid, row) in enumerate(zip(ids, values)):
                    w.writerow([vid if path is quoted else f"v{i}"] + [repr(float(v)) for v in row])
                    if i % 9 == 0:
                        fh.write("\r\n" if i % 2 else "\n")
        cr = tmp_path / "cr.csv"
        cr.write_text(plain.read_text().replace("\r\n", "\r"), newline="")
        for path in (plain, quoted, cr):
            with open(path, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r]
            labels = tmp_path / "y.csv"
            with open(labels, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["id", "label"])
                w.writerows([r[0], "NC"] for r in rows[1:])
            ds = load_csv([str(path)], str(labels))
            expected = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
            assert ds.modalities[0].tobytes() == expected.tobytes(), path.name
            assert ds.n == len(rows) - 1 == 40


class TestNormalize:
    def _wrap(self, column):
        return Dataset(
            modalities=[np.array(column, dtype=float).reshape(-1, 1)],
            labels=np.zeros(len(column), dtype=int) % 1,
            class_names=["only"],
        )

    def test_minmax(self):
        out = normalize(self._wrap([0.0, 5.0, 10.0]))
        np.testing.assert_allclose(out.modalities[0].ravel(), [0.0, 0.5, 1.0])

    def test_constant_column(self):
        out = normalize(self._wrap([7.0, 7.0]))
        np.testing.assert_allclose(out.modalities[0].ravel(), [0.5, 0.5])

    def test_idempotent(self):
        ds = self._wrap([0.0, 0.25, 1.0])
        once = normalize(ds)
        twice = normalize(once)
        np.testing.assert_allclose(
            twice.modalities[0], once.modalities[0], atol=1e-15
        )

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20, unique=True))
    def test_order_preserving_and_in_range(self, values):
        out = normalize(self._wrap(values)).modalities[0].ravel()
        assert out.min() >= 0.0 and out.max() <= 1.0
        order = np.argsort(values)
        assert (np.diff(out[order]) >= 0).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            normalize(self._wrap([1.0, np.inf]))


class TestFuseAndBuild:
    def test_single_modality(self):
        rng = np.random.default_rng(0)
        ds = normalize(
            Dataset(
                modalities=[rng.random((10, 3))],
                labels=rng.integers(0, 2, 10),
                class_names=["a", "b"],
            )
        )
        fused, g = fuse_and_build(ds, k=3)
        np.testing.assert_array_equal(fused.data, ds.modalities[0])
        assert g.num_hyperedges == 10

    def test_edge_count_n_times_m(self):
        ds = generate_synthetic(SynthConfig(n=40, dims=(4, 4, 3), seed=1))
        _, g = fuse_and_build(ds, k=5)
        assert g.num_hyperedges == 120

    def test_duplicated_modality_doubles_degrees(self):
        rng = np.random.default_rng(2)
        X = rng.random((8, 3))
        ds = Dataset(
            modalities=[X, X.copy()],
            labels=rng.integers(0, 2, 8),
            class_names=["a", "b"],
        )
        fused, g = fuse_and_build(normalize(ds), k=2)
        single, gs = fuse_and_build(
            normalize(
                Dataset(
                    modalities=[X.copy()],
                    labels=ds.labels,
                    class_names=["a", "b"],
                )
            ),
            k=2,
        )
        np.testing.assert_array_equal(g.vertex_degrees, 2 * gs.vertex_degrees)
        assert fused.shape == (8, 6)

    def test_deterministic_pipeline(self):
        ds = generate_synthetic(SynthConfig(n=30, dims=(4,), seed=3))
        a_fused, a_g = fuse_and_build(ds, k=4)
        b_fused, b_g = fuse_and_build(ds, k=4)
        np.testing.assert_array_equal(a_fused.data, b_fused.data)
        np.testing.assert_array_equal(a_g.incidence, b_g.incidence)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SynthConfig(seed=5))
        b = generate_synthetic(SynthConfig(seed=5))
        np.testing.assert_array_equal(a.labels, b.labels)
        for ma, mb in zip(a.modalities, b.modalities):
            np.testing.assert_array_equal(ma, mb)

    def test_shapes_and_defaults(self):
        ds = generate_synthetic(SynthConfig(seed=0))
        assert ds.n == 240
        assert [m.shape[1] for m in ds.modalities] == [16, 16, 8]
        assert ds.class_names == ["NC", "MCI", "AD"]
        for m in normalize(ds).modalities:
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_label_noise_count(self):
        clean = generate_synthetic(SynthConfig(seed=4, label_noise=0.0))
        noisy = generate_synthetic(SynthConfig(seed=4, label_noise=0.2))
        flipped = (clean.labels != noisy.labels).sum()
        assert flipped <= round(0.2 * 240)
        assert flipped > 0

    def test_high_separation_purity(self):
        ds = generate_synthetic(
            SynthConfig(n=90, dims=(8,), separation=4.0, label_noise=0.0, seed=6)
        )
        _, g = fuse_and_build(ds, k=5)
        same = 0
        total = 0
        for e in range(g.num_hyperedges):
            members = np.flatnonzero(g.incidence[:, e])
            center_class = ds.labels[e]
            same += (ds.labels[members] == center_class).sum()
            total += members.size
        assert same / total >= 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n=4, num_classes=3)
        with pytest.raises(ValueError):
            SynthConfig(label_noise=1.5)
        with pytest.raises(ValueError):
            SynthConfig(separation=-1.0)
