import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cloudmae.config import DataSpec, SHAPE_FAMILIES
from cloudmae.data import (_PLY_SCALAR, DatasetSplit, SyntheticSpec, _sample_cube, augment,
                           build_dataset, gen_synthetic, load_points,
                           normalize_cloud, save_ply, save_xyz, scale_translate)
from cloudmae.geometry import PointCloud


class TestSynthetic:
    def test_clean_sphere_has_unit_radius(self):
        cloud = gen_synthetic(SyntheticSpec("sphere", 512, noise_sigma=0.0, seed=3))
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.all(np.abs(radii - 1.0) < 1e-9)

    def test_fixed_seed_reproduces_bits(self):
        a = gen_synthetic(SyntheticSpec("cone", 256, noise_sigma=0.05, seed=7))
        b = gen_synthetic(SyntheticSpec("cone", 256, noise_sigma=0.05, seed=7))
        assert a.points.tobytes() == b.points.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), p=st.integers(1, 300))
    def test_cube_matches_per_point_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        half = rng.uniform(0.4, 1.0, size=3)
        areas = np.array([half[1] * half[2], half[1] * half[2],
                          half[0] * half[2], half[0] * half[2],
                          half[0] * half[1], half[0] * half[1]])
        face = rng.choice(6, size=p, p=areas / areas.sum())
        u = rng.uniform(-1.0, 1.0, size=(p, 2))
        want = np.empty((p, 3))
        for i in range(p):
            axis = face[i] // 2
            others = [j for j in range(3) if j != axis]
            want[i, axis] = (1.0 if face[i] % 2 == 0 else -1.0) * half[axis]
            want[i, others[0]] = u[i, 0] * half[others[0]]
            want[i, others[1]] = u[i, 1] * half[others[1]]
        got = _sample_cube(np.random.default_rng(seed), p)
        assert got.tobytes() == want.tobytes()

    def test_clean_plane_has_rank_two(self):
        cloud = gen_synthetic(SyntheticSpec("plane", 256, noise_sigma=0.0, seed=5))
        centered = cloud.points - cloud.points.mean(axis=0)
        assert np.linalg.matrix_rank(centered, tol=1e-9) == 2

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec("moebius", 128)

    @pytest.mark.parametrize("family", SHAPE_FAMILIES)
    def test_every_family_generates(self, family):
        cloud = gen_synthetic(SyntheticSpec(family, 200, noise_sigma=0.01, seed=1))
        assert cloud.points.shape == (200, 3)
        assert cloud.label == SHAPE_FAMILIES.index(family)
        assert np.max(np.linalg.norm(cloud.points, axis=1)) == pytest.approx(1.0)


class TestNormalize:
    def test_idempotent(self):
        cloud = PointCloud(points=np.random.default_rng(0).normal(size=(64, 3)))
        once = normalize_cloud(cloud)
        twice = normalize_cloud(once)
        assert np.allclose(once.points, twice.points, atol=1e-12)

    def test_max_radius_one_and_centered(self):
        cloud = PointCloud(points=np.random.default_rng(1).normal(size=(64, 3)) + 5.0)
        out = normalize_cloud(cloud)
        assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
        assert np.max(np.linalg.norm(out.points, axis=1)) == pytest.approx(1.0)

    def test_translation_invariance(self):
        pts = np.random.default_rng(2).normal(size=(32, 3))
        a = normalize_cloud(PointCloud(points=pts))
        b = normalize_cloud(PointCloud(points=pts + np.array([3.0, -1.0, 0.5])))
        assert np.allclose(a.points, b.points, atol=1e-12)


class TestAugment:
    def test_deterministic(self):
        cloud = PointCloud(points=np.random.default_rng(3).normal(size=(16, 3)))
        assert np.array_equal(augment(cloud, seed=9).points,
                              augment(cloud, seed=9).points)

    def test_identity_transform(self):
        cloud = PointCloud(points=np.random.default_rng(4).normal(size=(16, 3)))
        out = scale_translate(cloud, 1.0, np.zeros(3))
        assert np.array_equal(out.points, cloud.points)

    def test_scaling_preserves_distance_ratios(self):
        pts = np.random.default_rng(5).normal(size=(10, 3))
        out = scale_translate(PointCloud(points=pts), 1.17, np.array([0.1, 0, -0.1]))
        d0 = np.linalg.norm(pts[0] - pts[1])
        d1 = np.linalg.norm(pts[2] - pts[3])
        e0 = np.linalg.norm(out.points[0] - out.points[1])
        e1 = np.linalg.norm(out.points[2] - out.points[3])
        assert e0 / e1 == pytest.approx(d0 / d1)

    def test_label_carried(self):
        cloud = PointCloud(points=np.zeros((4, 3)) + 1.0, label=3)
        assert augment(cloud, seed=0).label == 3


class TestDataset:
    def test_split_seeds_disjoint(self):
        spec = DataSpec(train_per_class=3, val_per_class=2, test_per_class=2)
        ds = build_dataset(spec, points=64, master_seed=5)
        all_seeds = ds.seeds["train"] + ds.seeds["val"] + ds.seeds["test"]
        assert len(set(all_seeds)) == len(all_seeds)

    def test_label_sets_identical_across_splits(self):
        spec = DataSpec(train_per_class=2, val_per_class=2, test_per_class=2)
        ds = build_dataset(spec, points=64, master_seed=6)
        labels = lambda items: sorted({c.label for c in items})
        assert labels(ds.train) == labels(ds.val) == labels(ds.test)
        assert ds.n_classes == len(SHAPE_FAMILIES)


class TestXYZ:
    def test_roundtrip_exact(self, tmp_path):
        pts = np.round(np.random.default_rng(7).normal(size=(20, 3)), 6)
        path = tmp_path / "cloud.xyz"
        save_xyz(path, pts)
        loaded = load_points(path)
        assert np.array_equal(loaded.points, pts)

    def test_origin_row(self, tmp_path):
        path = tmp_path / "one.xyz"
        path.write_text("0 0 0\n")
        assert np.array_equal(load_points(path).points, np.zeros((1, 3)))

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ValueError, match=":2"):
            load_points(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\nx y z\n")
        with pytest.raises(ValueError, match=":2"):
            load_points(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.xyz"
        path.write_text("1 2 3 255 0 0\n")
        assert np.array_equal(load_points(path).points, [[1.0, 2.0, 3.0]])

    def test_bytes_match_per_row_format(self, tmp_path):
        extremes = [[-0.0, 5e-324, sys.float_info.max], [-sys.float_info.max, 1e-300, 0.1]]
        pts = np.vstack([extremes, np.random.default_rng(8).normal(size=(30, 3))])
        path = tmp_path / "cloud.xyz"
        save_xyz(path, pts)
        oracle = "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in pts)
        assert path.read_bytes() == oracle.encode("utf-8")
        save_xyz(path, np.zeros((0, 3)))
        assert path.read_bytes() == b""


class TestPLY:
    def test_save_load_roundtrip(self, tmp_path):
        pts = np.random.default_rng(8).normal(size=(50, 3))
        path = tmp_path / "cloud.ply"
        save_ply(path, [pts], colors=[(255, 0, 0)])
        loaded = load_points(path)
        assert np.array_equal(loaded.points, pts)

    def test_vertex_count_header_contract(self, tmp_path):
        pts = np.random.default_rng(9).normal(size=(1024, 3))
        path = tmp_path / "big.ply"
        save_ply(path, [pts])
        assert load_points(path).p == 1024

    def test_multi_group_counts_sum(self, tmp_path):
        a = np.zeros((10, 3))
        b = np.ones((7, 3))
        path = tmp_path / "triad.ply"
        save_ply(path, [a, b], colors=[(0, 0, 255), (255, 0, 0)])
        assert load_points(path).p == 17

    def test_binary_little_endian(self, tmp_path):
        pts = np.array([[1.5, -2.25, 3.0], [0.0, 0.5, -1.0]], dtype=np.float32)
        path = tmp_path / "bin.ply"
        header = (b"ply\nformat binary_little_endian 1.0\n"
                  b"element vertex 2\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"end_header\n")
        path.write_bytes(header + pts.tobytes())
        loaded = load_points(path)
        assert np.allclose(loaded.points, pts.astype(np.float64))

    def test_binary_with_color_properties(self, tmp_path):
        import struct
        path = tmp_path / "rgb.ply"
        header = (b"ply\nformat binary_little_endian 1.0\n"
                  b"element vertex 1\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
                  b"end_header\n")
        payload = struct.pack("<fffBBB", 1.0, 2.0, 3.0, 10, 20, 30)
        path.write_bytes(header + payload)
        assert np.allclose(load_points(path).points, [[1.0, 2.0, 3.0]])

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex\nend_header\n")
        with pytest.raises(ValueError, match="malformed element"):
            load_points(path)

    @pytest.mark.parametrize("line, message", [
        ("element vertex -1", "malformed element line"),
        ("element vertex many", "malformed element line"),
        ("property", "unsupported property type"),
    ], ids=["negative_count", "word_count", "bare_property"])
    def test_bad_header_line_names_line(self, tmp_path, line, message):
        path = tmp_path / "bad.ply"
        path.write_text(f"ply\nformat ascii 1.0\nelement vertex 1\n{line}\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "end_header\n1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: {message}")):
            load_points(path)

    def test_missing_coordinate_rejected(self, tmp_path):
        path = tmp_path / "noz.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                        "property float x\nproperty float y\nend_header\n1 2\n")
        with pytest.raises(ValueError, match="missing property 'z'"):
            load_points(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "short.ply"
        header = (b"ply\nformat binary_little_endian 1.0\n"
                  b"element vertex 4\n"
                  b"property float x\nproperty float y\nproperty float z\n"
                  b"end_header\n")
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(ValueError, match="truncated"):
            load_points(path)

    def test_group_color_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="colors"):
            save_ply(tmp_path / "x.ply", [np.zeros((2, 3))], colors=[(1, 2, 3), (4, 5, 6)])


def _ply_values(kind):
    """Hypothesis values exactly representable in one PLY scalar type."""
    code = _PLY_SCALAR[kind]
    if code == "f":
        return st.floats(width=32, allow_nan=False, allow_infinity=False)
    if code == "d":
        return st.floats(allow_nan=False, allow_infinity=False)
    bits = 8 * struct.calcsize(code)
    if code.islower():
        return st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return st.integers(0, (1 << bits) - 1)


@st.composite
def _binary_ply(draw):
    """(file bytes, expected points) with typed coordinates among extra columns."""
    kinds = sorted(_PLY_SCALAR)
    extras = draw(st.lists(st.sampled_from(kinds), max_size=4))
    props = [(f"extra{i}", kind) for i, kind in enumerate(extras)]
    props += [(c, draw(st.sampled_from(kinds))) for c in "xyz"]
    props = draw(st.permutations(props))     # colour-like columns may come before x
    if draw(st.booleans()):
        props.insert(0, ("red", "uchar"))
    count = draw(st.integers(1, 12))
    rows = [[draw(_ply_values(kind)) for _, kind in props] for _ in range(count)]
    fmt = "<" + "".join(_PLY_SCALAR[kind] for _, kind in props)
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {count}\n"
              + "".join(f"property {kind} {name}\n" for name, kind in props)
              + "end_header\n")
    body = b"".join(struct.pack(fmt, *row) for row in rows)
    cols = [[name for name, _ in props].index(c) for c in "xyz"]
    points = np.array([[float(row[c]) for c in cols] for row in rows])
    return header.encode("ascii") + body, points


class TestBinaryPLYRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(case=_binary_ply(), trailing=st.binary(max_size=16))
    def test_struct_packed_file_reads_back_exactly(self, tmp_path_factory, case, trailing):
        blob, points = case
        path = tmp_path_factory.mktemp("ply") / "cloud.ply"
        path.write_bytes(blob + trailing)     # bytes after the vertices are ignored
        loaded = load_points(path).points
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == points.tobytes()

    def test_every_scalar_type_as_coordinate(self, tmp_path):
        for kind, code in _PLY_SCALAR.items():
            header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                      "property uchar red\n"
                      + "".join(f"property {kind} {c}\n" for c in "xyz")
                      + "end_header\n").encode("ascii")
            body = struct.pack("<B" + 3 * code, 7, 1, 2, 3) + struct.pack(
                "<B" + 3 * code, 9, 4, 5, 6)
            path = tmp_path / f"{kind}.ply"
            path.write_bytes(header + body)
            assert np.array_equal(load_points(path).points, [[1, 2, 3], [4, 5, 6]]), kind


class TestSavePLYFormat:
    @staticmethod
    def oracle(groups, colors):
        total = sum(len(g) for g in groups)
        lines = ["ply", "format ascii 1.0", f"element vertex {total}",
                 "property double x", "property double y", "property double z",
                 "property uchar red", "property uchar green", "property uchar blue",
                 "end_header"]
        for g, (r, gr, b) in zip(groups, colors):
            lines += [f"{x:.17g} {y:.17g} {z:.17g} {r} {gr} {b}" for x, y, z in g]
        return ("\n".join(lines) + "\n").encode("ascii")

    def test_bytes_equal_per_row_oracle_at_float_extremes(self, tmp_path):
        big = sys.float_info.max
        a = np.array([[-0.0, 0.0, 5e-324], [big, -big, 0.1], [1.0, -2.5, 1e300]])
        b = np.random.default_rng(10).normal(size=(20, 3))
        colors = [(70, 130, 220), (220, 80, 60)]
        path = tmp_path / "triad.ply"
        save_ply(path, [a, b], colors=colors)
        assert path.read_bytes() == self.oracle([a, b], colors)
        assert load_points(path).points.tobytes() == np.concatenate([a, b]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(groups=st.lists(st.lists(
        st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
        max_size=6), min_size=1, max_size=3))
    def test_bytes_equal_per_row_oracle(self, tmp_path_factory, groups):
        arrays = [np.array(g, dtype=np.float64).reshape(-1, 3) for g in groups]
        colors = [(i, 2 * i, 255 - i) for i in range(len(arrays))]
        path = tmp_path_factory.mktemp("ply") / "out.ply"
        save_ply(path, arrays, colors=colors)
        assert path.read_bytes() == self.oracle(arrays, colors)


_EXTREMES = [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, -0.0, 0.0,
             sys.float_info.min]
_CLOUDS = hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from(_EXTREMES))


def _inject_blanks(lines, at):
    """Blank and whitespace-only lines inserted before the given row indices."""
    out = list(lines)
    for k, i in enumerate(sorted(at, reverse=True)):
        out.insert(min(i, len(out)), ("", "  ", "\t")[k % 3])
    return out


class TestTextRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(pts=_CLOUDS, blanks=st.lists(st.integers(0, 13), max_size=4),
           extra=st.lists(st.sampled_from(["255", "-1.5", "nan", "abc"]), max_size=3),
           crlf=st.booleans())
    def test_xyz_bit_exact(self, tmp_path_factory, pts, blanks, extra, crlf):
        path = tmp_path_factory.mktemp("xyz") / "cloud.xyz"
        save_xyz(path, pts)
        rows = [" ".join([row] + extra) for row in path.read_text().splitlines()]
        path.write_text(("\r\n" if crlf else "\n").join(_inject_blanks(rows, blanks)),
                        newline="")
        assert load_points(path).points.tobytes() == pts.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(pts=_CLOUDS, cut=st.integers(0, 12), blanks=st.lists(st.integers(0, 13), max_size=4))
    def test_ascii_ply_bit_exact(self, tmp_path_factory, pts, cut, blanks):
        path = tmp_path_factory.mktemp("ply") / "cloud.ply"
        save_ply(path, [pts[:cut], pts[cut:]], colors=[(1, 2, 3), (4, 5, 6)])
        header, body = path.read_text().split("end_header\n")
        body = _inject_blanks(body.splitlines(), blanks)
        path.write_text(header + "end_header\n" + "\n".join(body) + "\n")
        assert load_points(path).points.tobytes() == pts.tobytes()


def _corrupt_ply(path, lineno, row):
    """A two-group ascii PLY of 5 vertices (body lines 11-15) with one line replaced."""
    save_ply(path, [np.zeros((2, 3)), np.ones((3, 3))], colors=[(9, 9, 9), (7, 7, 7)])
    lines = path.read_text().splitlines()
    lines[lineno - 1] = row
    path.write_text("\n".join(lines) + "\n")


class TestAsciiPLYRows:
    def test_ascii_ply_non_coordinate_column_is_not_parsed(self, tmp_path):
        path = tmp_path / "odd.ply"
        _corrupt_ply(path, 13, "1 1 1 red 7 7")
        assert np.array_equal(load_points(path).points[2], [1.0, 1.0, 1.0])

    def test_ascii_ply_coordinates_found_by_name(self, tmp_path):
        path = tmp_path / "zxy.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty uchar red\n"
                        "property double z\nproperty double x\nproperty double y\n"
                        "end_header\n7 3 1 2\n8 6 4 5\n")
        assert np.array_equal(load_points(path).points, [[1, 2, 3], [4, 5, 6]])

    def test_ascii_ply_rows_after_the_vertices_are_not_read(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                        "property float y\nproperty float z\nelement face 1\n"
                        "property list uchar int vertex_indices\nend_header\n"
                        "0 0 0\n1 0 0\n\n0 1 0\n3 0 1 2\n")
        assert np.array_equal(load_points(path).points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


class TestTextErrors:
    """Every rejected text file names path:line; nothing escapes as a bare error."""

    @staticmethod
    def names(path, line):
        return "^" + re.escape(f"{path}:{line}: ")

    def test_ascii_ply_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        _corrupt_ply(path, 12, "0 abc 0 9 9 9")
        with pytest.raises(ValueError, match=self.names(path, 12) + "non-numeric"):
            load_points(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_text_names_line(self, tmp_path, value):
        xyz = tmp_path / "bad.xyz"
        xyz.write_text(f"1 2 3\n\n4 {value} 6\n")
        with pytest.raises(ValueError, match=self.names(xyz, 3) + "non-finite"):
            load_points(xyz)
        ply = tmp_path / "bad.ply"
        _corrupt_ply(ply, 14, f"1 1 {value} 7 7 7")
        with pytest.raises(ValueError, match=self.names(ply, 14) + "non-finite"):
            load_points(ply)

    def test_non_finite_binary_names_file(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                         b"property double x\nproperty double y\nproperty double z\n"
                         b"end_header\n" + struct.pack("<6d", 1, 2, 3, 4, float("nan"), 6))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*non-finite"):
            load_points(path)

    @pytest.mark.parametrize("row, message", [
        ("1 1 1 7 7", "expected 6 values, got 5"),
        ("1 1 1 7 7 7 7", "expected 6 values, got 7"),
    ], ids=["short", "long"])
    def test_ascii_ply_row_width_names_line(self, tmp_path, row, message):
        path = tmp_path / "bad.ply"
        _corrupt_ply(path, 15, row)
        with pytest.raises(ValueError, match=self.names(path, 15) + message):
            load_points(path)

    def test_ascii_ply_missing_rows_names_end(self, tmp_path):
        path = tmp_path / "short.ply"
        _corrupt_ply(path, 15, "")      # named at the line after the last
        with pytest.raises(ValueError, match=self.names(path, 16) + "expected 5 point rows"):
            load_points(path)

    @pytest.mark.parametrize("text, line", [("", 1), ("\n  \n", 3)], ids=["empty", "blank"])
    def test_xyz_without_rows_names_end(self, tmp_path, text, line):
        path = tmp_path / "empty.xyz"
        path.write_text(text)
        with pytest.raises(ValueError, match=self.names(path, line) + "expected at least 1"):
            load_points(path)

    def test_xyz_non_numeric_after_blank_lines(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n\n\nx 2 3 4\n")
        with pytest.raises(ValueError, match=self.names(path, 4) + "non-numeric"):
            load_points(path)

    @pytest.mark.parametrize("suffix, blob, line", [
        ("xyz", b"1 2 3\n\n4 5 \xff\n", 3),
        ("ply", b"ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                b"property float y\nproperty float z\nend_header\n1 2 \xc3\xa9\n", 8),
    ], ids=["xyz", "ply"])
    def test_non_ascii_coordinate_names_line(self, tmp_path, suffix, blob, line):
        path = tmp_path / f"bad.{suffix}"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=self.names(path, line) + "non-numeric"):
            load_points(path)

    def test_bytes_outside_the_coordinates_are_not_parsed(self, tmp_path):
        path = tmp_path / "odd.xyz"
        path.write_bytes(b"1 2 3 \xff caf\xc3\xa9\n")
        assert np.array_equal(load_points(path).points, [[1.0, 2.0, 3.0]])


def test_save_ply_rejects_bare_array(tmp_path):
    with pytest.raises(ValueError, match="list of point groups"):
        save_ply(tmp_path / "x.ply", np.zeros((5, 3)), colors=[(1, 2, 3)])
