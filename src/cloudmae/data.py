"""Synthetic shape sampling, normalization, augmentation, and point-cloud IO.

Six parametric families (sphere, cube, cylinder, torus, cone, plane) are
sampled uniformly over their surfaces with seeded parameter draws, optional
Gaussian jitter, and scaling into the unit sphere. File IO covers
whitespace-delimited XYZ text and ascii / binary-little-endian PLY.
"""

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .config import SHAPE_FAMILIES
from .geometry import PointCloud
from .seeding import derive_seed


@dataclass
class SyntheticSpec:
    family: str
    points: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.family not in SHAPE_FAMILIES:
            raise ValueError(f"unknown shape family {self.family!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.points < 1:
            raise ValueError("need at least one point")


def _sample_sphere(rng, p):
    radius = rng.uniform(0.6, 1.0)
    dirs = rng.normal(size=(p, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * radius


def _sample_cube(rng, p):
    half = rng.uniform(0.4, 1.0, size=3)
    areas = np.array([half[1] * half[2], half[1] * half[2],
                      half[0] * half[2], half[0] * half[2],
                      half[0] * half[1], half[0] * half[1]])
    face = rng.choice(6, size=p, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=(p, 2))
    pts = np.empty((p, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    others = np.array([[1, 2], [0, 2], [0, 1]])[axis]  # the face's in-plane axes
    pts[np.arange(p), axis] = sign * half[axis]
    pts[np.arange(p)[:, None], others] = u * half[others]
    return pts


def _sample_cylinder(rng, p):
    radius = rng.uniform(0.3, 0.8)
    height = rng.uniform(0.8, 2.0)
    side_area = 2.0 * np.pi * radius * height
    cap_area = np.pi * radius * radius
    probs = np.array([side_area, cap_area, cap_area])
    part = rng.choice(3, size=p, p=probs / probs.sum())
    theta = rng.uniform(0.0, 2.0 * np.pi, size=p)
    pts = np.empty((p, 3))
    side = part == 0
    pts[side, 0] = radius * np.cos(theta[side])
    pts[side, 1] = radius * np.sin(theta[side])
    pts[side, 2] = rng.uniform(-height / 2, height / 2, size=int(side.sum()))
    for cap, z in ((1, height / 2), (2, -height / 2)):
        m = part == cap
        r = radius * np.sqrt(rng.uniform(size=int(m.sum())))
        pts[m, 0] = r * np.cos(theta[m])
        pts[m, 1] = r * np.sin(theta[m])
        pts[m, 2] = z
    return pts


def _sample_torus(rng, p):
    major = rng.uniform(0.6, 0.9)
    minor = rng.uniform(0.15, 0.35)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=p)
    # tube angle needs rejection sampling: surface density scales with
    # (major + minor*cos(theta))
    theta = np.empty(p)
    filled = 0
    while filled < p:
        cand = rng.uniform(0.0, 2.0 * np.pi, size=2 * (p - filled))
        accept = rng.uniform(size=cand.size) <= (
            (major + minor * np.cos(cand)) / (major + minor))
        good = cand[accept][:p - filled]
        theta[filled:filled + good.size] = good
        filled += good.size
    ring = major + minor * np.cos(theta)
    return np.stack([ring * np.cos(phi), ring * np.sin(phi),
                     minor * np.sin(theta)], axis=1)


def _sample_cone(rng, p):
    radius = rng.uniform(0.4, 0.8)
    height = rng.uniform(0.8, 1.6)
    slant = np.sqrt(radius * radius + height * height)
    lateral_area = np.pi * radius * slant
    base_area = np.pi * radius * radius
    part = rng.choice(2, size=p, p=np.array([lateral_area, base_area])
                      / (lateral_area + base_area))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=p)
    pts = np.empty((p, 3))
    lat = part == 0
    t = np.sqrt(rng.uniform(size=int(lat.sum())))  # fraction from apex
    pts[lat, 0] = t * radius * np.cos(theta[lat])
    pts[lat, 1] = t * radius * np.sin(theta[lat])
    pts[lat, 2] = height / 2 - t * height
    base = ~lat
    r = radius * np.sqrt(rng.uniform(size=int(base.sum())))
    pts[base, 0] = r * np.cos(theta[base])
    pts[base, 1] = r * np.sin(theta[base])
    pts[base, 2] = -height / 2
    return pts


def _sample_plane(rng, p):
    half = rng.uniform(0.6, 1.0)
    pts = np.zeros((p, 3))
    pts[:, :2] = rng.uniform(-half, half, size=(p, 2))
    return pts


_SAMPLERS = {
    "sphere": _sample_sphere,
    "cube": _sample_cube,
    "cylinder": _sample_cylinder,
    "torus": _sample_torus,
    "cone": _sample_cone,
    "plane": _sample_plane,
}


def gen_synthetic(spec: SyntheticSpec):
    """Sample one shape instance; scaled so the farthest point sits at radius 1.

    Shapes are constructed centered at the origin, so only an isotropic scale
    is applied after the optional Gaussian jitter.
    """
    rng = np.random.default_rng(spec.seed)
    pts = _SAMPLERS[spec.family](rng, spec.points)
    if spec.noise_sigma > 0:
        pts = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
    pts = pts / np.max(np.linalg.norm(pts, axis=1))
    return PointCloud(points=pts, label=SHAPE_FAMILIES.index(spec.family))


def normalize_cloud(cloud: PointCloud):
    """Translate the centroid to the origin and scale the max radius to 1."""
    pts = cloud.points - cloud.points.mean(axis=0)
    radius = np.max(np.linalg.norm(pts, axis=1))
    if radius > 1e-15:
        pts = pts / radius
    return PointCloud(points=pts, label=cloud.label)


def scale_translate(cloud: PointCloud, scale, translation):
    return PointCloud(points=cloud.points * scale + np.asarray(translation),
                      label=cloud.label)


def augment(cloud: PointCloud, seed):
    """Random scaling in [0.8, 1.25) and per-axis shift in [-0.1, 0.1); train-time only."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.8, 1.25)
    t = rng.uniform(-0.1, 0.1, size=3)
    return scale_translate(cloud, s, t)


@dataclass
class DatasetSplit:
    """Train/val/test lists of labeled clouds with recorded per-item seeds."""

    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)  # split name -> list of seeds

    @property
    def n_classes(self):
        return len({c.label for c in self.train})


def build_dataset(data_spec, points, master_seed):
    """Generate disjointly seeded splits over the configured shape families."""
    split = DatasetSplit()
    counts = {"train": data_spec.train_per_class,
              "val": data_spec.val_per_class,
              "test": data_spec.test_per_class}
    for name, per_class in counts.items():
        items, seeds = [], []
        for family in data_spec.families:
            for i in range(per_class):
                seed = derive_seed(master_seed, "data", name, family, i)
                cloud = gen_synthetic(SyntheticSpec(
                    family=family, points=points,
                    noise_sigma=data_spec.noise_sigma, seed=seed))
                items.append(cloud)
                seeds.append(seed)
        getattr(split, name).extend(items)
        split.seeds[name] = seeds
    return split


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_PLY_SCALAR = {  # PLY property type -> struct / numpy type code
    "char": "b", "int8": "b",
    "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h",
    "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i",
    "uint": "I", "uint32": "I",
    "float": "f", "float32": "f",
    "double": "d", "float64": "d",
}


def load_points(path):
    """Read a point cloud from XYZ text or PLY (ascii / binary LE)."""
    with open(path, "rb") as f:
        blob = f.read()
    pts = _load_ply(path, blob) if blob[:3] == b"ply" else _text_rows(path, blob, 1, (0, 1, 2))
    try:
        return PointCloud(points=pts)
    except ValueError as exc:  # a binary PLY with no or non-finite vertices
        raise ValueError(f"{path}: {exc}") from None


def _text_rows(path, body, line, cols, width=None, count=None):
    """(n, 3) float64 from columns ``cols`` of a text body's non-blank rows.

    ``line`` numbers the body's first line. XYZ rows (``width`` None) need at
    least 3 values; ascii-PLY vertex rows exactly ``width``, over the first
    ``count`` rows. Only ``cols`` are parsed: a byte that is not utf-8 is an
    error there and, like any token, ignored elsewhere. Rejections name
    ``path:line``.
    """
    lines = body.decode("utf-8", "surrogateescape").splitlines()
    rows = [(n, r) for n, r in enumerate(map(str.split, lines), line) if r][:count]
    if len(rows) < (count or 1):  # named at the line after the last
        raise ValueError(f"{path}:{line + len(lines)}: expected {count or 'at least 1'} "
                         f"point rows, found {len(rows)}")
    for n, r in rows:
        if len(r) < 3 or (width is not None and len(r) != width):
            raise ValueError(f"{path}:{n}: expected {width or 'at least 3'} values, got {len(r)}")
    take = itemgetter(*cols)
    try:
        pts = np.array([v for _, r in rows for v in take(r)], dtype=np.float64).reshape(-1, 3)
    except ValueError:  # the same conversion row by row names the line
        for n, r in rows:
            try:
                np.array(take(r), dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{n}: non-numeric coordinate in {take(r)}") from None
        raise
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{rows[finite.argmin()][0]}: non-finite coordinate")
    return pts


def save_xyz(path, points):
    with open(path, "w", encoding="utf-8") as f:
        _write_rows(f, np.asarray(points, dtype=np.float64).reshape(-1, 3))


def _write_rows(f, points, suffix=""):
    """One %-format call for an (n, 3) float64 array; "%.17g" equals f"{x:.17g}"."""
    f.write((f"%.17g %.17g %.17g{suffix}\n" * len(points)) % tuple(points.ravel().tolist()))


def _load_ply(path, blob):
    end = blob.find(b"end_header\n")
    if end < 0:
        raise ValueError(f"{path}: PLY header not terminated")
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()
    body = blob[end + len(b"end_header\n"):]

    fmt = None
    elements = []  # (name, count, [(prop_name, prop_type)])
    for lineno, line in enumerate(header_lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0] in ("ply", "comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] not in ("ascii", "binary_little_endian"):
                raise ValueError(f"{path}:{lineno}: unsupported PLY format")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdecimal():  # a count >= 0
                raise ValueError(f"{path}:{lineno}: malformed element line")
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise ValueError(f"{path}:{lineno}: property before element")
            if tokens[1:2] == ["list"]:
                elements[-1][2].append((tokens[-1], "list"))
            else:
                if len(tokens) != 3 or tokens[1] not in _PLY_SCALAR:
                    raise ValueError(f"{path}:{lineno}: unsupported property type")
                elements[-1][2].append((tokens[2], tokens[1]))
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized header line {line!r}")
    if fmt is None:
        raise ValueError(f"{path}: missing PLY format line")

    vertex = next((e for e in elements if e[0] == "vertex"), None)
    if vertex is None:
        raise ValueError(f"{path}: no vertex element")
    if elements.index(vertex) != 0:
        raise ValueError(f"{path}: vertex element must come first")
    _, count, props = vertex
    names = [p[0] for p in props]
    if any(t == "list" for _, t in props):
        raise ValueError(f"{path}: list properties in vertex element unsupported")
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise ValueError(f"{path}: vertex element missing property {coord!r}")
    cols = [names.index(c) for c in ("x", "y", "z")]

    if fmt == "ascii":
        return _text_rows(path, body, blob.count(b"\n", 0, end) + 2, cols, len(props), count)

    # packed little-endian records; fields are named by position, since a
    # header may repeat a property name
    record = np.dtype([(f"f{i}", "<" + _PLY_SCALAR[t])
                       for i, (_, t) in enumerate(props)])
    if len(body) < record.itemsize * count:
        raise ValueError(f"{path}: binary payload truncated")
    pts = np.empty((count, 3))
    rows = np.frombuffer(body, dtype=record, count=count)
    for j, c in enumerate(cols):
        pts[:, j] = rows[f"f{c}"]
    return pts


def save_ply(path, point_groups, colors=None):
    """Write one ascii PLY from a list of point groups.

    Each group gets a constant RGB color; coordinates are written as doubles
    so a read-back is exact.
    """
    if isinstance(point_groups, np.ndarray):
        raise ValueError("save_ply takes a list of point groups, not one array")
    groups = [np.asarray(g, dtype=np.float64).reshape(-1, 3) for g in point_groups]
    if colors is None:
        colors = [(180, 180, 180)] * len(groups)
    if len(colors) != len(groups):
        raise ValueError(f"{len(groups)} point groups but {len(colors)} colors")
    total = sum(g.shape[0] for g in groups)
    with open(path, "w", encoding="ascii") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {total}\n")
        f.write("property double x\nproperty double y\nproperty double z\n")
        f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write("end_header\n")
        for g, (r, gr, b) in zip(groups, colors):
            _write_rows(f, g, f" {r} {gr} {b}")
