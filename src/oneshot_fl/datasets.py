"""Dataset generation, partitioning, and file ingestion.

Data is stored columnar: a features array ``x`` of shape (N, p) and a labels
array ``y`` of shape (N,). A :class:`FederatedDataset` adds a partition (one
index array per client) on top. Per-client random substreams are derived from
the master seed with numpy SeedSequence entropy lists so that client i's draws
are independent of the number of clients and of each other.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_MAGIC_IMAGES = 2051
IDX_MAGIC_LABELS = 2049

# Substream tags keep the per-purpose generators disjoint.
_TAG_CLIENT_PARAMS = 11
_TAG_CLIENT_DATA = 12
_TAG_PARTITION = 13
_TAG_TEMPLATES = 14
_TAG_EXAMPLES = 15


@dataclass
class FederatedDataset:
    """A pooled dataset plus its assignment of example indices to clients.

    ``num_classes`` is 0 for regression targets.
    """

    x: np.ndarray
    y: np.ndarray
    partition: list[np.ndarray]
    num_classes: int = 0

    @property
    def num_clients(self) -> int:
        return len(self.partition)

    def client_data(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.partition[i]
        return self.x[idx], self.y[idx]


def normalize_unit(x: np.ndarray) -> np.ndarray:
    """Scale each row of a matrix (N, p) to unit Euclidean norm.

    Raises ValueError naming the offending row when a norm is zero, and
    when ``x`` is not 2-d.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d (N, p) input, got ndim={x.ndim}")
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"cannot normalize zero vector at row {bad[0]}")
    return x / norms[:, None]


def gen_synthetic(clients: int, per_client: int, dim: int, seed: int) -> FederatedDataset:
    """Heterogeneous unit-sphere regression data.

    Client i draws scalars w_i, b_i ~ N(0, 1), then a weight vector
    ~ N(w_i * 1, I) and a feature-mean vector ~ N(b_i * 1, I) in R^dim.
    Features are sampled from N(mean, diag(k^-1.2)), k = 1..dim, and projected
    to the unit sphere; targets are the inner product with the client weight
    vector, so each client's targets are exactly linear in its features.
    """
    if clients < 1 or per_client < 1 or dim < 1:
        raise ValueError("clients, per_client, and dim must all be positive")
    cov_diag = np.arange(1, dim + 1, dtype=np.float64) ** -1.2
    cov_scale = np.sqrt(cov_diag)

    xs, ys = [], []
    for i in range(clients):
        rng = np.random.default_rng([seed, i, _TAG_CLIENT_PARAMS])
        w_scalar = rng.standard_normal()
        b_scalar = rng.standard_normal()
        w_vec = w_scalar + rng.standard_normal(dim)
        b_vec = b_scalar + rng.standard_normal(dim)

        data_rng = np.random.default_rng([seed, i, _TAG_CLIENT_DATA])
        raw = b_vec + data_rng.standard_normal((per_client, dim)) * cov_scale
        x = normalize_unit(raw)
        xs.append(x)
        ys.append(x @ w_vec)

    partition = [
        np.arange(i * per_client, (i + 1) * per_client, dtype=np.int64)
        for i in range(clients)
    ]
    return FederatedDataset(
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        partition=partition,
        num_classes=0,
    )


def dirichlet_partition(
    labels: np.ndarray, clients: int, alpha: float, seed: int
) -> list[np.ndarray]:
    """Split example indices across clients with Dirichlet(alpha) class mixes.

    Each class's examples are dealt to clients according to proportions drawn
    from Dirichlet(alpha * 1_clients). Draws leaving some client empty are
    resampled up to 100 times; if emptiness persists, one example is moved
    from the largest client to each empty one. Deterministic given ``seed``.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got ndim={labels.ndim}")
    if clients < 1:
        raise ValueError(f"clients must be positive, got {clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = labels.shape[0]
    if n < clients:
        raise ValueError(f"cannot split {n} examples across {clients} clients")
    if clients == 1:
        return [np.arange(n, dtype=np.int64)]

    rng = np.random.default_rng([seed, _TAG_PARTITION])
    classes = np.unique(labels)
    by_class = [np.flatnonzero(labels == c).astype(np.int64) for c in classes]

    for _ in range(100):
        buckets: list[list[np.ndarray]] = [[] for _ in range(clients)]
        for idx in by_class:
            idx = rng.permutation(idx)
            props = rng.dirichlet(np.full(clients, alpha))
            cuts = np.floor(np.cumsum(props)[:-1] * idx.size).astype(np.int64)
            for client, chunk in enumerate(np.split(idx, cuts)):
                buckets[client].append(chunk)
        parts = [np.sort(np.concatenate(b)) for b in buckets]
        if all(p.size > 0 for p in parts):
            return parts

    # Persistent empty clients: steal one example from the current largest.
    for i in range(clients):
        if parts[i].size == 0:
            donor = int(np.argmax([p.size for p in parts]))
            parts[i] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return [np.sort(p) for p in parts]


def _read_exact(f, count: int, what: str) -> bytes:
    """``count`` bytes of ``f``, checked against the bytes left in the file
    before reading, so a corrupt header's huge count allocates nothing."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise ValueError(f"truncated IDX file: expected {count} bytes for {what}, got {left}")
    return f.read(count)


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read big-endian IDX image/label files into ((N, rows*cols), (N,)) arrays.

    Pixels are scaled to [0, 1]. Raises ValueError naming the offending field
    on a bad magic number, an empty image shape, a truncated file, or an
    image/label count mismatch.
    """
    with open(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_MAGIC_IMAGES:
            raise ValueError(f"bad image magic number: expected {IDX_MAGIC_IMAGES}, got {magic}")
        if not rows or not cols:
            raise ValueError(f"image header gives {rows} rows and {cols} columns, need at least 1")
        pixels = np.frombuffer(_read_exact(f, n * rows * cols, "image data"), dtype=np.uint8)
        if f.read(1):
            raise ValueError("trailing bytes after image data")
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_MAGIC_LABELS:
            raise ValueError(f"bad label magic number: expected {IDX_MAGIC_LABELS}, got {magic}")
        labels = np.frombuffer(_read_exact(f, n_labels, "label data"), dtype=np.uint8)
        if f.read(1):
            raise ValueError("trailing bytes after label data")
    if n != n_labels:
        raise ValueError(f"image/label count mismatch: {n} images vs {n_labels} labels")
    x = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    return x, labels.astype(np.int64)


def load_csv(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a tabular CSV with a header row; the final column is the label.

    Returns (x, y, class_names). The label column is categorical, numbers
    included: each label is mapped to its index among the sorted distinct
    label texts, returned in ``class_names``. Every feature must be a finite
    number; ValueError names the line of the first one that is not.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need at least one feature column and a label column")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(header)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
    try:
        x = np.array([[float(v) for v in row[:-1]] for row in rows], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric feature value ({exc})") from None
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{path}:{i + 2}: non-finite feature value {rows[i][j]!r}")
    raw_labels = [row[-1] for row in rows]
    names = sorted(set(raw_labels))
    index = {name: i for i, name in enumerate(names)}
    return x, np.array([index[v] for v in raw_labels], dtype=np.int64), names


def _blur(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """Three-tap box blur of ``src`` along ``axis`` into ``dst``, edge pixel repeated.

    Each output pixel is ``(lo + mid) + hi``, then ``/ 3.0``, where lo and hi
    are its neighbours along ``axis`` (the pixel itself at an edge).
    """
    s, d = np.swapaxes(src, 1, axis), np.swapaxes(dst, 1, axis)
    np.add(s[:, :-1], s[:, 1:], out=d[:, 1:])
    np.add(s[:, 0], s[:, 0], out=d[:, 0])
    d[:, :-1] += s[:, 1:]
    d[:, -1] += s[:, -1]
    dst /= 3.0


def _smooth_fields(rng: np.random.Generator, count: int, side: int, passes: int) -> np.ndarray:
    """Batch of random [0, 1] images with local spatial correlation.

    Gaussian pixel noise box-blurred ``passes`` times along both image axes
    (edge pixel repeated), then min-max scaled per image. Shape (count, side,
    side). The blur runs in place between two buffers (:func:`_blur`) and the
    scaling in the result's own array, so nothing else the size of the batch
    is allocated.
    """
    imgs = rng.standard_normal((count, side, side))
    spare = np.empty_like(imgs)
    for _ in range(passes):
        for axis in (1, 2):
            _blur(imgs, spare, axis)
            imgs, spare = spare, imgs
    lo = imgs.min(axis=(1, 2), keepdims=True)
    hi = imgs.max(axis=(1, 2), keepdims=True)
    imgs -= lo
    imgs /= hi - lo
    return imgs


def gen_image_classes(
    n_train: int,
    n_test: int,
    classes: int = 10,
    side: int = 28,
    seed: int = 0,
    pixel_noise: float = 0.3,
    field_noise: float = 0.15,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic grayscale image classification data (flattened to side*side).

    Each class gets a smoothed random template; an example is its template
    plus a fresh smoothed distortion field and per-pixel noise, clipped to
    [0, 1]. Returns (x_train, y_train, x_test, y_test) with int64 labels drawn
    uniformly over classes.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if side < 2:  # a 1x1 image is constant, so min-max scaling has no range
        raise ValueError(f"need a side of at least 2, got {side}")
    tmpl_rng = np.random.default_rng([seed, _TAG_TEMPLATES])
    templates = _smooth_fields(tmpl_rng, classes, side, 3)

    rng = np.random.default_rng([seed, _TAG_EXAMPLES])

    def make(n: int) -> tuple[np.ndarray, np.ndarray]:
        y = rng.integers(0, classes, size=n)
        imgs = templates[y]
        noise = _smooth_fields(rng, n, side, 2)
        imgs += np.multiply(noise, field_noise, out=noise)
        # the field is spent: its buffer takes the pixel noise
        rng.standard_normal((n, side, side), out=noise)
        imgs += np.multiply(noise, pixel_noise, out=noise)
        x = np.clip(imgs, 0.0, 1.0, out=imgs).reshape(n, side * side)
        return x, y.astype(np.int64)

    x_train, y_train = make(n_train)
    x_test, y_test = make(n_test)
    return x_train, y_train, x_test, y_test
