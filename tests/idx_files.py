"""IDX file writer for the tests that read images through ``datasets.load_idx``."""

import struct

import numpy as np

from oneshot_fl.datasets import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write uint8 images of shape (N, rows, cols) and labels as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must have shape (N, rows, cols), got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError(f"labels must have shape ({images.shape[0]},), got {labels.shape}")
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_MAGIC_LABELS, n))
        f.write(labels.tobytes())
