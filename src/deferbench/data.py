"""Synthetic imbalanced datasets, stratified splitting, oversampling weights,
and Gaussian noise/blur corruption for test-time distribution shift.

Two generator modes stand in for the real imaging data:

* blob mode: two Gaussian blob families per class in D dimensions; overlap is
  controlled by the within-blob standard deviation.
* image mode: 16x16-style single-channel patches in [0,1] whose class signal
  is a fixed low-frequency pattern with overlapping per-sample amplitudes,
  plus a smooth random background and i.i.d. pixel noise. Pixel noise is the
  dominant nuisance, so additive test-time noise genuinely degrades the
  signal, while blurring mostly preserves it.

Memory: the image generator fills one preallocated feature buffer in blocks
of _ROW_BLOCK rows, so a dataset costs about one copy of its float64
features while it is built; float32 rounding, the DFD1 writer and the DFD1
reader also go a block at a time, and ``partition`` groups the split rows
in place. The block size is an internal constant, not a setting; every
block size gives the same bytes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from deferbench.atomic import atomic_open
from deferbench.errors import (
    ConfigError,
    FormatError,
    InputShapeError,
    StratificationError,
    UnsupportedCorruptionError,
)
from deferbench.rng import child_rng

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = {TRAIN: "train", VAL: "val", TEST: "test"}
SPLIT_FRACTIONS = (0.7, 0.2, 0.1)

_MAGIC = b"DFD1"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQIIIQ")  # magic, version, S, D, H, W, C, label_offset

NOISE_SIGMAS = (0.04, 0.08, 0.12, 0.16, 0.20)
BLUR_SIGMAS = (0.5, 1.0, 1.5, 2.0, 2.5)

_ROW_BLOCK = 256  # rows per block of the generator and DFD1 I/O; see "Memory"


@dataclass
class Dataset:
    features: np.ndarray  # (S, D) float64
    labels: np.ndarray  # (S,) int64 in {0, 1}
    spatial_shape: Optional[tuple[int, int, int]] = None  # (H, W, C), H*W*C == D
    splits: Optional[np.ndarray] = None  # (S,) int64 in {TRAIN, VAL, TEST}

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputShapeError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise InputShapeError("labels must be one per feature row")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ConfigError("labels must be binary")
        if self.spatial_shape is not None:
            h, w, c = self.spatial_shape
            if h * w * c != self.features.shape[1]:
                raise ConfigError(
                    f"spatial shape {self.spatial_shape} does not match D={self.features.shape[1]}"
                )
        if self.splits is not None:
            self.splits = np.asarray(self.splits, dtype=np.int64)
            if self.splits.shape != (self.features.shape[0],):
                raise InputShapeError("split tags must be one per row")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def split_mask(self, which: int) -> np.ndarray:
        if self.splits is None:
            raise ConfigError("dataset has no split tags; call split() first")
        return self.splits == which

    def subset(self, mask) -> "Dataset":
        """Rows selected by a boolean or index mask, in new arrays."""
        mask = np.asarray(mask)
        return Dataset(
            features=self.features[mask],
            labels=self.labels[mask],
            spatial_shape=self.spatial_shape,
            splits=None,
        )

    def copy(self) -> "Dataset":
        return Dataset(
            features=self.features.copy(),
            labels=self.labels.copy(),
            spatial_shape=self.spatial_shape,
            splits=None if self.splits is None else self.splits.copy(),
        )


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings. spatial_shape=None gives blob mode, else image mode.

    overlap_scale multiplies every stochastic spread, so 0 makes the classes
    separable. In blob mode family_spread places the two blobs of each class;
    zero overlap with zero family spread collapses each class to a point and
    is rejected.
    """

    n_samples: int = 10_000
    positive_fraction: float = 0.03
    seed: int = 0
    overlap_scale: float = 1.0
    spatial_shape: Optional[tuple[int, int, int]] = (16, 16, 1)
    # blob mode geometry
    n_features: int = 8
    class_separation: float = 3.0
    family_spread: float = 1.5
    # image mode texture; the defaults put a plain classifier near 0.93 test
    # bAcc with real amplitude overlap, so deferral has both room and signal
    signal_gap: float = 0.08
    amplitude_jitter: float = 0.02
    background_amp: float = 0.02
    pixel_noise: float = 0.08

    def __post_init__(self):
        if self.n_samples < 2:
            raise ConfigError("need at least 2 samples")
        if not (0.0 < self.positive_fraction < 0.5):
            raise ConfigError(
                f"positive_fraction must lie in (0, 0.5), got {self.positive_fraction}"
            )
        if self.overlap_scale < 0.0:
            raise ConfigError("overlap_scale must be non-negative")
        if self.spatial_shape is None:
            if self.overlap_scale == 0.0 and self.family_spread == 0.0:
                raise ConfigError("degenerate geometry: zero overlap scale with zero spread")
            if self.n_features < 2:
                raise ConfigError("blob mode needs at least 2 features")
        else:
            h, w, c = self.spatial_shape
            if h < 4 or w < 4 or c < 1:
                raise ConfigError(f"spatial shape too small: {self.spatial_shape}")


def _draw_labels(rng, n: int, positive_fraction: float) -> np.ndarray:
    n_pos = int(np.floor(n * positive_fraction + 0.5))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    return rng.permutation(labels)


def _blob_features(rng, spec: SynthSpec, labels: np.ndarray) -> np.ndarray:
    n, d = labels.shape[0], spec.n_features
    centers = np.zeros((2, 2, d))  # [class, blob, dim]
    centers[0, :, 0] = -spec.class_separation / 2.0
    centers[1, :, 0] = +spec.class_separation / 2.0
    centers[:, 0, 1] = -spec.family_spread
    centers[:, 1, 1] = +spec.family_spread
    blob = rng.integers(0, 2, size=n)
    x = centers[labels, blob] + spec.overlap_scale * rng.standard_normal((n, d))
    return x


def low_frequency_pattern(height: int, width: int) -> np.ndarray:
    """Smooth positive bump, unit peak: the class signal of the image generator."""
    rows = np.sin(np.pi * (np.arange(height) + 0.5) / height)
    cols = np.sin(np.pi * (np.arange(width) + 0.5) / width)
    return np.outer(rows, cols)


def _smooth_background(grid: np.ndarray, height: int, width: int) -> np.ndarray:
    """Per-sample low-frequency field: bilinear upsample of a coarse 4x4 grid.

    grid is (S, 4, 4). Interpolating along x on the 4 coarse rows before
    picking rows gives each output element the same floating-point
    operations as interpolating the four picked corners directly.
    """
    ys = np.clip((np.arange(height) + 0.5) / height * 4 - 0.5, 0.0, 3.0)
    xs = np.clip((np.arange(width) + 0.5) / width * 4 - 0.5, 0.0, 3.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, 3)
    x1 = np.minimum(x0 + 1, 3)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    rows = (1 - wx) * grid[:, :, x0] + wx * grid[:, :, x1]  # (S, 4, W)
    return (1 - wy) * rows[:, y0] + wy * rows[:, y1]


def _image_features(rng, spec: SynthSpec, labels: np.ndarray) -> np.ndarray:
    """Image-mode features, built into one preallocated buffer in row blocks.

    The per-sample amplitudes and background grids are drawn first, then the
    pixel noise block by block; consecutive draws continue one stream, so
    the bytes do not depend on _ROW_BLOCK.
    """
    h, w, c = spec.spatial_shape
    n = labels.shape[0]
    pattern = low_frequency_pattern(h, w)
    amplitude = spec.signal_gap * labels + (
        spec.amplitude_jitter * spec.overlap_scale * rng.standard_normal(n)
    )
    grid = rng.standard_normal((n, 4, 4))
    background_scale = spec.background_amp * spec.overlap_scale
    noise_scale = spec.pixel_noise * spec.overlap_scale

    images = np.empty((n, h, w, c))
    noise = np.empty((min(n, _ROW_BLOCK), h, w, c))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        block = images[start:stop]
        smooth = 0.5 + amplitude[start:stop, None, None] * pattern[None, :, :]
        smooth += background_scale * _smooth_background(grid[start:stop], h, w)
        block[...] = smooth[..., None]
        block_noise = noise[: stop - start]
        rng.standard_normal(out=block_noise)
        block_noise *= noise_scale
        block += block_noise
        np.clip(block, 0.0, 1.0, out=block)
    return images.reshape(n, h * w * c)


def generate(spec: SynthSpec) -> Dataset:
    """Synthetic dataset with an exact positive count of round(n * positive_fraction)."""
    rng = child_rng(spec.seed, "generate")
    labels = _draw_labels(rng, spec.n_samples, spec.positive_fraction)
    if spec.spatial_shape is None:
        features = _blob_features(rng, spec, labels)
    else:
        features = _image_features(rng, spec, labels)
    return Dataset(features=features, labels=labels, spatial_shape=spec.spatial_shape)


def round_to_float32(features: np.ndarray) -> None:
    """Round float64 features to float32 precision in place, a row block at a
    time; widening back to float64 is exact."""
    for start in range(0, features.shape[0], _ROW_BLOCK):
        block = features[start : start + _ROW_BLOCK]
        block[...] = block.astype(np.float32)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split(dataset: Dataset, seed: int, fractions=SPLIT_FRACTIONS) -> Dataset:
    """Random stratified 70/20/10 split; every split receives both classes.

    The result carries the split tags and shares the input's feature and
    label arrays.

    Sizes follow per-class cumulative rounding, so overall split sizes are
    within one sample of the exact fractions. If a class would miss a split,
    one sample is moved from that class's largest split; classes with fewer
    than 3 samples cannot be stratified and raise.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be three values summing to 1, got {fractions}")
    rng = child_rng(seed, "split")
    splits = np.full(dataset.n_samples, -1, dtype=np.int64)

    for cls in (0, 1):
        idx = np.nonzero(dataset.labels == cls)[0]
        n_c = idx.shape[0]
        if n_c < 3:
            raise StratificationError(
                f"class {cls} has {n_c} samples; cannot cover train/val/test"
            )
        idx = rng.permutation(idx)
        t1 = _round_half_up(fractions[0] * n_c)
        t2 = _round_half_up((fractions[0] + fractions[1]) * n_c)
        sizes = [t1, t2 - t1, n_c - t2]
        # ensure every split sees this class, stealing from the largest split
        for s in range(3):
            while sizes[s] == 0:
                donor = int(np.argmax(sizes))
                sizes[donor] -= 1
                sizes[s] += 1
        bounds = np.cumsum(sizes)
        splits[idx[: bounds[0]]] = TRAIN
        splits[idx[bounds[0] : bounds[1]]] = VAL
        splits[idx[bounds[1] :]] = TEST

    return replace(dataset, splits=splits)


def partition(dataset: Dataset) -> tuple:
    """(train, val, test) subsets of a split dataset, with no copy of its features.

    Takes ownership of the dataset: its feature rows are reordered in place
    into a train, a val and a test block, each in its original row order, and
    each subset's features are a view of its block. The only scratch is a
    copy of the val and test rows; the train rows move forward a row block
    at a time. Labels are copied into the same order.
    """
    if dataset.splits is None:
        raise ConfigError("dataset has no split tags; call split() first")
    order = np.argsort(dataset.splits, kind="stable")
    bounds = np.cumsum(np.bincount(dataset.splits, minlength=3))
    n_train = bounds[TRAIN]
    x = dataset.features
    held_out = x[order[n_train:]]
    # the k-th train row sits at or after row k, so no row still to be moved
    # is overwritten before it is read
    for start in range(0, n_train, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n_train)
        x[start:stop] = x[order[start:stop]]
    x[n_train:] = held_out
    labels = dataset.labels[order]
    return tuple(
        Dataset(
            features=x[start:stop],
            labels=labels[start:stop],
            spatial_shape=dataset.spatial_shape,
        )
        for start, stop in zip((0, *bounds[:-1]), bounds)
    )


def oversample_weights(labels) -> np.ndarray:
    """Per-sample weight 1 / count(own class); class totals then sum to 1 each."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=2)
    if np.any(counts == 0):
        raise ConfigError("both classes must be present to compute oversampling weights")
    return 1.0 / counts[labels]


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------


def check_magnitudes(name: str, table) -> None:
    """Reject a severity table unless it is positive, finite and strictly increasing."""
    increasing = all(a < b for a, b in zip(table, table[1:]))
    if not increasing or not all(0.0 < v < np.inf for v in table):
        raise ConfigError(
            f"{name} must be positive, finite and strictly increasing, got {tuple(table)}"
        )


@dataclass(frozen=True)
class CorruptionSpec:
    """Corruption kind and severity level; level 0 is the identity.

    Magnitude tables map levels 1..5 to the noise standard deviation on the
    [0,1] intensity scale, or the blur kernel standard deviation in pixels.
    """

    kind: str  # "noise" | "blur"
    level: int
    noise_sigmas: tuple[float, ...] = NOISE_SIGMAS
    blur_sigmas: tuple[float, ...] = BLUR_SIGMAS

    def __post_init__(self):
        if self.kind not in ("noise", "blur"):
            raise ConfigError(f"unknown corruption kind {self.kind!r}")
        table = self.noise_sigmas if self.kind == "noise" else self.blur_sigmas
        if not (0 <= self.level <= len(table)):
            raise ConfigError(f"level must lie in 0..{len(table)}, got {self.level}")
        check_magnitudes(f"{self.kind}_sigmas", table)

    @property
    def parameter(self) -> float:
        """Resolved noise/blur standard deviation; 0.0 at level 0."""
        if self.level == 0:
            return 0.0
        table = self.noise_sigmas if self.kind == "noise" else self.blur_sigmas
        return float(table[self.level - 1])


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel with radius ceil(3*sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def blur_radius(sigma: float, height: int, width: int) -> int:
    """Radius ceil(3*sigma) of the blur kernel; it must stay below both image sides."""
    radius = int(np.ceil(3.0 * sigma))
    if radius >= height or radius >= width:
        raise ConfigError(f"blur sigma {sigma} needs radius {radius} >= image side")
    return radius


def gaussian_blur(images: np.ndarray, sigma: float) -> np.ndarray:
    """Separable per-channel Gaussian blur with reflect padding, no clipping.

    images: (S, H, W, C); the result is float64. The kernel is normalized
    after truncation, so a constant image is a fixed point and the operator
    is linear.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise InputShapeError(f"expected (S, H, W, C) images, got shape {images.shape}")
    _, h, w, _ = images.shape
    radius = blur_radius(sigma, h, w)
    kernel = gaussian_kernel(sigma)

    acc = np.zeros(images.shape)
    term = np.empty(images.shape)  # one weighted tap, reused
    padded = np.pad(images, ((0, 0), (radius, radius), (0, 0), (0, 0)), mode="reflect")
    for tap, weight in enumerate(kernel):
        acc += np.multiply(padded[:, tap : tap + h, :, :], weight, out=term)
    del padded  # free the row-padded copy before padding the columns
    padded = np.pad(acc, ((0, 0), (0, 0), (radius, radius), (0, 0)), mode="reflect")
    acc[...] = 0.0
    for tap, weight in enumerate(kernel):
        acc += np.multiply(padded[:, :, tap : tap + w, :], weight, out=term)
    return acc


def corrupt(dataset: Dataset, spec: CorruptionSpec, seed: int) -> Dataset:
    """Corrupted copy of every row; labels, splits and shapes are untouched.

    Level 0 returns a byte-identical copy. Noise adds clamped i.i.d. Gaussian
    pixel noise; blur convolves each channel with a normalized Gaussian
    kernel (radius ceil(3*sigma), reflect padding) and needs a spatial shape.
    """
    if spec.level == 0:
        return dataset.copy()
    if spec.kind == "noise":
        rng = child_rng(seed, "corrupt", spec.kind, spec.level)
        features = rng.normal(0.0, spec.parameter, size=dataset.features.shape)
        features += dataset.features
    else:
        if dataset.spatial_shape is None:
            raise UnsupportedCorruptionError("blur requires a dataset with a spatial shape")
        h, w, c = dataset.spatial_shape
        images = dataset.features.reshape(dataset.n_samples, h, w, c)
        features = gaussian_blur(images, spec.parameter).reshape(dataset.n_samples, -1)
    np.clip(features, 0.0, 1.0, out=features)
    return Dataset(
        features=features,
        labels=dataset.labels.copy(),
        spatial_shape=dataset.spatial_shape,
        splits=None if dataset.splits is None else dataset.splits.copy(),
    )


# ---------------------------------------------------------------------------
# Dataset container ("DFD1")
# ---------------------------------------------------------------------------


def write_dataset(path, dataset: Dataset) -> None:
    """Fixed 44-byte header, float32 features row-major, labels as bytes."""
    s, d = dataset.features.shape
    h, w, c = dataset.spatial_shape if dataset.spatial_shape is not None else (0, 0, 0)
    label_offset = _HEADER.size + s * d * 4
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, s, d, h, w, c, label_offset))
        for start in range(0, s, _ROW_BLOCK):
            block = dataset.features[start : start + _ROW_BLOCK]
            fh.write(np.ascontiguousarray(block, dtype="<f4").data)
        fh.write(dataset.labels.astype(np.uint8).data)


@dataclass(frozen=True)
class DatasetHeader:
    """Sizes declared by a DFD1 header, checked against the file length."""

    n_samples: int
    n_features: int
    spatial_shape: Optional[tuple[int, int, int]]


def _read_header(fh, path) -> DatasetHeader:
    """Read and check the header of an open DFD1 file.

    Damaged input (a short header, no samples or no features, counts that
    disagree with the file length, a label offset that does not follow the
    features, a spatial shape that does not match the feature count) raises
    FormatError.
    """
    size = os.fstat(fh.fileno()).st_size
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, s, d, h, w, c, label_offset = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic, not a DFD1 dataset")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported DFD1 version {version}")
    if s == 0 or d == 0:
        raise FormatError(f"{path}: empty dataset, header declares {s} samples of {d} features")
    if label_offset != _HEADER.size + s * d * 4:
        raise FormatError(f"{path}: label offset {label_offset} does not follow "
                          f"{s} x {d} float32 features")
    if label_offset + s > size:
        raise FormatError(f"{path}: truncated, header declares {label_offset + s} bytes "
                          f"and the file has {size}")
    if label_offset + s < size:
        raise FormatError(f"{path}: trailing bytes after the labels")
    if (h, w, c) != (0, 0, 0) and h * w * c != d:
        raise FormatError(f"{path}: spatial shape {(h, w, c)} does not match {d} features")
    return DatasetHeader(s, d, (h, w, c) if h * w * c > 0 else None)


def read_dataset_header(path) -> DatasetHeader:
    """The checked header of a DFD1 file, without reading its arrays."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_dataset(path) -> Dataset:
    """Read a DFD1 file, checking every size in the header against the file.

    The header checks of ``read_dataset_header`` run before anything sized by
    the header is read; labels that are not 0/1 are a FormatError too.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        s, d = header.n_samples, header.n_features
        features = np.empty((s, d))
        block = np.empty((min(s, _ROW_BLOCK), d), dtype="<f4")
        for start in range(0, s, _ROW_BLOCK):
            rows = block[: s - start]
            if fh.readinto(rows) != rows.nbytes:
                raise FormatError(f"{path}: truncated while reading")  # file changed under us
            features[start : start + rows.shape[0]] = rows
        labels = np.frombuffer(fh.read(s), dtype=np.uint8)
    if labels.shape[0] != s:
        raise FormatError(f"{path}: truncated while reading")
    if np.any(labels > 1):
        raise FormatError(f"{path}: labels must be 0 or 1")
    return Dataset(
        features=features,
        labels=labels.astype(np.int64),
        spatial_shape=header.spatial_shape,
    )
