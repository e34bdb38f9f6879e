"""Synthetic data: generation statistics, stratified splitting, corruption
operators, and the dataset container."""

import hashlib

import numpy as np
import pytest

from deferbench import data
from deferbench.errors import (
    ConfigError,
    FormatError,
    StratificationError,
    UnsupportedCorruptionError,
)


def image_spec(**overrides):
    base = dict(n_samples=400, positive_fraction=0.1, seed=0)
    base.update(overrides)
    return data.SynthSpec(**base)


def blob_spec(**overrides):
    base = dict(n_samples=400, positive_fraction=0.1, seed=0, spatial_shape=None)
    base.update(overrides)
    return data.SynthSpec(**base)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_default_counts_and_range():
    ds = data.generate(data.SynthSpec())
    assert ds.n_samples == 10_000
    assert ds.n_features == 16 * 16
    assert int(ds.labels.sum()) == 300  # exact 3% positives
    assert ds.features.min() >= 0.0
    assert ds.features.max() <= 1.0
    assert ds.features.dtype == np.float64


def test_generate_positive_count_rounds_half_up():
    assert int(data.generate(image_spec(n_samples=101, positive_fraction=0.1)).labels.sum()) == 10
    assert int(data.generate(image_spec(n_samples=105, positive_fraction=0.1)).labels.sum()) == 11


def test_generate_is_deterministic_per_seed():
    a = data.generate(image_spec(seed=5))
    b = data.generate(image_spec(seed=5))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = data.generate(image_spec(seed=6))
    assert not np.array_equal(a.features, c.features)


def test_generate_image_classes_differ_in_pattern_amplitude():
    ds = data.generate(image_spec(n_samples=2000))
    pattern = data.low_frequency_pattern(16, 16).ravel()
    projection = (ds.features - 0.5) @ pattern / (pattern @ pattern)
    gap = projection[ds.labels == 1].mean() - projection[ds.labels == 0].mean()
    assert gap == pytest.approx(0.08, abs=0.01)


def test_blob_mode_zero_overlap_is_separable():
    ds = data.generate(blob_spec(overlap_scale=0.0))
    # class centers sit at -+ separation/2 on axis 0
    predictions = (ds.features[:, 0] > 0.0).astype(np.int64)
    np.testing.assert_array_equal(predictions, ds.labels)


def test_blob_mode_uses_both_families():
    ds = data.generate(blob_spec(overlap_scale=0.0, n_samples=800))
    # axis 1 carries the within-class family offset of -+family_spread
    values = np.unique(np.round(ds.features[:, 1], 6))
    assert set(values) == {-1.5, 1.5}


def test_low_frequency_pattern_shape():
    pattern = data.low_frequency_pattern(15, 15)
    assert pattern.shape == (15, 15)
    assert pattern.max() == pytest.approx(1.0, abs=1e-12)  # odd side peaks at center
    assert pattern.min() > 0.0
    np.testing.assert_allclose(pattern, pattern[::-1, :], atol=1e-12)
    np.testing.assert_allclose(pattern, pattern[:, ::-1], atol=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_samples": 1},
        {"positive_fraction": 0.0},
        {"positive_fraction": 0.5},
        {"overlap_scale": -1.0},
        {"spatial_shape": (2, 16, 1)},
        {"spatial_shape": None, "n_features": 1},
        {"spatial_shape": None, "overlap_scale": 0.0, "family_spread": 0.0},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        image_spec(**kwargs)


# ---------------------------------------------------------------------------
# splitting and oversampling
# ---------------------------------------------------------------------------


def test_split_divisible_case_is_exact():
    ds = data.Dataset(features=np.zeros((100, 2)), labels=np.array([0, 1] * 50))
    tagged = data.split(ds, seed=0)
    sizes = [int(tagged.split_mask(w).sum()) for w in (data.TRAIN, data.VAL, data.TEST)]
    assert sizes == [70, 20, 10]


def test_split_sizes_within_one_of_fractions():
    ds = data.Dataset(features=np.zeros((101, 2)), labels=np.array([0, 1] * 50 + [0]))
    tagged = data.split(ds, seed=1)
    for which, frac in zip((data.TRAIN, data.VAL, data.TEST), data.SPLIT_FRACTIONS):
        assert abs(int(tagged.split_mask(which).sum()) - frac * 101) <= 1.0


def test_split_is_stratified_even_when_rare():
    ds = data.generate(image_spec(n_samples=1000, positive_fraction=0.03))
    tagged = data.split(ds, seed=2)
    for which in (data.TRAIN, data.VAL, data.TEST):
        subset = tagged.subset(tagged.split_mask(which))
        assert subset.labels.min() == 0 and subset.labels.max() == 1


def test_split_rare_class_reaches_every_split():
    # 4 positives round to (3, 1, 0); the repair moves one into the test split
    labels = np.array([1] * 4 + [0] * 96)
    ds = data.Dataset(features=np.zeros((100, 2)), labels=labels)
    tagged = data.split(ds, seed=3)
    for which in (data.TRAIN, data.VAL, data.TEST):
        assert tagged.labels[tagged.split_mask(which)].sum() >= 1


def test_split_does_not_reorder_rows():
    ds = data.generate(image_spec())
    tagged = data.split(ds, seed=4)
    np.testing.assert_array_equal(tagged.features, ds.features)
    np.testing.assert_array_equal(tagged.labels, ds.labels)
    assert ds.splits is None  # split() works on a copy


def test_split_deterministic_and_seed_sensitive():
    ds = data.generate(image_spec())
    a = data.split(ds, seed=5).splits
    b = data.split(ds, seed=5).splits
    c = data.split(ds, seed=6).splits
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_rejects_tiny_class():
    ds = data.Dataset(features=np.zeros((10, 2)), labels=np.array([1, 1] + [0] * 8))
    with pytest.raises(StratificationError):
        data.split(ds, seed=0)


def test_split_rejects_bad_fractions():
    ds = data.Dataset(features=np.zeros((10, 2)), labels=np.array([0, 1] * 5))
    with pytest.raises(ConfigError):
        data.split(ds, seed=0, fractions=(0.5, 0.5))
    with pytest.raises(ConfigError):
        data.split(ds, seed=0, fractions=(0.5, 0.3, 0.3))


def test_oversample_weights():
    labels = np.array([0, 0, 0, 1])
    weights = data.oversample_weights(labels)
    np.testing.assert_allclose(weights, [1 / 3, 1 / 3, 1 / 3, 1.0])
    assert weights[labels == 0].sum() == pytest.approx(1.0)
    assert weights[labels == 1].sum() == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        data.oversample_weights(np.zeros(4, dtype=np.int64))


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def test_corruption_spec_levels():
    assert data.CorruptionSpec("noise", 0).parameter == 0.0
    assert data.CorruptionSpec("noise", 3).parameter == 0.12
    assert data.CorruptionSpec("blur", 3).parameter == 1.5
    assert data.CorruptionSpec("blur", 5).parameter == 2.5
    with pytest.raises(ConfigError):
        data.CorruptionSpec("fog", 1)
    with pytest.raises(ConfigError):
        data.CorruptionSpec("noise", 6)
    with pytest.raises(ConfigError):
        data.CorruptionSpec("noise", 1, noise_sigmas=(0.2, 0.1))
    with pytest.raises(ConfigError, match="finite"):
        data.CorruptionSpec("blur", 1, blur_sigmas=(0.5, float("inf")))


def test_corrupt_level_zero_is_identity():
    ds = data.generate(image_spec())
    out = data.corrupt(ds, data.CorruptionSpec("noise", 0), seed=0)
    np.testing.assert_array_equal(out.features, ds.features)
    assert out.features is not ds.features  # a real copy, not a view
    out.features[0, 0] = -1.0
    assert ds.features[0, 0] != -1.0


def test_noise_stddev_matches_level_parameter():
    # constant 0.5 images keep the clamp inactive, so the residual is the raw noise
    features = np.full((4000, 256), 0.5)  # ~1e6 pixels
    ds = data.Dataset(features=features, labels=np.array([0, 1] * 2000))
    spec = data.CorruptionSpec("noise", 3)
    out = data.corrupt(ds, spec, seed=7)
    residual = out.features - 0.5
    assert residual.std() == pytest.approx(spec.parameter, rel=0.02)
    assert abs(residual.mean()) < 1e-3


def test_noise_clamps_to_unit_interval():
    ds = data.generate(image_spec())
    out = data.corrupt(ds, data.CorruptionSpec("noise", 5), seed=8)
    assert out.features.min() >= 0.0
    assert out.features.max() <= 1.0
    np.testing.assert_array_equal(out.labels, ds.labels)


def test_corrupt_deterministic_per_seed_and_level():
    ds = data.generate(image_spec())
    a = data.corrupt(ds, data.CorruptionSpec("noise", 2), seed=9)
    b = data.corrupt(ds, data.CorruptionSpec("noise", 2), seed=9)
    c = data.corrupt(ds, data.CorruptionSpec("noise", 2), seed=10)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_gaussian_kernel_normalized_and_symmetric():
    kernel = data.gaussian_kernel(1.5)
    assert kernel.shape == (2 * 5 + 1,)  # radius ceil(4.5) = 5
    assert kernel.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(kernel, kernel[::-1], atol=1e-15)
    assert kernel.argmax() == 5


def test_blur_constant_image_is_fixed_point():
    images = np.full((2, 16, 16, 1), 0.37)
    out = data.gaussian_blur(images, 1.5)
    np.testing.assert_allclose(out, images, atol=1e-12)


def test_blur_is_linear():
    rng = np.random.default_rng(11)
    a = rng.random((3, 16, 16, 1))
    b = rng.random((3, 16, 16, 1))
    left = data.gaussian_blur(a + 2.0 * b, 1.0)
    right = data.gaussian_blur(a, 1.0) + 2.0 * data.gaussian_blur(b, 1.0)
    np.testing.assert_allclose(left, right, atol=1e-10)


def test_blur_reduces_high_frequency_contrast():
    ds = data.generate(image_spec())
    out = data.corrupt(ds, data.CorruptionSpec("blur", 4), seed=0)
    assert out.features.std() < ds.features.std()
    np.testing.assert_array_equal(out.labels, ds.labels)
    assert out.provenance.endswith("+blur4")


def test_blur_needs_spatial_shape():
    ds = data.generate(blob_spec())
    with pytest.raises(UnsupportedCorruptionError):
        data.corrupt(ds, data.CorruptionSpec("blur", 1), seed=0)
    # noise works on flat features
    data.corrupt(ds, data.CorruptionSpec("noise", 1), seed=0)


def test_blur_rejects_kernel_wider_than_image():
    images = np.zeros((1, 8, 8, 1))
    with pytest.raises(ConfigError):
        data.gaussian_blur(images, 4.0)  # radius 12 > side 8


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def quantized(ds):
    out = ds.copy()
    out.features = out.features.astype(np.float32).astype(np.float64)
    return out


def test_dataset_file_roundtrip(tmp_path):
    ds = quantized(data.generate(image_spec()))
    path = tmp_path / "ds.dfd1"
    data.write_dataset(path, ds)
    back = data.read_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.spatial_shape == (16, 16, 1)


def test_dataset_file_blob_mode_has_no_spatial_shape(tmp_path):
    ds = quantized(data.generate(blob_spec()))
    path = tmp_path / "ds.dfd1"
    data.write_dataset(path, ds)
    assert data.read_dataset(path).spatial_shape is None


def test_same_dataset_writes_identical_bytes(tmp_path):
    ds = data.generate(image_spec(seed=12))
    p1, p2 = tmp_path / "a.dfd1", tmp_path / "b.dfd1"
    data.write_dataset(p1, ds)
    data.write_dataset(p2, data.generate(image_spec(seed=12)))
    assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()


def test_dataset_file_errors(tmp_path):
    bad = tmp_path / "bad.dfd1"
    bad.write_bytes(b"WHAT" + b"\x00" * 40)
    with pytest.raises(FormatError, match="bad magic"):
        data.read_dataset(bad)

    ds = quantized(data.generate(image_spec()))
    good = tmp_path / "good.dfd1"
    data.write_dataset(good, ds)
    clipped = tmp_path / "clipped.dfd1"
    clipped.write_bytes(good.read_bytes()[: data._HEADER.size + 100])
    with pytest.raises(FormatError, match="truncated"):
        data.read_dataset(clipped)


def _tiny_dataset_bytes(tmp_path, spatial_shape=(2, 2, 1)):
    rng = np.random.default_rng(5)
    ds = data.Dataset(features=rng.random((5, 4)), labels=[0, 1, 0, 1, 1],
                      spatial_shape=spatial_shape)
    path = tmp_path / "source.dfd1"
    data.write_dataset(path, ds)
    return path.read_bytes()


@pytest.mark.parametrize("spatial_shape", [(2, 2, 1), None])
def test_dataset_every_truncation_is_a_format_error(tmp_path, spatial_shape):
    blob = _tiny_dataset_bytes(tmp_path, spatial_shape)
    path = tmp_path / "cut.dfd1"
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(FormatError):
            data.read_dataset(path)


def test_dataset_bit_flips_raise_only_format_errors(tmp_path):
    blob = _tiny_dataset_bytes(tmp_path)
    header = data._HEADER.size
    labels = len(blob) - 5
    path = tmp_path / "flipped.dfd1"
    # a flip in the feature payload only changes a value, and bit 0 of a label
    # byte swaps the class, so every other bit makes the file invalid
    bits = [*range(8 * header), *(8 * byte + k for byte in range(labels, len(blob))
                                  for k in range(1, 8))]
    for bit in bits:
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(damaged))
        with pytest.raises(FormatError):
            data.read_dataset(path)


def test_dataset_damaged_headers(tmp_path):
    blob = _tiny_dataset_bytes(tmp_path)
    fields = list(data._HEADER.unpack(blob[: data._HEADER.size]))
    body = blob[data._HEADER.size :]

    def with_field(index, value):
        changed = list(fields)
        changed[index] = value
        return data._HEADER.pack(*changed) + body

    cases = [
        # one flipped bit (bit 40) in the sample count once made the reader
        # ask for a petabyte before any size check
        (with_field(2, fields[2] | 1 << 40), "label offset"),
        (with_field(7, fields[7] + 1), "label offset"),
        (with_field(6, 2), "spatial shape"),
        (with_field(4, 0), "spatial shape"),
        (blob[:-1], "truncated"),
        (blob + b"\x00", "trailing bytes"),
        (blob[:-1] + b"\x02", "labels must be 0 or 1"),
    ]
    path = tmp_path / "damaged.dfd1"
    for content, message in cases:
        path.write_bytes(content)
        with pytest.raises(FormatError, match=message):
            data.read_dataset(path)


def test_write_dataset_failure_leaves_no_file(tmp_path):
    ds = data.Dataset(features=np.zeros((3, 2)), labels=[0, 1, 0])
    ds.labels = None  # fails after the header and the features are written
    with pytest.raises(AttributeError):
        data.write_dataset(tmp_path / "ds.dfd1", ds)
    assert list(tmp_path.iterdir()) == []


def test_dataset_validation():
    with pytest.raises(ConfigError):
        data.Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 2, 0]))
    with pytest.raises(ConfigError):
        data.Dataset(
            features=np.zeros((4, 6)), labels=np.zeros(4, dtype=np.int64),
            spatial_shape=(2, 2, 1),
        )
    ds = data.Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]))
    with pytest.raises(ConfigError):
        ds.split_mask(data.TRAIN)
