"""Synthetic data: generation statistics, stratified splitting, corruption
operators, and the dataset container."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from deferbench import data
from deferbench.errors import ConfigError, FormatError, StratificationError


def image_spec(**overrides):
    base = dict(n_samples=400, positive_fraction=0.1, seed=0)
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
    assert ds.features.dtype == np.float32


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


def test_low_frequency_pattern_shape():
    pattern = data.low_frequency_pattern(15, 15)
    assert pattern.shape == (15, 15)
    assert pattern.max() == pytest.approx(1.0, abs=1e-12)  # odd side peaks at center
    assert pattern.min() > 0.0
    np.testing.assert_allclose(pattern, pattern[::-1, :], atol=1e-12)
    np.testing.assert_allclose(pattern, pattern[:, ::-1], atol=1e-12)


# SHA-256 of the float32 feature bytes and the int64 label bytes. The
# feature hashes are of generate(spec).features.astype(np.float32), recorded
# while the generator still returned float64 features (whose own hashes were
# recorded before it filled its buffer in row blocks); the float32 rounding
# is what every run used. A change that keeps every generated byte keeps them.
FROZEN_GENERATOR = {
    "default": (
        data.SynthSpec(),
        "8c5afcc7114e5e77110d4e05301827e6e7663c5c22f7cf894bef35dc470da9cd",
        "644f372d5e6400a36917f89c6fa1903957d4d659114663c724cfc4d0472792b1",
    ),
    "ragged_last_block": (
        data.SynthSpec(n_samples=1031, seed=4),
        "d9aa88e6cf435c6fbabaef72cafcf9f30137d63154ae592225677ec39aeae415",
        "7eb7983e25f56d4c0a94695c58f840910de78dbc8aa2c32bebb82c4d6305d158",
    ),
    "three_channels": (
        data.SynthSpec(n_samples=500, spatial_shape=(8, 8, 3), seed=5),
        "4be6a12fcbe9d18396267165b0a12823449d7ef6e7a724fc5e5dc6bfd974808d",
        "5413b05dd93ebbffef7a330ece26e437b04b305d8d979aff0be6ced4137d13db",
    ),
    "zero_overlap": (
        data.SynthSpec(n_samples=600, overlap_scale=0.0, seed=6),
        "22668672314242aba070186b2add8061815463b40902d8d10669e33e2a3cf3db",
        "80beb699fd13bf3bcb2947f84e8593a8f0b7e66f221eb1db576521103cfb9883",
    ),
}


def generated_sha256(spec) -> tuple:
    ds = data.generate(spec)
    return (
        hashlib.sha256(np.ascontiguousarray(ds.features).tobytes()).hexdigest(),
        hashlib.sha256(np.ascontiguousarray(ds.labels).tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("case", list(FROZEN_GENERATOR))
def test_generate_bytes_are_frozen(case):
    spec, features_sha, labels_sha = FROZEN_GENERATOR[case]
    assert generated_sha256(spec) == (features_sha, labels_sha)


@pytest.mark.parametrize("case", ["ragged_last_block", "three_channels"])
def test_generate_bytes_do_not_depend_on_the_row_block(case, monkeypatch):
    spec, features_sha, labels_sha = FROZEN_GENERATOR[case]
    assert spec.n_samples % data._ROW_BLOCK != 0  # a short last block
    for block in (1, spec.n_samples):
        monkeypatch.setattr(data, "_ROW_BLOCK", block)
        assert generated_sha256(spec) == (features_sha, labels_sha), block


def test_generate_peak_memory_is_about_one_copy_of_the_features():
    tracemalloc.start()
    try:
        ds = data.generate(data.SynthSpec())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float32 features themselves are 1.0; the rest is the background
    # grids and one float64 scratch block with its temporaries
    assert ds.features.dtype == np.float32
    assert peak <= 1.5 * ds.features.nbytes, peak / ds.features.nbytes


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_samples": 1},
        {"positive_fraction": 0.0},
        {"positive_fraction": 0.5},
        {"overlap_scale": -1.0},
        {"spatial_shape": (2, 16, 1)},
        {"spatial_shape": (16, 3, 1)},
        {"spatial_shape": (16, 16, 0)},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        image_spec(**kwargs)


# ---------------------------------------------------------------------------
# splitting and oversampling
# ---------------------------------------------------------------------------


def test_split_divisible_case_is_exact():
    ds = data.Dataset(features=np.zeros((100, 2)), labels=np.array([0, 1] * 50),
                      spatial_shape=(1, 2, 1))
    tagged = data.split(ds, seed=0)
    sizes = [int(tagged.split_mask(w).sum()) for w in (data.TRAIN, data.VAL, data.TEST)]
    assert sizes == [70, 20, 10]


def test_split_sizes_within_one_of_fractions():
    ds = data.Dataset(features=np.zeros((101, 2)), labels=np.array([0, 1] * 50 + [0]),
                      spatial_shape=(1, 2, 1))
    tagged = data.split(ds, seed=1)
    for which, frac in zip((data.TRAIN, data.VAL, data.TEST), data.SPLIT_FRACTIONS):
        assert abs(int(tagged.split_mask(which).sum()) - frac * 101) <= 1.0


def test_split_is_stratified_even_when_rare():
    ds = data.generate(image_spec(n_samples=1000, positive_fraction=0.03))
    tagged = data.split(ds, seed=2)
    for which in (data.TRAIN, data.VAL, data.TEST):
        labels = tagged.labels[tagged.split_mask(which)]
        assert labels.min() == 0 and labels.max() == 1


def test_split_rare_class_reaches_every_split():
    # 4 positives round to (3, 1, 0); the repair moves one into the test split
    labels = np.array([1] * 4 + [0] * 96)
    ds = data.Dataset(features=np.zeros((100, 2)), labels=labels, spatial_shape=(1, 2, 1))
    tagged = data.split(ds, seed=3)
    for which in (data.TRAIN, data.VAL, data.TEST):
        assert tagged.labels[tagged.split_mask(which)].sum() >= 1


def test_split_does_not_reorder_rows():
    ds = data.generate(image_spec())
    tagged = data.split(ds, seed=4)
    np.testing.assert_array_equal(tagged.features, ds.features)
    np.testing.assert_array_equal(tagged.labels, ds.labels)
    assert ds.splits is None  # split() tags a new Dataset
    # ...that shares the rows instead of copying them
    assert tagged.features is ds.features
    assert tagged.labels is ds.labels


def test_partition_reorders_the_features_in_place():
    # more train rows than one row block of the in-place move
    tagged = data.split(data.generate(image_spec(n_samples=2000)), seed=4)
    reference = tagged.copy()
    buffer = tagged.features
    parts = data.partition(tagged)
    for which, part in zip((data.TRAIN, data.VAL, data.TEST), parts):
        mask = reference.split_mask(which)
        assert np.shares_memory(part.features, buffer)
        np.testing.assert_array_equal(part.features, reference.features[mask])
        np.testing.assert_array_equal(part.labels, reference.labels[mask])
        assert part.spatial_shape == reference.spatial_shape
    np.testing.assert_array_equal(buffer, np.concatenate([p.features for p in parts]))


def test_partition_needs_split_tags():
    with pytest.raises(ConfigError, match="no split tags"):
        data.partition(data.generate(image_spec()))


def test_split_deterministic_and_seed_sensitive():
    ds = data.generate(image_spec())
    a = data.split(ds, seed=5).splits
    b = data.split(ds, seed=5).splits
    c = data.split(ds, seed=6).splits
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_rejects_tiny_class():
    ds = data.Dataset(features=np.zeros((10, 2)), labels=np.array([1, 1] + [0] * 8),
                      spatial_shape=(1, 2, 1))
    with pytest.raises(StratificationError):
        data.split(ds, seed=0)


def test_split_rejects_bad_fractions():
    ds = data.Dataset(features=np.zeros((10, 2)), labels=np.array([0, 1] * 5),
                      spatial_shape=(1, 2, 1))
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
    ds = data.Dataset(features=features, labels=np.array([0, 1] * 2000),
                      spatial_shape=(16, 16, 1))
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


@pytest.mark.parametrize("kind", ["noise", "blur"])
def test_corrupt_leaves_its_input_untouched(kind):
    ds = data.split(data.generate(image_spec()), seed=3)
    before = ds.features.copy()
    out = data.corrupt(ds, data.CorruptionSpec(kind, 2), seed=9)
    np.testing.assert_array_equal(ds.features, before)
    assert not np.shares_memory(out.features, ds.features)
    np.testing.assert_array_equal(out.labels, ds.labels)
    np.testing.assert_array_equal(out.splits, ds.splits)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blur_bytes_do_not_depend_on_the_row_block(monkeypatch, dtype):
    images = np.random.default_rng(12).random((23, 16, 16, 2)).astype(dtype)
    expected = data.gaussian_blur(images, 2.5)
    for block in (1, 7, 23):
        monkeypatch.setattr(data, "_ROW_BLOCK", block)
        assert data.gaussian_blur(images, 2.5).tobytes() == expected.tobytes(), block


def test_blur_peak_memory_is_about_its_output():
    # float32 images at the widest default kernel, radius 8 on 16-pixel
    # sides; the padded column copy alone is twice the float64 output when
    # it is made for all images at once
    images = np.random.default_rng(13).random((4096, 16, 16, 1)).astype(np.float32)
    tracemalloc.start()
    try:
        out = data.gaussian_blur(images, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float64 output is 1.0; the rest is one block's row pass, weighted
    # tap and padded copy
    assert peak <= 1.5 * out.nbytes, peak / out.nbytes


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


def test_dataset_file_keeps_a_color_image_shape(tmp_path):
    ds = quantized(data.generate(image_spec(spatial_shape=(8, 8, 3))))
    path = tmp_path / "ds.dfd1"
    data.write_dataset(path, ds)
    back = data.read_dataset(path)
    assert back.features.shape == (400, 192)
    assert back.spatial_shape == (8, 8, 3)


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


@pytest.mark.parametrize("spatial_shape", [(2, 2, 1), (1, 2, 2)])
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
        # every dataset is images: a header with no image shape is damaged
        (data._HEADER.pack(*fields[:4], 0, 0, 0, fields[7]) + body,
         r"spatial shape \(0, 0, 0\) does not match 4 features"),
        (blob[:-1], "truncated"),
        (blob + b"\x00", "trailing bytes"),
        (blob[:-1] + b"\x02", "labels must be 0 or 1"),
        # a whole file of 0 samples x 64 features, and of 3 samples x 0 features
        (data._HEADER.pack(data._MAGIC, 1, 0, 64, 8, 8, 1, data._HEADER.size), "empty dataset"),
        (data._HEADER.pack(data._MAGIC, 1, 3, 0, 0, 0, 0, data._HEADER.size) + b"\x00\x01\x00",
         "empty dataset"),
    ]
    path = tmp_path / "damaged.dfd1"
    for content, message in cases:
        path.write_bytes(content)
        with pytest.raises(FormatError, match=message):
            data.read_dataset(path)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_read_dataset_does_not_depend_on_the_row_block(tmp_path, monkeypatch, block):
    rng = np.random.default_rng(6)
    ds = data.Dataset(features=rng.random((5, 4)), labels=[0, 1, 0, 1, 1],
                      spatial_shape=(2, 2, 1))
    path = tmp_path / "ds.dfd1"
    data.write_dataset(path, ds)
    expected = data.read_dataset(path).features
    monkeypatch.setattr(data, "_ROW_BLOCK", block)
    again = tmp_path / "again.dfd1"
    data.write_dataset(again, ds)
    assert again.read_bytes() == path.read_bytes()
    assert data.read_dataset(path).features.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(expected, ds.features.astype(np.float32))


def test_read_dataset_peak_memory_is_about_one_copy_of_the_features(tmp_path):
    rng = np.random.default_rng(7)
    features = rng.random((10_000, 256))
    path = tmp_path / "ds.dfd1"
    data.write_dataset(path, data.Dataset(features=features, labels=np.zeros(10_000, int),
                                          spatial_shape=(16, 16, 1)))
    del features
    tracemalloc.start()
    try:
        ds = data.read_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float32 payload is read into the features, 1.0; the rest is the labels
    assert ds.features.dtype == np.float32
    assert peak <= 1.05 * ds.features.nbytes, peak / ds.features.nbytes


def test_write_dataset_failure_leaves_no_file(tmp_path):
    ds = data.Dataset(features=np.zeros((3, 2)), labels=[0, 1, 0], spatial_shape=(1, 2, 1))
    ds.labels = None  # fails after the header and the features are written
    with pytest.raises(AttributeError):
        data.write_dataset(tmp_path / "ds.dfd1", ds)
    assert list(tmp_path.iterdir()) == []


def test_dataset_validation():
    with pytest.raises(ConfigError):
        data.Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 2, 0]),
                     spatial_shape=(1, 2, 1))
    with pytest.raises(ConfigError):
        data.Dataset(
            features=np.zeros((4, 6)), labels=np.zeros(4, dtype=np.int64),
            spatial_shape=(2, 2, 1),
        )
    ds = data.Dataset(features=np.zeros((4, 2)), labels=np.array([0, 1, 0, 1]),
                      spatial_shape=(1, 2, 1))
    with pytest.raises(ConfigError):
        ds.split_mask(data.TRAIN)
