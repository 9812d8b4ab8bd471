import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from privsplit.datasets import make_tiny_image_dataset
from privsplit.image import Image, to_u8
from privsplit import p3
from privsplit.obfuscation import gaussian_blur
from privsplit.p3 import (
    DCT8,
    MAX_THRESHOLD,
    QUANT_TABLE,
    SECRET_MAGIC,
    SECRET_VERSION,
    P3Package,
    p3_encode,
    p3_public_stack,
    secret_proportion,
    serialize_secret,
    _HEADER,
    _RECORD,
    _dequantize_to_image,
    _from_blocks,
    _public_mask,
    _quantize_image,
    _to_blocks,
)


# The inverse codec: the references `p3_encode` and `serialize_secret` are
# checked against. No command reads a secret back, so they live here.


def quantized_reference(img: Image) -> Image:
    """Round trip through the quantized codec with nothing removed."""
    coeffs = _quantize_image(img.pixels[None])
    return Image.from_array(_dequantize_to_image(coeffs, 1, img.height, img.width)[0])


def p3_decode(pkg: P3Package) -> Image:
    """Reinsert the secret coefficients and invert the codec."""
    img = pkg.public_image
    shape = pkg.public_coefficients.shape
    assert shape[0] == img.channels and shape[3:] == (8, 8)
    flat = pkg.public_coefficients.reshape(-1, 64).copy()
    flat[pkg.secret["block"], pkg.secret["coefficient"]] = pkg.secret["value"]
    coeffs = flat.reshape(shape)
    return Image.from_array(_dequantize_to_image(coeffs, 1, img.height, img.width)[0])


# the wire record, read with `struct` rather than with the encoder's record dtype
WIRE_RECORD = struct.Struct("<IBh")


def deserialize_secret(blob: bytes) -> tuple[dict, np.ndarray]:
    """(header fields, records) of a stream that `serialize_secret` wrote."""
    magic, version, width, height, channels, threshold = _HEADER.unpack_from(blob, 0)
    assert (magic, version) == (SECRET_MAGIC, SECRET_VERSION)
    body = blob[_HEADER.size:]
    assert len(body) % WIRE_RECORD.size == 0
    entries = [WIRE_RECORD.unpack_from(body, off)
               for off in range(0, len(body), WIRE_RECORD.size)]
    meta = {"width": width, "height": height, "channels": channels, "threshold": threshold}
    return meta, np.array(entries, dtype=_RECORD)


def smooth_image(seed=0, size=32, channels=1):
    """Blurred noise: a stand-in for natural image statistics."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=(size, size, channels), dtype=np.uint8)
    return gaussian_blur(Image.from_array(raw), 2)


class TestDctBasis:
    def test_orthonormal(self):
        assert np.allclose(DCT8 @ DCT8.T, np.eye(8), atol=1e-12)

    def test_constant_block_concentrates_in_dc(self):
        img = Image.from_array(np.full((8, 8), 200, dtype=np.uint8))
        coeffs = _quantize_image(img.pixels[None])
        assert coeffs[0, 0, 0, 0, 0] == round(8 * (200 - 128) / 16)
        assert np.count_nonzero(coeffs) == 1


class TestEncode:
    def test_constant_image_secret_is_dc_only_and_public_is_midgray(self):
        img = Image.from_array(np.full((16, 16), 77, dtype=np.uint8))
        pkg = p3_encode(img, threshold=1)
        assert len(pkg.secret) == 4  # one DC per 8x8 block
        assert np.all(pkg.secret["coefficient"] == 0)
        assert np.all(pkg.public_image.pixels == 128)

    def test_partition_rule(self):
        img = smooth_image(seed=1)
        for threshold in (1, 5, 20):
            pkg = p3_encode(img, threshold)
            full = _quantize_image(img.pixels[None]).reshape(-1, 64)
            public = pkg.public_coefficients.reshape(-1, 64)
            secret_map = {(b, c): v for b, c, v in pkg.secret.tolist()}
            for b in range(full.shape[0]):
                assert (b, 0) in secret_map  # DC always secret
                assert public[b, 0] == 0
                for c in range(1, 64):
                    if (b, c) in secret_map:
                        assert abs(secret_map[(b, c)]) > threshold
                        assert public[b, c] == 0
                    else:
                        assert abs(full[b, c]) <= threshold
                        assert public[b, c] == full[b, c]

    def test_high_threshold_keeps_only_dc_in_secret(self):
        img = smooth_image(seed=2)
        coeffs = _quantize_image(img.pixels[None])
        top = int(np.abs(coeffs.reshape(-1, 64)[:, 1:]).max())
        pkg = p3_encode(img, threshold=max(top, 1))
        assert np.all(pkg.secret["coefficient"] == 0)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            p3_encode(smooth_image(), 0)

    def test_threshold_must_fit_the_u16_header(self):
        pkg = p3_encode(smooth_image(), MAX_THRESHOLD)
        assert deserialize_secret(serialize_secret(pkg))[0]["threshold"] == MAX_THRESHOLD
        with pytest.raises(ValueError, match="threshold"):
            p3_encode(smooth_image(), MAX_THRESHOLD + 1)

    def test_non_multiple_of_eight_dimensions(self):
        rng = np.random.default_rng(3)
        img = Image.from_array(rng.integers(0, 256, size=(13, 19, 3), dtype=np.uint8))
        pkg = p3_encode(img, 1)
        assert pkg.public_image.pixels.shape == (13, 19, 3)
        assert np.array_equal(p3_decode(pkg).pixels, quantized_reference(img).pixels)


class TestDecode:
    def test_round_trip_equals_quantized_reference_for_all_thresholds(self):
        img = smooth_image(seed=4)
        ref = quantized_reference(img)
        for threshold in (1, 10, 20):
            out = p3_decode(p3_encode(img, threshold))
            assert np.array_equal(out.pixels, ref.pixels)

    def test_rgb_round_trip(self):
        img = smooth_image(seed=5, channels=3)
        ref = quantized_reference(img)
        assert np.array_equal(p3_decode(p3_encode(img, 10)).pixels, ref.pixels)

    def test_withheld_secret_gives_public_image(self):
        pkg = p3_encode(smooth_image(seed=6), 1)
        bare = replace(pkg, secret=pkg.secret[:0])
        assert np.array_equal(p3_decode(bare).pixels, pkg.public_image.pixels)


class TestSecretWireFormat:
    def test_round_trip(self):
        pkg = p3_encode(smooth_image(seed=9), 5)
        blob = serialize_secret(pkg)
        meta, entries = deserialize_secret(blob)
        assert meta == {"width": 32, "height": 32, "channels": 1, "threshold": 5}
        assert entries.tolist() == pkg.secret.tolist()

    def test_record_size_is_seven_bytes(self):
        pkg = p3_encode(smooth_image(seed=10), 5)
        blob = serialize_secret(pkg)
        assert pkg.secret.dtype == _RECORD and _RECORD.itemsize == 7
        assert (len(blob) - 16) == 7 * len(pkg.secret)

    def test_a_value_beyond_i16_raises(self, monkeypatch):
        # an 8-bit image quantizes to at most 1024 in magnitude, so widen its coefficients
        quantize = p3._quantize_image
        monkeypatch.setattr(p3, "_quantize_image", lambda pixels: quantize(pixels) * 1000)
        img = Image.from_array(np.full((8, 8), 200, dtype=np.uint8))  # DC 36 -> 36000
        with pytest.raises(ValueError, match="does not fit the stream's i16 value"):
            p3_encode(img, 1)


class TestSecretProportion:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("threshold", [1, 5, 20, MAX_THRESHOLD])
    def test_counts_the_serialized_secret_stream(self, channels, threshold):
        pkg = p3_encode(smooth_image(seed=15, size=24, channels=channels), threshold)
        secret_bytes = len(serialize_secret(pkg))
        public_bytes = 7 * int(np.count_nonzero(pkg.public_coefficients))
        assert secret_proportion(pkg) == secret_bytes / (secret_bytes + public_bytes)

    def test_constant_image_is_all_secret(self):
        img = Image.from_array(np.full((16, 16), 200, dtype=np.uint8))
        assert secret_proportion(p3_encode(img, 1)) == 1.0

    def test_monotone_non_increasing_in_threshold(self):
        img = smooth_image(seed=13)
        props = [secret_proportion(p3_encode(img, t)) for t in (1, 2, 5, 10, 20)]
        assert all(a >= b for a, b in zip(props, props[1:]))

    def test_small_threshold_largest_share(self):
        img = smooth_image(seed=14)
        p1 = secret_proportion(p3_encode(img, 1))
        p10 = secret_proportion(p3_encode(img, 10))
        p20 = secret_proportion(p3_encode(img, 20))
        assert p1 >= p10 >= p20


class TestPublicStack:
    """p3_public_stack gives each image's p3_encode public image."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("height, width", [(1, 1), (3, 5), (8, 8), (13, 19), (32, 32),
                                               (41, 7)])
    def test_equals_single_image_public_images(self, height, width, channels):
        rng = np.random.default_rng(height * 47 + width + channels)
        noisy = rng.integers(0, 256, size=(3, height, width, channels), dtype=np.uint8)
        # smooth images put many coefficients on rounding ties
        ys, xs = np.mgrid[0:height, 0:width]
        smooth = np.stack([np.clip(np.rint(128 + 40 * np.sin(xs / (3.0 + k))
                                           + 30 * np.cos(ys / 7.0)), 0, 255)
                           for k in range(3)]).astype(np.uint8)
        stack = np.concatenate([noisy, np.repeat(smooth[..., None], channels, axis=3)])
        for threshold in (1, 5, 40):
            singles = [p3_encode(Image.from_array(a), threshold).public_image.pixels
                       for a in stack]
            assert np.array_equal(p3_public_stack(stack, threshold), np.stack(singles))

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            p3_public_stack(np.zeros((2, 8, 8, 1), dtype=np.uint8), 0)


# The codec before the matmul DCT: three-operand einsums, one channel at a time.
def einsum_scaled_coefficients(pixels):
    """Unrounded coefficient / Q of an (n, h, w, c) stack, (channels, n * by, bx, 8, 8)."""
    planes = pixels.astype(np.float64) - 128.0
    return np.stack([np.einsum("ij,byjk,lk->byil", DCT8, _to_blocks(planes[..., ch]), DCT8)
                     / QUANT_TABLE for ch in range(pixels.shape[3])])


def einsum_dequantize(coeffs, count, height, width):
    planes = [_from_blocks(np.einsum("ji,byjk,kl->byil", DCT8, coeffs[ch] * QUANT_TABLE, DCT8),
                          count, height, width) + 128.0 for ch in range(coeffs.shape[0])]
    return to_u8(np.stack(planes, axis=-1))


def random_rgb_stack():
    return np.random.default_rng(17).integers(0, 256, size=(12, 29, 45, 3), dtype=np.uint8)


def tiny_dataset_stack():
    return np.stack([img.pixels for img in make_tiny_image_dataset(seed=0).images])


class TestEinsumOracle:
    """The matmul DCT equals the einsum codec except on rounding ties.

    The two sum the same products in another order, so coefficient / Q may
    differ by a few ulps; that moves a quantized coefficient only where it
    lies on a half-integer, and then by one step.
    """

    @pytest.mark.parametrize("make_stack", [tiny_dataset_stack, random_rgb_stack])
    def test_coefficients_and_public_pixels(self, make_stack):
        stack = make_stack()
        n, height, width, channels = stack.shape
        scaled = einsum_scaled_coefficients(stack)
        oracle = np.rint(scaled).astype(np.int32)
        ties = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-9
        diff = _quantize_image(stack) - oracle
        assert not diff[~ties].any()
        assert np.all(np.abs(diff[diff != 0]) == 1)

        public_oracle = einsum_dequantize(np.where(_public_mask(oracle, 1), oracle, 0),
                                          n, height, width)
        changed = p3_public_stack(stack, 1) != public_oracle
        changed_planes = changed.transpose(3, 0, 1, 2).reshape(channels * n, height, width)
        changed_blocks = _to_blocks(changed_planes).any(axis=(2, 3))
        tie_blocks = (diff != 0).any(axis=(3, 4)).reshape(changed_blocks.shape)
        assert not (changed_blocks & ~tie_blocks).any()


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(image=st.tuples(st.integers(1, 40), st.integers(1, 40), st.sampled_from([1, 3]))
           .flatmap(lambda shape: arrays(np.uint8, shape)),
           threshold=st.integers(1, MAX_THRESHOLD))
    def test_decode_of_the_wire_secret_is_the_quantized_reference(self, image, threshold):
        img = Image.from_array(image)
        pkg = p3_encode(img, threshold)
        meta, entries = deserialize_secret(serialize_secret(pkg))
        assert meta == {"width": img.width, "height": img.height,
                        "channels": img.channels, "threshold": threshold}
        decoded = p3_decode(replace(pkg, secret=entries))
        assert np.array_equal(decoded.pixels, quantized_reference(img).pixels)
