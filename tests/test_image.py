import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privsplit.image import (
    Image,
    PixmapError,
    TruncatedPixmapError,
    UnsupportedPixmapError,
    load_pixmap,
    round_half_away,
    save_pixmap,
    to_u8,
)


def checker(w=6, h=4, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    return Image.from_array(rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8))


class TestImageType:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            Image(width=3, height=2, channels=1, pixels=np.zeros((2, 2, 1), dtype=np.uint8))

    def test_channel_validation(self):
        with pytest.raises(ValueError, match="channels"):
            Image(width=2, height=2, channels=2, pixels=np.zeros((2, 2, 2), dtype=np.uint8))

    def test_from_2d_array(self):
        img = Image.from_array(np.zeros((3, 4)))
        assert (img.height, img.width, img.channels) == (3, 4, 1)


class TestRounding:
    def test_half_away_from_zero(self):
        assert np.array_equal(round_half_away(np.array([0.5, 1.5, -0.5, -1.5])),
                              [1.0, 2.0, -1.0, -2.0])

    def test_to_u8_clamps(self):
        assert np.array_equal(to_u8(np.array([-3.0, 255.7, 12.4])), [0, 255, 12])


class TestPixmapRoundTrip:
    def test_gray_round_trip_bitwise(self, tmp_path):
        img = checker(channels=1)
        path = tmp_path / "img.pgm"
        save_pixmap(img, path)
        back = load_pixmap(path)
        assert back.width == img.width and back.height == img.height
        assert np.array_equal(back.pixels, img.pixels)

    def test_rgb_round_trip_bitwise(self, tmp_path):
        img = checker(channels=3, seed=2)
        path = tmp_path / "img.ppm"
        save_pixmap(img, path)
        assert np.array_equal(load_pixmap(path).pixels, img.pixels)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        img = load_pixmap(path)
        assert np.array_equal(img.pixels[:, :, 0], [[1, 2], [3, 4]])

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "b.pbm"
        path.write_bytes(b"P4\n2 2\n" + bytes([0, 0]))
        with pytest.raises(UnsupportedPixmapError, match="magic"):
            load_pixmap(path)

    def test_p7_rejected(self, tmp_path):
        path = tmp_path / "b.pam"
        path.write_bytes(b"P7\n2 2\n255\n" + bytes([0] * 4))
        with pytest.raises(UnsupportedPixmapError):
            load_pixmap(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes([0] * 8))
        with pytest.raises(UnsupportedPixmapError, match="maxval"):
            load_pixmap(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([0] * 5))
        with pytest.raises(TruncatedPixmapError, match="payload"):
            load_pixmap(path)

    def test_zero_dimensions_are_a_pixmap_error(self, tmp_path):
        path = tmp_path / "z.pgm"
        path.write_bytes(b"P5 0 0 255\n")
        with pytest.raises(PixmapError, match="dimensions 0x0"):
            load_pixmap(path)

    def test_negative_width_is_a_pixmap_error(self, tmp_path):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5 -3 2 255\n" + bytes(6))
        with pytest.raises(PixmapError, match="dimensions -3x2"):
            load_pixmap(path)


HEADER_BYTES = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.lists(st.sampled_from(b"P0123456789 -+#\n\t"), min_size=1, max_size=3).map(bytes),
    st.integers(-2, 300).map(lambda v: b"%d " % v))


def mutate(blob: bytes, edits) -> bytes:
    """Apply (kind, position, data) edits; positions wrap around the blob."""
    out = bytearray(blob)
    for kind, pos, data in edits:
        pos %= len(out) + 1
        if kind == "set":
            out[pos:pos + len(data)] = data
        elif kind == "insert":
            out[pos:pos] = data
        elif kind == "delete":
            del out[pos:pos + len(data)]
        else:
            del out[pos:]
    return bytes(out)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(w=st.integers(1, 4), h=st.integers(1, 4), channels=st.sampled_from([1, 3]),
       comment=st.booleans(),
       declared=st.none() | st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
       edits=st.lists(st.tuples(st.sampled_from(["set", "insert", "delete", "truncate"]),
                                st.integers(0, 40), HEADER_BYTES), max_size=4))
def test_mutated_pixmap_loads_or_raises_a_pixmap_error(w, h, channels, comment, declared,
                                                       edits):
    """A valid pixmap, perhaps with other declared dimensions, then byte edits."""
    img = checker(w, h, channels)
    magic = b"P5" if channels == 1 else b"P6"
    blob = b"%s\n%s%d %d\n255\n" % (magic, b"# note\n" if comment else b"",
                                     *(declared or (w, h))) + img.pixels.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pnm"
        path.write_bytes(mutate(blob, edits))
        try:
            loaded = load_pixmap(path)
        except PixmapError:
            return
        assert loaded.pixels.shape == (loaded.height, loaded.width, loaded.channels)
