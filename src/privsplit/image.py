"""8-bit images and binary netpbm (P5/P6, maxval 255) round-trip I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PixmapError(ValueError):
    pass


class UnsupportedPixmapError(PixmapError):
    pass


class TruncatedPixmapError(PixmapError):
    pass


@dataclass
class Image:
    """Row-major 8-bit pixels, shape (height, width, channels)."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"bad dimensions {self.width}x{self.height}")
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        expected = (self.height, self.width, self.channels)
        if self.pixels.shape != expected:
            raise ValueError(f"pixel array shape {self.pixels.shape} != {expected}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        arr = np.asarray(arr)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, pixels=arr.astype(np.uint8))


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Deterministic round-half-away-from-zero."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def to_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(round_half_away(np.asarray(x, dtype=np.float64)), 0, 255).astype(np.uint8)


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # netpbm header tokens are separated by whitespace; '#' starts a comment
    while pos < len(data):
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise TruncatedPixmapError("unterminated comment in header")
            pos = nl + 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= len(data):
        raise TruncatedPixmapError("header ended early")
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_pixmap(path) -> Image:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise UnsupportedPixmapError(f"unsupported pixmap magic {magic!r} (need P5 or P6)")
    channels = 1 if magic == b"P5" else 3
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise PixmapError(f"non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PixmapError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedPixmapError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:pos + width * height * channels]
    if len(payload) < width * height * channels:
        raise TruncatedPixmapError(
            f"payload has {len(payload)} bytes, need {width * height * channels}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(width=width, height=height, channels=channels, pixels=pixels.copy())


def save_pixmap(img: Image, path) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())
