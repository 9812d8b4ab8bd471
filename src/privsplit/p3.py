"""P3-style coefficient decomposition on an 8x8 block-DCT codec.

The codec is fixed so round trips are bit-exact: level shift by 128,
orthonormal 2-D DCT per 8x8 block, quantization by the standard luminance
table (quality 50), per-channel processing for RGB, edge-replicated padding
to block multiples. The DC coefficient of every block and each AC
coefficient whose quantized magnitude exceeds the threshold move to the
secret part; the public image keeps the rest. The package retains the exact
quantized public coefficients, so reinserting the secret reproduces the
full-coefficient reference reconstruction bitwise.

The DCT of a block B is the separable product C @ B @ C.T, with C the
orthonormal 8x8 DCT-II matrix :data:`DCT8`, and the inverse is
C.T @ (coefficients * Q) @ C. Each coefficient thus costs two 8-term dot
products, not one 64-term sum over three-way products.

The codec works on a stack of images: a uint8 array of shape
(n, height, width, channels), whose channels and images are stacked along
the block-row axis of the DCT. A single :class:`Image` is a stack of one, so
:func:`p3_encode` runs the same code as :func:`p3_public_stack`, which
returns the public images of a whole stack without building their secrets.
A stack gives each image bitwise what its single call gives: ``@``
multiplies every block on its own, through the same 8x8 products with the
same strides, so no sum mixes values of two blocks or depends on where a
block sits in the stack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .image import Image, to_u8

# Standard luminance quantization table; quality 50 uses it unscaled.
QUANT_TABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)

SECRET_MAGIC = b"P3SC"
SECRET_VERSION = 1
_HEADER = struct.Struct("<4sBIIBH")
# one secret record, packed: block id u32, coefficient id u8, value i16
_RECORD = np.dtype([("block", "<u4"), ("coefficient", "u1"), ("value", "<i2")])
# the secret header stores the threshold as u16
MAX_THRESHOLD = 0xFFFF


def _dct_matrix() -> np.ndarray:
    n = np.arange(8)
    c = np.cos((2 * n[None, :] + 1) * n[:, None] * np.pi / 16.0)
    c[0, :] = 1.0
    scale = np.full((8, 1), 0.5)
    scale[0, 0] = 1.0 / np.sqrt(8.0)
    return scale * c


DCT8 = _dct_matrix()


@dataclass
class P3Package:
    """Public image plus the secret coefficient entries that were cut out."""

    public_image: Image
    public_coefficients: np.ndarray  # int32 (channels, block_rows, block_cols, 8, 8)
    secret: np.ndarray  # _RECORD records (block id, coefficient id, value)
    threshold: int


def _to_blocks(planes: np.ndarray) -> np.ndarray:
    """(n, h, w) planes -> (n * by, bx, 8, 8) blocks, the images stacked along the block rows."""
    n, h, w = planes.shape
    padded = np.pad(planes, ((0, 0), (0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    by, bx = padded.shape[1] // 8, padded.shape[2] // 8
    return padded.reshape(n * by, 8, bx, 8).transpose(0, 2, 1, 3)


def _from_blocks(blocks: np.ndarray, count: int, height: int, width: int) -> np.ndarray:
    bx = blocks.shape[1]
    planes = blocks.transpose(0, 2, 1, 3).reshape(count, -1, bx * 8)
    return planes[:, :height, :width]


def _quantize_image(pixels: np.ndarray) -> np.ndarray:
    """Quantized block coefficients of an (n, h, w, c) stack, int32.

    The shape is (channels, n * by, bx, 8, 8): image k holds block rows
    k * by to (k + 1) * by - 1. For a stack of one it is the package layout
    (channels, by, bx, 8, 8).
    """
    n, h, w, channels = pixels.shape
    planes = pixels.transpose(3, 0, 1, 2).reshape(channels * n, h, w).astype(np.float64)
    blocks = _to_blocks(planes - 128.0)
    coeffs = DCT8 @ blocks @ DCT8.T
    quantized = np.rint(coeffs / QUANT_TABLE).astype(np.int32)
    return quantized.reshape(channels, -1, *quantized.shape[1:])


def _dequantize_to_image(coeffs: np.ndarray, count: int, height: int,
                         width: int) -> np.ndarray:
    """Invert :func:`_quantize_image`: an (count, height, width, channels) uint8 stack."""
    channels = coeffs.shape[0]
    blocks = coeffs.reshape(-1, *coeffs.shape[2:]) * QUANT_TABLE
    spatial = DCT8.T @ blocks @ DCT8
    planes = _from_blocks(spatial, channels * count, height, width) + 128.0
    return to_u8(planes.reshape(channels, count, height, width).transpose(1, 2, 3, 0))


def _public_mask(coeffs: np.ndarray, threshold: int) -> np.ndarray:
    """True for each coefficient that stays public.

    Every DC goes to the secret; an AC goes to the secret iff its magnitude
    is strictly larger than the threshold.
    """
    if not 1 <= threshold <= MAX_THRESHOLD:
        raise ValueError(f"threshold must be in [1, {MAX_THRESHOLD}], got {threshold}")
    keep = np.abs(coeffs) <= threshold
    keep[..., 0, 0] = False  # DC is always secret
    return keep


def p3_public_stack(pixels: np.ndarray, threshold: int) -> np.ndarray:
    """The public images of an (n, h, w, c) uint8 stack, without their secrets."""
    coeffs = _quantize_image(pixels)
    public = np.where(_public_mask(coeffs, threshold), coeffs, 0)
    n, height, width = pixels.shape[:3]
    return _dequantize_to_image(public, n, height, width)


def p3_encode(img: Image, threshold: int) -> P3Package:
    """Split the quantized coefficients into public and secret parts (see :func:`_public_mask`)."""
    coeffs = _quantize_image(img.pixels[None])
    keep = _public_mask(coeffs, threshold)
    public = np.where(keep, coeffs, 0)
    flat = coeffs.reshape(-1, 64)
    blocks, coefficients = np.nonzero(~keep.reshape(flat.shape))
    values = flat[blocks, coefficients]
    secret = np.empty(blocks.size, dtype=_RECORD)
    secret["block"], secret["coefficient"], secret["value"] = blocks, coefficients, values
    if not np.array_equal(secret["value"], values):  # the i16 field wrapped
        raise ValueError("a secret coefficient does not fit the stream's i16 value")
    return P3Package(
        public_image=Image.from_array(
            _dequantize_to_image(public, 1, img.height, img.width)[0]),
        public_coefficients=public,
        secret=secret,
        threshold=threshold,
    )


def serialize_secret(pkg: P3Package) -> bytes:
    """Little-endian secret stream.

    Header: magic "P3SC", version u8, width u32, height u32, channels u8,
    threshold u16. Records: block id u32, coefficient id u8, value i16.
    """
    img = pkg.public_image
    return _HEADER.pack(SECRET_MAGIC, SECRET_VERSION, img.width, img.height,
                        img.channels, pkg.threshold) + pkg.secret.tobytes()


def secret_proportion(pkg: P3Package) -> float:
    """Secret bytes over total coefficient-stream bytes.

    The secret stream is :func:`serialize_secret`'s, counted without building
    it. The public stream is costed like it: one record per nonzero retained
    coefficient.
    """
    secret_bytes = _HEADER.size + _RECORD.itemsize * len(pkg.secret)
    public_bytes = _RECORD.itemsize * int(np.count_nonzero(pkg.public_coefficients))
    return secret_bytes / (secret_bytes + public_bytes)
