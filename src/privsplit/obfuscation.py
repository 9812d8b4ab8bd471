"""Classic obfuscation transforms: grid pixelation and Gaussian blurring.

Each transform works on a stack of images: a uint8 array of shape
(n, height, width, channels), transformed image by image with no mixing
between images. A single :class:`Image` is a stack of one, so
:func:`pixelate` and :func:`gaussian_blur` run the same code as
:func:`pixelate_stack` and :func:`gaussian_blur_stack`.
"""

from __future__ import annotations

import numpy as np

from .image import Image, round_half_away, to_u8


def _on_image(img: Image, stack_fn, *args) -> Image:
    return Image(img.width, img.height, img.channels, stack_fn(img.pixels[None], *args)[0])


def pixelate_stack(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Replace each factor x factor grid by its per-channel rounded mean.

    Edge grids smaller than the factor are averaged over their actual
    extent, so the dimensions never change. A grid sum adds at most
    factor² integers below 256, which float64 holds exactly, so the mean
    does not depend on the order of the sum.
    """
    if factor < 1:
        raise ValueError(f"pixelation factor must be >= 1, got {factor}")
    if factor == 1:
        return pixels.copy()
    height, width = pixels.shape[1:3]
    ys = np.arange(0, height, factor)
    xs = np.arange(0, width, factor)
    sums = np.add.reduceat(np.add.reduceat(pixels.astype(np.float64), ys, axis=1), xs, axis=2)
    rows = np.diff(ys, append=height)
    cols = np.diff(xs, append=width)
    means = round_half_away(sums / np.outer(rows, cols)[None, :, :, None])
    return np.repeat(np.repeat(means, rows, axis=1), cols, axis=2).astype(np.uint8)


def pixelate(img: Image, factor: int) -> Image:
    """:func:`pixelate_stack` on one image."""
    return _on_image(img, pixelate_stack, factor)


def gaussian_kernel(radius: int) -> np.ndarray:
    """Normalized 1-D kernel with sigma radius/2 and half-width radius."""
    if radius == 0:
        return np.ones(1)
    sigma = radius / 2.0
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (offsets / sigma) ** 2)
    return k / k.sum()


def gaussian_blur_stack(pixels: np.ndarray, radius: int) -> np.ndarray:
    """Separable Gaussian convolution with reflect padding, clamped to 8 bits.

    Each pass adds the taps in kernel order, each tap a product of weight
    and pixel, so every image comes out as if blurred on its own.
    """
    if radius < 0:
        raise ValueError(f"blur radius must be >= 0, got {radius}")
    if radius == 0:
        return pixels.copy()
    height, width = pixels.shape[1:3]
    if radius >= min(width, height):
        raise ValueError(
            f"blur radius {radius} needs image dimensions larger than the radius, "
            f"got {width}x{height}")
    kernel = gaussian_kernel(radius)
    data = pixels.astype(np.float64)
    tap = np.empty_like(data)
    padded = np.pad(data, ((0, 0), (radius, radius), (0, 0), (0, 0)), mode="reflect")
    rows = np.zeros_like(data)
    for j, w in enumerate(kernel):
        rows += np.multiply(w, padded[:, j:j + height], out=tap)
    padded = np.pad(rows, ((0, 0), (0, 0), (radius, radius), (0, 0)), mode="reflect")
    cols = np.zeros_like(data)
    for j, w in enumerate(kernel):
        cols += np.multiply(w, padded[:, :, j:j + width], out=tap)
    return to_u8(cols)


def gaussian_blur(img: Image, radius: int) -> Image:
    """:func:`gaussian_blur_stack` on one image."""
    return _on_image(img, gaussian_blur_stack, radius)
