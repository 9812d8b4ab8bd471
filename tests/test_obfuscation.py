import numpy as np
import pytest

from privsplit.image import Image, round_half_away, to_u8
from privsplit.obfuscation import (
    gaussian_blur,
    gaussian_blur_stack,
    gaussian_kernel,
    pixelate,
    pixelate_stack,
)


def ramp_image(w=4, h=4):
    vals = np.arange(w * h, dtype=np.uint8).reshape(h, w, 1) * 16
    return Image(width=w, height=h, channels=1, pixels=vals)


class TestPixelate:
    def test_factor_one_is_identity(self):
        img = ramp_image()
        out = pixelate(img, 1)
        assert np.array_equal(out.pixels, img.pixels)

    def test_two_by_two_mean(self):
        img = Image.from_array(np.array([[0, 2], [4, 6]], dtype=np.uint8))
        out = pixelate(img, 2)
        assert np.all(out.pixels == 3)

    def test_matches_brute_force_grid_average(self):
        rng = np.random.default_rng(0)
        img = Image.from_array(rng.integers(0, 256, size=(4, 4, 1), dtype=np.uint8))
        out = pixelate(img, 2)
        src = img.pixels[:, :, 0].astype(float)
        for y in range(0, 4, 2):
            for x in range(0, 4, 2):
                mean = round_half_away(np.array(src[y:y + 2, x:x + 2].mean()))
                assert np.all(out.pixels[y:y + 2, x:x + 2, 0] == mean)

    def test_edge_grids_use_actual_extent(self):
        img = Image.from_array(np.array([[10, 10, 250], [10, 10, 250]], dtype=np.uint8))
        out = pixelate(img, 2)
        assert np.all(out.pixels[:, :2, 0] == 10)
        assert np.all(out.pixels[:, 2, 0] == 250)

    def test_idempotent_when_factor_divides(self):
        rng = np.random.default_rng(1)
        img = Image.from_array(rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        once = pixelate(img, 4)
        twice = pixelate(once, 4)
        assert np.array_equal(once.pixels, twice.pixels)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            pixelate(ramp_image(), 0)

    def test_dimensions_unchanged(self):
        img = Image.from_array(np.zeros((5, 7, 3), dtype=np.uint8))
        out = pixelate(img, 3)
        assert (out.height, out.width, out.channels) == (5, 7, 3)


class TestGaussianBlur:
    def test_radius_zero_is_identity(self):
        img = ramp_image()
        assert np.array_equal(gaussian_blur(img, 0).pixels, img.pixels)

    def test_constant_image_unchanged(self):
        img = Image.from_array(np.full((20, 20, 1), 137, dtype=np.uint8))
        for radius in (1, 4, 16):
            assert np.array_equal(gaussian_blur(img, radius).pixels, img.pixels)

    def test_kernel_is_normalized(self):
        for radius in (1, 2, 8, 16):
            assert gaussian_kernel(radius).sum() == pytest.approx(1.0, abs=1e-12)

    def test_impulse_response_matches_outer_kernel(self):
        radius = 3
        size = 2 * radius + 9
        arr = np.zeros((size, size, 1))
        center = size // 2
        arr[center, center, 0] = 200
        out = gaussian_blur(Image.from_array(arr), radius)
        k = gaussian_kernel(radius)
        expected = to_u8(200 * np.outer(k, k))
        window = out.pixels[center - radius:center + radius + 1,
                            center - radius:center + radius + 1, 0]
        assert np.array_equal(window, expected)
        # everything beyond the kernel support is untouched zeros
        mask = np.ones((size, size), dtype=bool)
        mask[center - radius:center + radius + 1, center - radius:center + radius + 1] = False
        assert np.all(out.pixels[:, :, 0][mask] == 0)

    def test_mean_preserved_on_interior_dominated_image(self):
        rng = np.random.default_rng(3)
        img = Image.from_array(rng.integers(0, 256, size=(48, 48, 1), dtype=np.uint8))
        out = gaussian_blur(img, 4)
        assert abs(float(out.pixels.mean()) - float(img.pixels.mean())) <= 1.0

    def test_radius_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            gaussian_blur(ramp_image(4, 4), 16)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            gaussian_blur(ramp_image(), -1)


def random_stack(rng, count, height, width, channels):
    return rng.integers(0, 256, size=(count, height, width, channels), dtype=np.uint8)


class TestStacks:
    """A stack transforms to what each of its images gives on its own."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("height, width", [(1, 1), (7, 13), (20, 9), (32, 32), (41, 23)])
    def test_pixelate_stack_equals_single_images(self, height, width, channels):
        rng = np.random.default_rng(height * 41 + width + channels)
        stack = random_stack(rng, 5, height, width, channels)
        for factor in (1, 2, 3, 7, 20, 45):
            singles = [pixelate(Image.from_array(a), factor).pixels for a in stack]
            assert np.array_equal(pixelate_stack(stack, factor), np.stack(singles))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("height, width", [(2, 2), (7, 13), (20, 9), (32, 32), (41, 23)])
    def test_gaussian_blur_stack_equals_single_images(self, height, width, channels):
        rng = np.random.default_rng(height * 43 + width + channels)
        stack = random_stack(rng, 5, height, width, channels)
        side = min(height, width)
        for radius in sorted({0, 1, 3, 16, side - 1}):
            if radius >= side:
                continue
            singles = [gaussian_blur(Image.from_array(a), radius).pixels for a in stack]
            assert np.array_equal(gaussian_blur_stack(stack, radius), np.stack(singles))

    def test_stack_of_one_keeps_its_shape_and_input(self):
        stack = random_stack(np.random.default_rng(0), 1, 9, 11, 3)
        before = stack.copy()
        for out in (pixelate_stack(stack, 4), gaussian_blur_stack(stack, 2)):
            assert out.shape == stack.shape and out.dtype == np.uint8
        assert np.array_equal(stack, before)

    def test_stack_rejects_what_an_image_rejects(self):
        stack = random_stack(np.random.default_rng(1), 3, 4, 4, 1)
        with pytest.raises(ValueError, match="factor"):
            pixelate_stack(stack, 0)
        with pytest.raises(ValueError, match="radius 4 needs .* got 4x4"):
            gaussian_blur_stack(stack, 4)
