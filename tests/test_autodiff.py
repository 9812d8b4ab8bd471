import warnings

import numpy as np
import pytest

from privsplit.autodiff import (
    Graph,
    NonFiniteError,
    Tensor,
    _accumulate,
    _elementwise,
    _op,
    add,
    backward,
    bce,
    concat,
    dense,
    grad_check,
    mse,
    mul,
    sigmoid,
    slice_cols,
    softmax_cross_entropy,
    sub,
    tmean,
    tsum,
)


# The separate ops that `dense` fuses: the product, then `add` and an
# activation. `dense` is checked against this chain; the models use only `dense`.


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def backprop(out_grad):
        if a.requires_grad:
            _accumulate(a, out_grad @ b.data.T, owned=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ out_grad, owned=True)

    return _op(out_data, (a, b), backprop)


def tanh(a: Tensor) -> Tensor:
    return _elementwise(a, "tanh")


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        assert np.array_equal(out.data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 4\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# (rows, inner, cols) of x @ w: K = 1, N = 1, M = 1, then every layer shape of
# the toy and image models (width 1024, perceptual on) and the attack classifier
PRODUCT_SHAPES = [(5, 1, 4), (5, 3, 1), (1, 7, 3), (64, 2, 128), (64, 128, 128),
                  (64, 128, 2), (64, 128, 1), (64, 1024, 128), (64, 128, 1024),
                  (64, 1024, 64), (64, 64, 64), (64, 128, 10)]


def product_op(kind, x, w):
    return dense(x, w, Tensor(np.zeros(w.shape[1])), None if kind == "dense" else "tanh")


class TestNonFiniteOperands:
    """The pre-activation check raises exactly what an operand scan raised."""

    @pytest.mark.parametrize("kind", ["dense", "dense-tanh"])
    @pytest.mark.parametrize("shape", PRODUCT_SHAPES)
    def test_every_placement_raises_the_op_message(self, shape, kind):
        m, k, n = shape
        rng = np.random.default_rng(m * 10007 + k * 101 + n)
        for value in (np.nan, np.inf, -np.inf):
            for side in ("x", "w"):
                for zero_partner in (False, True):
                    x = rng.standard_normal((m, k))
                    w = rng.standard_normal((k, n))
                    i, j, col = rng.integers(m), rng.integers(k), rng.integers(n)
                    if side == "x":
                        x[i, j] = value
                        if zero_partner:
                            w[j, :] = 0.0  # every product term of x[i, j] is 0 * value
                    else:
                        w[j, col] = value
                        if zero_partner:
                            x[:, j] = 0.0
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(NonFiniteError) as info:
                            product_op(kind, Tensor(x), Tensor(w))
                    assert str(info.value) == "dense: non-finite input values"

    @pytest.mark.parametrize("kind", ["dense", "dense-tanh"])
    @pytest.mark.parametrize("x, w", [
        (np.zeros((0, 4)), np.full((4, 2), np.nan)),
        (np.full((3, 4), np.inf), np.zeros((4, 0))),
    ], ids=["no-rows", "no-cols"])
    def test_empty_product_checks_its_operands(self, kind, x, w):
        with pytest.raises(NonFiniteError, match="non-finite input values"):
            product_op(kind, Tensor(x), Tensor(w))

    def test_overflow_from_finite_operands_is_not_an_input_error(self):
        x, w = Tensor(np.full((2, 3), 1e200)), Tensor(np.full((3, 2), 1e200))
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(matmul(x, w).data))
            with pytest.raises(NonFiniteError, match="pre-activation"):
                product_op("dense-tanh", x, w)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("act", ["tanh", "sigmoid", None])
    def test_a_non_finite_bias_is_a_pre_activation_error_only_before_an_activation(
            self, act, value):
        rng = np.random.default_rng(12)
        x, w = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((3, 2)))
        b = Tensor([0.5, value])
        if act is None:
            out = dense(x, w, b)
            assert np.array_equal(out.data, x.data @ w.data + b.data, equal_nan=True)
        else:
            with pytest.raises(NonFiniteError) as info:
                dense(x, w, b, act)
            assert str(info.value) == f"dense[{act}]: non-finite pre-activation values"

    @pytest.mark.parametrize("act", ["tanh", "sigmoid", None])
    def test_a_non_finite_input_beside_a_non_zero_bias_is_an_input_error(self, act):
        rng = np.random.default_rng(13)
        x, w = rng.standard_normal((4, 3)), Tensor(rng.standard_normal((3, 2)))
        x[1, 2] = np.nan
        with pytest.raises(NonFiniteError) as info:
            dense(Tensor(x), w, Tensor([0.5, -2.0]), act)
        assert str(info.value) == "dense: non-finite input values"


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_tanh_odd(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_sigmoid_strictly_inside_unit_interval(self):
        out = sigmoid(Tensor([-1e6, -50.0, 0.0, 50.0, 1e6]))
        assert np.all(out.data > 0.0)
        assert np.all(out.data < 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            dense(Tensor([[0.0]]), Tensor([[1.0]]), Tensor([0.0]), "softplus")

    def test_relu_is_not_an_activation(self):
        with pytest.raises(ValueError, match="unknown activation kind 'relu'"):
            dense(Tensor([[0.0]]), Tensor([[1.0]]), Tensor([0.0]), "relu")

    def test_dispatch_matches_direct(self):
        # dense picks its activation by name; through an identity layer it is the op itself
        x = Tensor([[-1.0, 0.5, 2.0]])
        eye, zero = Tensor(np.eye(3)), Tensor(np.zeros(3))
        for kind in ("tanh", "sigmoid"):
            assert np.array_equal(dense(x, eye, zero, kind).data, _elementwise(x, kind).data)


class TestDense:
    @pytest.mark.parametrize("act", ["tanh", "sigmoid", None])
    def test_equals_matmul_add_activation_chain_bitwise(self, act):
        rng = np.random.default_rng(11)
        x0, w0, b0 = (rng.standard_normal(s) for s in ((16, 5), (5, 7), (7,)))
        weights = Tensor(rng.standard_normal((16, 7)))

        def run(layer):
            x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (x0, w0, b0))
            out = layer(x, w, b)
            backward(tsum(out * weights))
            return [out.data, x.grad, w.grad, b.grad]

        def chain(x, w, b):
            h = add(matmul(x, w), b)
            return h if act is None else _elementwise(h, act)

        fused = run(lambda x, w, b: dense(x, w, b, act))
        for got, want in zip(fused, run(chain)):
            assert np.array_equal(got, want)

    def test_one_node_per_layer(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        assert len(Graph(tsum(dense(x, w, b, "tanh")))) == 5  # x, w, b, dense, sum

    def test_non_finite_input_is_typed(self):
        w = Tensor(np.ones((2, 2)))
        with pytest.raises(NonFiniteError, match="dense"):
            dense(Tensor([[np.nan, 0.0]]), w, Tensor(np.zeros(2)), "tanh")

    def test_overflowing_pre_activation_is_typed(self):
        w = Tensor(np.full((2, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="pre-activation"):
            dense(Tensor([[1e308, 1e308]]), w, Tensor(np.zeros(1)), "tanh")

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match="bias"):
            dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.zeros(3)))


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_mse_at_minimum_grad_is_zero(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((4, 3))
        x = Tensor(vals.copy(), requires_grad=True)
        y = Tensor(vals.copy())
        backward(mse(x, y))
        assert np.array_equal(x.grad, np.zeros((4, 3)))

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + x)

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 3)))
        w1 = rand_tensor(rng, (3, 4))
        b1 = rand_tensor(rng, (4,))
        w2 = rand_tensor(rng, (4, 2))
        b2 = rand_tensor(rng, (2,))

        def loss():
            h = tanh(matmul(x, w1) + b1)
            out = matmul(h, w2) + b2
            return tmean(out * out)

        assert grad_check(loss, [w1, b1, w2, b2], eps=1e-5) < 1e-4

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3)))
        w = rand_tensor(rng, (3, 3))

        def run():
            h = tanh(matmul(x, w))
            backward(tmean(h * h))
            return w.grad.copy()

        assert np.array_equal(run(), run())

    def test_only_requires_grad_leaves_get_a_grad(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3)))
        w = rand_tensor(rng, (3, 2))
        assert backward(tmean(matmul(x, w))) is None
        assert x.grad is None
        assert w.grad.shape == (3, 2)

    def test_frozen_leaf_gets_no_grad(self):
        rng = np.random.default_rng(6)
        frozen = Tensor(rng.standard_normal((3, 2)), requires_grad=False)
        w = rand_tensor(rng, (2, 2))
        backward(tmean(matmul(matmul(Tensor(np.ones((1, 3))), frozen), w)))
        assert frozen.grad is None

    def test_reused_node_accumulates_once_per_use(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # dy/dx = 2x = 4
        backward(tsum(y))
        assert x.grad[0] == 4.0


class TestGradientOwnership:
    def test_interior_grads_are_freed_root_and_leaves_keep_theirs(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 3)))
        w, b = rand_tensor(rng, (3, 2)), rand_tensor(rng, (2,))
        err = dense(x, w, b, "tanh") - Tensor(np.ones((4, 2)))
        loss = tmean(err * err)
        graph = Graph(loss)
        backward(loss)
        interior = [n for n in graph.nodes if n._parents and n is not loss]
        assert len(interior) == 3
        assert all(n.grad is None for n in interior)
        assert loss.grad is not None
        assert w.grad is not None and b.grad is not None

    @pytest.mark.parametrize("layer", [
        lambda x, w, b: dense(x, w, b, "tanh"),
        lambda x, w, b: tanh(add(matmul(x, w), b)),
    ], ids=["dense", "chain"])
    def test_grad_buffer_receives_the_gradient_bitwise(self, layer):
        rng = np.random.default_rng(9)
        x0, w0, b0 = (rng.standard_normal(s) for s in ((5, 4), (4, 4), (4,)))

        def run(buffered):
            w, b = Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
            if buffered:  # NaN, so a first gradient that added rather than stored would show
                w.grad_buffer, b.grad_buffer = np.full_like(w0, np.nan), np.full_like(b0, np.nan)
            # two uses of each: the second gradient adds in place
            backward(tsum(layer(layer(Tensor(x0), w, b), w, b)))
            return w, b

        for fresh, owned in zip(run(False), run(True)):
            assert owned.grad is owned.grad_buffer
            assert np.array_equal(owned.grad, fresh.grad)


def mse_reference(a0, b0):
    """Loss and gradients (of a, of b) of the sub -> square -> tmean chain,
    op by op as autodiff ran it before `mse` replaced it."""
    d = a0 - b0
    loss = np.asarray((d * d).mean())
    spread = np.broadcast_to(np.ones_like(loss) / loss.dtype.type(d.size), d.shape).copy()
    grad = d.dtype.type(2.0) * d * spread
    return loss, grad, -grad


class TestMse:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trained", ["a", "b", "both"])
    def test_equals_the_difference_square_mean_chain_bitwise(self, dtype, trained):
        rng = np.random.default_rng(21)
        a0, b0 = (rng.standard_normal((6, 5)).astype(dtype) for _ in range(2))
        a = Tensor(a0.copy(), requires_grad=trained != "b")
        b = Tensor(b0.copy(), requires_grad=trained != "a")
        loss = mse(a, b)
        backward(loss)
        ref_loss, ref_a, ref_b = mse_reference(a0, b0)
        assert loss.data.dtype == dtype and np.array_equal(loss.data, ref_loss)
        for t, ref in ((a, ref_a), (b, ref_b)):
            if t.requires_grad:
                assert t.grad.dtype == dtype and np.array_equal(t.grad, ref)
            else:
                assert t.grad is None

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(22)
        a, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 3))
        assert grad_check(lambda: mse(tanh(a), b), [a, b], eps=1e-5) < 1e-4

    def test_is_one_graph_node(self):
        a, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.zeros((2, 3)))
        assert len(Graph(mse(a, b))) == 3  # a, b and the output

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match=r"mse shape mismatch: \(2, 3\) vs \(3, 2\)"):
            mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestBce:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("target", [0, 1])
    def test_equals_the_numpy_formulas_bitwise(self, dtype, target):
        rng = np.random.default_rng(23)
        p0 = sigmoid(Tensor(rng.standard_normal((6, 5)).astype(dtype) * 4)).data
        g = rng.standard_normal((6, 5)).astype(dtype)
        p = Tensor(p0.copy(), requires_grad=True)
        out = bce(p, target)
        backward(tsum(out * Tensor(g)))
        q = p0 if target == 1 else dtype(1.0) - p0
        assert out.data.dtype == p.grad.dtype == dtype
        assert np.array_equal(out.data, -np.log(q))
        assert np.array_equal(p.grad, -(g / p0) if target == 1 else g / (dtype(1.0) - p0))

    def test_is_one_graph_node(self):
        p = Tensor(np.full((2, 3), 0.5), requires_grad=True)
        for target in (0, 1):
            assert len(Graph(bce(p, target))) == 2  # p and the output


class TestGraph:
    def test_topological_order(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * x
        z = y + x
        g = Graph(z)
        order = {id(n): i for i, n in enumerate(g.nodes)}
        assert order[id(x)] < order[id(y)] < order[id(z)]

    def test_each_node_once(self):
        x = Tensor([1.0], requires_grad=True)
        y = x + x
        z = y * y
        g = Graph(z)
        assert len({id(n) for n in g.nodes}) == len(g.nodes)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(11)
        w = rand_tensor(rng, (4,))

        def loss():
            return tsum(w * w)

        assert grad_check(loss, [w], eps=1e-5) < 1e-7

    def test_constant_function(self):
        w = Tensor(np.ones(3), requires_grad=True)

        def loss():
            return tsum(Tensor(np.zeros(1)) + Tensor(np.ones(1)))

        assert grad_check(loss, [w], eps=1e-5) == 0.0

    def test_a_stale_grad_off_the_loss_path_counts_as_zero(self):
        u = Tensor(np.ones(2), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        w.grad = np.full(3, 5.0)  # left by an earlier pass; this loss never reaches w
        assert grad_check(lambda: tsum(u * u), [u, w], eps=1e-5) < 1e-7

    def test_eps_must_be_positive(self):
        w = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: tsum(w), [w], eps=0.0)

    def test_rounding_on_a_near_zero_gradient_passes(self):
        # f is ~3e3, so one rounding step of f (~5e-13) over 2 eps swamps the
        # 3e-8 gradient of v; that entry reads near 1 without the floor
        u = Tensor(np.full(3, 1.0), requires_grad=True)
        v = Tensor(np.full(2, 0.5), requires_grad=True)

        def loss():
            return tsum(u * u) * Tensor(1e3) + tsum(v * Tensor(3e-8))

        assert grad_check(loss, [u, v], eps=1e-5) < 1e-4


def decades_problem():
    """A loss, its parameters and their true gradients, spanning seven decades."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((5, 7)) * 10.0 ** -np.arange(7))
    w = rand_tensor(rng, (7, 3))
    b = rand_tensor(rng, (3,))

    def loss():
        h = tanh(matmul(x, w) + b)
        return tmean(h * h)

    backward(loss())
    return loss, [w, b], [w.grad.copy(), b.grad.copy()]


def analytic_from(wrong, right):
    """A loss whose first call, grad_check's analytic pass, runs `wrong`;
    every later call, the central differences, runs `right`."""
    calls = []

    def f():
        calls.append(None)
        return wrong() if len(calls) == 1 else right()

    return f


def with_analytic_error(f, param, index, delta):
    """`f` whose analytic derivative by `param.flat[index]` is off by `delta`."""
    offset = np.zeros_like(param.data)
    offset.flat[index] = delta
    return analytic_from(lambda: f() + tsum(param * Tensor(offset)), f)


class TestGradCheckFindsWrongGradients:
    def test_one_percent_error_on_a_mid_size_entry_reads_5e_3(self):
        loss, params, grads = decades_problem()
        w, g = params[0], grads[0]
        top = max(np.abs(a).max() for a in grads)
        mid = int(np.argmin(np.abs(np.abs(g.reshape(-1)) - 1e-2 * top)))
        err = grad_check(with_analytic_error(loss, w, mid, 0.01 * g.flat[mid]), params)
        assert err == pytest.approx(0.01 / 2.01, rel=1e-3)  # 5.0e-3

    def test_one_percent_error_fails_on_every_entry_down_to_1e_5_of_the_largest(self):
        loss, params, grads = decades_problem()
        top = max(np.abs(a).max() for a in grads)
        checked = 0
        for p, g in zip(params, grads):
            for i in np.flatnonzero(np.abs(g.reshape(-1)) >= 1e-5 * top):
                for sign in (1.0, -1.0):
                    f = with_analytic_error(loss, p, i, sign * 0.01 * g.flat[i])
                    assert grad_check(f, params) >= 1e-4, (p.shape, i, g.flat[i] / top)
                checked += 1
        # the problem reaches below the floor, so the small entries are covered
        assert checked >= 15 and np.abs(grads[0]).min() < 1e-5 * top

    def test_dropped_loss_term_fails(self):
        loss, params, _ = decades_problem()
        w = params[0]
        penalized = analytic_from(loss, lambda: loss() + tsum(w * w) * Tensor(1e-2))
        assert grad_check(penalized, params) >= 1e-4


class TestOpGradientsProperty:
    """Every registered op matches central differences on random small shapes."""

    def test_random_shapes(self):
        rng = np.random.default_rng(2024)
        unary = {
            "tanh": tanh,
            "sigmoid": sigmoid,
            "self-mul": lambda t: t * t,
            "bce-0∘sigmoid": lambda t: bce(sigmoid(t), 0),
            "bce-1∘sigmoid": lambda t: bce(sigmoid(t), 1),
        }
        for trial in range(20):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 64 // rows + 1))
            x = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
            weights = Tensor(rng.standard_normal((rows, cols)))
            for name, op in unary.items():
                err = grad_check(lambda: tsum(op(x) * weights), [x], eps=1e-5)
                assert err < 1e-4, f"{name} failed at trial {trial}: {err}"

    def test_binary_and_structural_ops(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            a = rand_tensor(rng, (3, 4))
            b = rand_tensor(rng, (3, 4))
            w = rand_tensor(rng, (4, 2))
            bias = rand_tensor(rng, (2,))

            def loss():
                joined = concat([a * b, a - b])
                left = slice_cols(joined, 0, 4)
                out = matmul(left, w) + bias
                return tmean(out * out)

            assert grad_check(loss, [a, b, w, bias], eps=1e-5) < 1e-4

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(17)
        logits = rand_tensor(rng, (6, 4))
        labels = rng.integers(0, 4, size=6)

        def loss():
            return softmax_cross_entropy(logits, labels)

        assert grad_check(loss, [logits], eps=1e-6) < 1e-4


class TestTensorBasics:
    def test_values_flat_row_major(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(t.data.reshape(-1), [1.0, 2.0, 3.0, 4.0])

    def test_grad_matches_length_when_present(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        backward(tsum(t * t))
        assert t.grad.size == t.data.size

    def test_more_than_two_dims_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2)))


# Each case builds an op's output from float leaves made by `leaf(*shape)`;
# the leaves are the op's differentiable inputs.
DTYPE_CASES = {
    "add": lambda leaf: add(leaf(3, 4), leaf(4)),
    "sub": lambda leaf: sub(leaf(3, 4), leaf(4)),
    "mul": lambda leaf: mul(leaf(3, 4), leaf(3, 4)),
    "matmul": lambda leaf: matmul(leaf(3, 4), leaf(4, 2)),
    "tanh": lambda leaf: tanh(leaf(3, 4)),
    "sigmoid": lambda leaf: sigmoid(leaf(3, 4)),
    "dense": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2)),
    "dense-tanh": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2), "tanh"),
    "dense-sigmoid": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2), "sigmoid"),
    "bce-0": lambda leaf: bce(sigmoid(leaf(3, 4)), 0),
    "bce-1": lambda leaf: bce(sigmoid(leaf(3, 4)), 1),
    "mse": lambda leaf: mse(leaf(3, 4), leaf(3, 4)),
    "tsum": lambda leaf: tsum(leaf(3, 4)),
    "tmean": lambda leaf: tmean(leaf(3, 4)),
    "concat-cols": lambda leaf: concat([leaf(3, 2), leaf(3, 4)]),
    "slice_cols": lambda leaf: slice_cols(leaf(3, 4), 1, 3),
    "softmax_cross_entropy": lambda leaf: softmax_cross_entropy(leaf(5, 3), [0, 2, 1, 1, 0]),
    # scalar operands: NumPy before 2.0 widened a 0-d float32 against a Python number
    "mse-0d": lambda leaf: mse(leaf(), leaf()),
    "tmean-0d": lambda leaf: tmean(leaf()),
    "sigmoid-0d": lambda leaf: sigmoid(leaf()),
    "scalar-chain": lambda leaf: tmean(leaf(3, 4)) * tsum(leaf(2)) - leaf(),
}


class TestDtypeFollowing:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(DTYPE_CASES))
    def test_every_op_keeps_its_dtype_forward_and_backward(self, case, dtype):
        rng = np.random.default_rng(0)
        leaves = []

        def leaf(*shape):
            leaves.append(Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True))
            return leaves[-1]

        out = DTYPE_CASES[case](leaf)
        loss = out if out.data.ndim == 0 else tsum(out)
        backward(loss)
        assert out.data.dtype == dtype
        assert loss.grad.dtype == dtype
        assert all(t.grad is not None and t.grad.dtype == dtype for t in leaves)

    @pytest.mark.parametrize("data", [1.5, 3, [1, 2], np.arange(3, dtype=np.int32),
                                      np.ones(2, dtype=np.float16), np.ones(2, dtype=bool)])
    def test_any_other_input_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    def test_float32_and_float64_arrays_are_kept(self):
        for dtype in (np.float32, np.float64):
            arr = np.ones((2, 3), dtype=dtype)
            assert Tensor(arr).data is arr
