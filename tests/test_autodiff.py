import warnings

import numpy as np
import pytest

from privsplit.autodiff import (
    Graph,
    NonFiniteError,
    Tensor,
    activation,
    add,
    backward,
    clamp,
    concat,
    dense,
    exp,
    grad_check,
    log,
    matmul,
    mul,
    neg,
    relu,
    sigmoid,
    slice_cols,
    softmax_cross_entropy,
    square,
    sub,
    tanh,
    tmean,
    tsum,
)


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

    def test_nonfinite_rejected(self):
        bad = Tensor([[np.nan, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            matmul(bad, Tensor(np.zeros((2, 1))))


# (rows, inner, cols) of x @ w: K = 1, N = 1, M = 1, then every layer shape of
# the toy and image models (width 1024, perceptual on) and the attack classifier
PRODUCT_SHAPES = [(5, 1, 4), (5, 3, 1), (1, 7, 3), (64, 2, 128), (64, 128, 128),
                  (64, 128, 2), (64, 128, 1), (64, 1024, 128), (64, 128, 1024),
                  (64, 1024, 64), (64, 64, 64), (64, 128, 10)]


def product_op(kind, x, w):
    if kind == "matmul":
        return matmul(x, w)
    return dense(x, w, Tensor(np.zeros(w.shape[1])), None if kind == "dense" else "tanh")


class TestNonFiniteOperands:
    """The product-side check raises exactly what an operand scan raised."""

    @pytest.mark.parametrize("kind", ["matmul", "dense", "dense-tanh"])
    @pytest.mark.parametrize("shape", PRODUCT_SHAPES)
    def test_every_placement_raises_the_op_message(self, shape, kind):
        m, k, n = shape
        message = "matmul" if kind == "matmul" else "dense"
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
                    assert str(info.value) == f"{message}: non-finite input values"

    @pytest.mark.parametrize("kind", ["matmul", "dense", "dense-tanh"])
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


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_tanh_odd(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_relu_definition(self):
        out = relu(Tensor([-3.5, 2.25]))
        assert np.array_equal(out.data, [0.0, 2.25])

    def test_sigmoid_strictly_inside_unit_interval(self):
        out = sigmoid(Tensor([-1e6, -50.0, 0.0, 50.0, 1e6]))
        assert np.all(out.data > 0.0)
        assert np.all(out.data < 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation(Tensor([0.0]), "softplus")

    def test_dispatch_matches_direct(self):
        x = Tensor([[-1.0, 0.5, 2.0]])
        assert np.array_equal(activation(x, "tanh").data, tanh(x).data)


class TestDense:
    @pytest.mark.parametrize("act", ["tanh", "relu", "sigmoid", None])
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
            return h if act is None else activation(h, act)

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
            dense(Tensor([[1e308, 1e308]]), w, Tensor(np.zeros(1)), "relu")

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
        backward(tmean(square(x - y)))
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
            return tmean(square(out))

        assert grad_check(loss, [w1, b1, w2, b2], eps=1e-5) < 1e-4

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3)))
        w = rand_tensor(rng, (3, 3))

        def run():
            backward(tmean(square(tanh(matmul(x, w)))))
            return w.grad.copy()

        assert np.array_equal(run(), run())

    def test_grad_map_keys_are_requires_grad_leaves(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3)))
        w = rand_tensor(rng, (3, 2))
        grads = backward(tmean(matmul(x, w)))
        assert set(grads) == {w}
        assert grads[w].shape == (3, 2)

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
            return tsum(square(w))

        assert grad_check(loss, [w], eps=1e-5) < 1e-7

    def test_constant_function(self):
        w = Tensor(np.ones(3), requires_grad=True)

        def loss():
            return tsum(Tensor(np.zeros(1)) + Tensor(np.ones(1)))

        assert grad_check(loss, [w], eps=1e-5) == 0.0

    def test_eps_must_be_positive(self):
        w = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: tsum(w), [w], eps=0.0)


class TestOpGradientsProperty:
    """Every registered op matches central differences on random small shapes."""

    def test_random_shapes(self):
        rng = np.random.default_rng(2024)
        unary = {
            "tanh": tanh,
            "relu": relu,
            "sigmoid": sigmoid,
            "square": square,
            "clamp": lambda t: clamp(t, -0.5, 0.5),
        }
        for trial in range(20):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 64 // rows + 1))
            vals = rng.standard_normal((rows, cols))
            # keep clear of the relu/clamp kinks so central differences are valid
            for kink in (0.0, -0.5, 0.5):
                near = np.abs(vals - kink) < 1e-2
                vals[near] = kink + 0.05 * np.sign(vals[near] - kink + 1e-12)
            x = Tensor(vals, requires_grad=True)
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
                joined = concat([a * b, a - b], axis=1)
                left = slice_cols(joined, 0, 4)
                return tmean(square(matmul(left, w) + bias))

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
    "neg": lambda leaf: neg(leaf(3, 4)),
    "matmul": lambda leaf: matmul(leaf(3, 4), leaf(4, 2)),
    "tanh": lambda leaf: tanh(leaf(3, 4)),
    "relu": lambda leaf: relu(leaf(3, 4)),
    "sigmoid": lambda leaf: sigmoid(leaf(3, 4)),
    "activation": lambda leaf: activation(leaf(3, 4), "relu"),
    "dense": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2)),
    "dense-tanh": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2), "tanh"),
    "dense-relu": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2), "relu"),
    "dense-sigmoid": lambda leaf: dense(leaf(3, 4), leaf(4, 2), leaf(2), "sigmoid"),
    "exp": lambda leaf: exp(leaf(3, 4)),
    "log": lambda leaf: log(sigmoid(leaf(3, 4))),
    "square": lambda leaf: square(leaf(3, 4)),
    "clamp": lambda leaf: clamp(leaf(3, 4), -0.5, 0.5),
    "tsum": lambda leaf: tsum(leaf(3, 4)),
    "tmean": lambda leaf: tmean(leaf(3, 4)),
    "concat-cols": lambda leaf: concat([leaf(3, 2), leaf(3, 4)], axis=1),
    "concat-rows": lambda leaf: concat([leaf(2, 4), leaf(3, 4)], axis=0),
    "slice_cols": lambda leaf: slice_cols(leaf(3, 4), 1, 3),
    "softmax_cross_entropy": lambda leaf: softmax_cross_entropy(leaf(5, 3), [0, 2, 1, 1, 0]),
    # scalar operands: NumPy before 2.0 widened a 0-d float32 against a Python number
    "square-0d": lambda leaf: square(leaf()),
    "tmean-0d": lambda leaf: tmean(leaf()),
    "sigmoid-0d": lambda leaf: sigmoid(leaf()),
    "relu-0d": lambda leaf: relu(leaf()),
    "clamp-0d": lambda leaf: clamp(leaf(), -0.5, 0.5),
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
        grads = backward(loss)
        assert out.data.dtype == dtype
        assert loss.grad.dtype == dtype
        assert all(t.grad.dtype == dtype for t in leaves)
        assert set(grads) == set(leaves)

    @pytest.mark.parametrize("data", [1.5, 3, [1, 2], np.arange(3, dtype=np.int32),
                                      np.ones(2, dtype=np.float16), np.ones(2, dtype=bool)])
    def test_any_other_input_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    def test_float32_and_float64_arrays_are_kept(self):
        for dtype in (np.float32, np.float64):
            arr = np.ones((2, 3), dtype=dtype)
            assert Tensor(arr).data is arr
