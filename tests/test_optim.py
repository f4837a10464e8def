"""Adam: first-step analytics, warmup schedule, decay, divergence handling, chunking."""

import numpy as np
import pytest

from geoseq.model import TrainConfig
from geoseq.optim import CHUNK, Adam, NonFiniteGradientError
from geoseq.tensor import Tensor


def _param(value=1.0):
    return Tensor(np.array([value], dtype=np.float64), requires_grad=True)


def _train(**settings):
    """Adam's settings with no decay and no warmup unless a test sets them."""
    return TrainConfig(**{"weight_decay": 0.0, "warmup_steps": 0, **settings})


def test_first_step_moves_by_lr():
    p = _param(0.0)
    opt = Adam({"p": p}, _train(lr=1e-3, eps=1e-8))
    p.grad = np.array([1.0])
    opt.step()
    # bias-corrected m = g, v = g^2, so the step is lr * 1/(1 + eps)
    assert p.data[0] == pytest.approx(-1e-3 / (1 + 1e-8), rel=1e-9)


def test_zero_gradient_leaves_params_alone():
    p = _param(0.7)
    opt = Adam({"p": p}, _train(lr=1e-2))
    for _ in range(5):
        p.grad = np.array([0.0])
        opt.step()
    assert p.data[0] == 0.7


def test_warmup_halves_lr_at_half_warmup():
    warm, plain = _param(), _param()
    opt_warm = Adam({"p": warm}, _train(lr=1e-3, warmup_steps=100))
    opt_plain = Adam({"p": plain}, _train(lr=1e-3))
    opt_warm.step_count = opt_plain.step_count = 49  # the next step is number 50
    warm.grad = plain.grad = np.array([1.0])
    opt_warm.step()
    opt_plain.step()
    assert opt_warm.effective_lr() == pytest.approx(1e-3 * 0.5)
    # at half warmup the update is exactly half the unwarmed one
    assert abs(warm.data[0] - 1.0) == pytest.approx(0.5 * abs(plain.data[0] - 1.0), rel=1e-12)


def test_warmup_schedule_caps_at_base_lr():
    opt = Adam({"p": _param()}, _train(lr=2e-3, warmup_steps=10))
    for step, lr in ((5, 1e-3), (10, 2e-3), (500, 2e-3)):
        opt.step_count = step
        assert opt.effective_lr() == pytest.approx(lr)


def test_decoupled_weight_decay_shrinks_before_update():
    p = _param(2.0)
    opt = Adam({"p": p}, _train(lr=1e-2, weight_decay=0.1))
    p.grad = np.array([0.0])
    opt.step()
    # zero gradient: the only movement is the decay term lr * wd * param
    assert p.data[0] == pytest.approx(2.0 * (1 - 1e-2 * 0.1))


def test_non_finite_gradient_raises():
    p = _param()
    opt = Adam({"p": p}, _train())
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradientError, match="'p'"):
        opt.step()


def test_descends_a_quadratic():
    p = _param(3.0)
    opt = Adam({"p": p}, _train(lr=0.1))
    for _ in range(200):
        opt.zero_grad()
        p.grad = 2 * p.data  # d/dp p^2
        opt.step()
    assert abs(p.data[0]) < 1e-2


def _reference_steps(init, grads, train):
    """The whole-array update, written out: what the chunked step must equal bit for bit."""
    p, m, v = init.copy(), np.zeros_like(init), np.zeros_like(init)
    b1, b2 = train.betas
    for t, g in enumerate(grads, start=1):
        lr_t = train.lr * min(1.0, t / train.warmup_steps) if train.warmup_steps else train.lr
        if train.weight_decay:
            p -= (lr_t * train.weight_decay) * p
        m = m * b1 + (1.0 - b1) * g
        v = v * b2 + ((1.0 - b2) * g) * g
        p -= (lr_t * (m / (1.0 - b1 ** t))) / (np.sqrt(v / (1.0 - b2 ** t)) + train.eps)
    return p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_step_is_bit_identical_to_whole_array_formula(dtype, weight_decay, size):
    rng = np.random.default_rng(size)
    init = rng.normal(size=size).astype(dtype)
    grads = [rng.normal(size=size).astype(dtype) for _ in range(4)]
    train = _train(lr=1e-2, weight_decay=weight_decay, warmup_steps=2)
    p = Tensor(init.copy(), requires_grad=True)
    opt = Adam({"p": p}, train)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    assert p.data.dtype == dtype
    assert p.data.tobytes() == _reference_steps(init, grads, train).tobytes()


def test_non_finite_in_last_chunk_leaves_the_parameter_untouched():
    p = Tensor(np.ones(2 * CHUNK + 3, dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p}, _train())
    before = p.data.tobytes()
    p.grad = np.ones_like(p.data)  # every finite chunk would move
    p.grad[-1] = np.inf
    with pytest.raises(NonFiniteGradientError, match="'p'"):
        opt.step()
    assert p.data.tobytes() == before


def test_non_finite_in_a_later_parameter_moves_nothing():
    a, b = _param(1.0), _param(2.0)
    opt = Adam({"a": a, "b": b}, _train(lr=1e-3, weight_decay=1e-2))
    a.grad, b.grad = np.array([1.0]), np.array([1.0])
    opt.step()
    before = (a.data.tobytes(), opt._m["a"].tobytes(), opt._v["a"].tobytes(), opt.step_count)
    a.grad, b.grad = np.array([1.0]), np.array([np.nan])
    with pytest.raises(NonFiniteGradientError, match="'b'"):
        opt.step()
    after = (a.data.tobytes(), opt._m["a"].tobytes(), opt._v["a"].tobytes(), opt.step_count)
    assert after == before
    # the refused step left no trace: the next step is the one a clean run takes
    a.grad, b.grad = np.array([0.5]), np.array([-0.5])
    opt.step()
    twin_a, twin_b = _param(1.0), _param(2.0)
    twin = Adam({"a": twin_a, "b": twin_b}, _train(lr=1e-3, weight_decay=1e-2))
    for g_a, g_b in ((1.0, 1.0), (0.5, -0.5)):
        twin_a.grad, twin_b.grad = np.array([g_a]), np.array([g_b])
        twin.step()
    assert (a.data.tobytes(), b.data.tobytes()) == (twin_a.data.tobytes(), twin_b.data.tobytes())


def test_non_contiguous_parameter_is_updated_in_place():
    base = np.arange(12, dtype=np.float64).reshape(3, 4) + 1.0
    p = Tensor(base.T, requires_grad=True)  # a transposed view of `base`
    assert not p.data.flags.c_contiguous
    q = Tensor(base.T.copy(), requires_grad=True)
    opt_p, opt_q = Adam({"p": p}, _train(lr=0.1)), Adam({"q": q}, _train(lr=0.1))
    g = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    for _ in range(3):
        p.grad, q.grad = g.copy(), g.copy()
        opt_p.step()
        opt_q.step()
    assert np.array_equal(p.data, q.data)
    assert np.shares_memory(p.data, base)  # the update landed in the parameter itself
