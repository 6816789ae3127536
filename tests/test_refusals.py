"""Every refusal branch of the library raises its error with its message.

Each case is a call that must raise, the error type, and a needle of its
message.  The CLI parsers end a refusal in SystemExit(2) with one `error:`
line on stderr, so for them the needle is read there.
"""

import math

import numpy as np
import pytest

from hypb import calculus, cli, kernels, transforms as tr, whittaker as wh
from hypb import testfuncs as tf
from hypb.grid import Field, GridSpec, PlaneKind, WeightKind, inner_product, lp_norm

UPPER = GridSpec(L=1.0, H=1.0, nx=8, ny=8)
FULL = GridSpec(L=1.0, H=1.0, nx=8, ny=8, plane=PlaneKind.FULL)
ZERO = Field(UPPER, np.zeros((8, 8)))


@pytest.mark.parametrize("call, error, needle", [
    (lambda: calculus._fd4_first(np.zeros((4, 8)), 0.1, 0), ValueError, "at least 5 samples"),
    (lambda: FULL.weight(2.0, WeightKind.HYPERBOLIC), ValueError, "only makes sense on the upper"),
    (lambda: lp_norm(ZERO, 0.0), ValueError, "p must be positive"),
    (lambda: lp_norm(ZERO, -1.0), ValueError, "p must be positive"),
    (lambda: inner_product(ZERO, Field(FULL, np.zeros((8, 8)))), ValueError, "different grids"),
    (lambda: kernels.planar_table("cauchy", 4, 4, 0.1, 0.1, average="corner"), ValueError,
     "unknown averaging mode 'corner'"),
    (lambda: tf.conj_rational(a=0.0), ValueError, "need a > 0 and k >= 2"),
    (lambda: tf.conj_rational(k=1), ValueError, "need a > 0 and k >= 2"),
    (lambda: tf.holo_rational(a=-1.0), ValueError, "need a > 0 and k >= 2"),
    (lambda: tf.holo_rational(k=1), ValueError, "need a > 0 and k >= 2"),
    (lambda: tf.hardy_family(ramp=0.0), ValueError, "ramp must be positive"),
    (lambda: tf.hardy_family(ramp=math.nan), ValueError, "ramp must be positive"),
    (lambda: tr.transform(ZERO, "defect_sum", "spectral"), ValueError,
     "unknown method 'spectral'"),
    (lambda: wh.branch("Z", 0.0, 1.0, 1.0), ValueError, "family must be 'X' or 'Y'"),
    (lambda: wh.lemma_a1_classify(Field(GridSpec(L=16.0, H=4.0, nx=64, ny=16),
                                        np.zeros((16, 64)))), ValueError,
     "no partial Fourier energy"),
    (lambda: wh.branch("X", 0.0, 1.0, 0.0), ValueError, "t must be positive"),
    (lambda: wh.branch("Y", 1.0, 0.0, np.array([1.0, -1.0])), ValueError, "t must be positive"),
    (lambda: wh.pointwise_residual("X", 0.0, 1.0, [0.0, 1.0]), ValueError,
     "t must be positive"),
    # NaN is not positive: `t <= 0` let it through, into an overflow message at t = nan
    (lambda: wh.branch("X", 0.0, 1.0, math.nan), ValueError, "t must be positive"),
    (lambda: wh.branch("Y", 1.0, 0.0, math.nan), ValueError, "t must be positive"),
    (lambda: wh.pointwise_residual("Y", 0.0, 1.0, [math.nan]), ValueError,
     "t must be positive"),
    (lambda: cli.parse_domain("a:b"), SystemExit, "bad --domain 'a:b'"),
    (lambda: cli.parse_range("0.1:x"), SystemExit, "bad --range '0.1:x'"),
])
def test_each_refusal_raises_its_error_and_message(call, error, needle, capsys):
    with pytest.raises(error) as info:
        call()
    message = capsys.readouterr().err if error is SystemExit else str(info.value)
    assert needle in message
