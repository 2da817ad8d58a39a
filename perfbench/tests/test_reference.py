import math

import numpy as np
import pytest

import reference as ref


def test_template_with_overlapping_windows():
    # prefix (3, 4, 0) renormalises to (.6, .8, 0); windows (.6, .8) and (.8, 0);
    # p = 2 w0 - w1^2 gives 1.2 - .64 and 1.6 - 0.
    p = ref.protect([3.0, 4.0, 0.0, 12.0], coeffs=(2, -1), exps=(1, 2), m=2, overlap=1, compress_dim=3)
    np.testing.assert_allclose(p, [0.56, 1.6], rtol=0, atol=1e-15)


def test_template_zero_pads_the_last_window():
    # stride 2 over three coordinates: the second window is (0, 0) after padding.
    p = ref.protect([3.0, 4.0, 0.0, 12.0], coeffs=(2, -1), exps=(1, 2), m=2, overlap=0, compress_dim=3)
    np.testing.assert_allclose(p, [0.56, 0.0], rtol=0, atol=1e-15)


def test_template_of_a_stack_is_row_by_row():
    rows = np.array([[3.0, 4.0, 0.0, 12.0], [0.0, 5.0, 0.0, 1.0]])
    p = ref.protect(rows, coeffs=(2, -1), exps=(1, 2), m=2, overlap=1, compress_dim=3)
    # second row: prefix (0, 1, 0); windows (0, 1), (1, 0) -> (-1, 2)
    np.testing.assert_allclose(p, [[0.56, 1.6], [-1.0, 2.0]], rtol=0, atol=1e-15)


def test_cosine_hand_worked():
    assert ref.cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert ref.cosine([0.56, 1.6], [-1.0, 2.0]) == pytest.approx((-0.56 + 3.2) / (math.hypot(0.56, 1.6) * math.sqrt(5)))
    np.testing.assert_allclose(ref.cosine([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0]), [1 / math.sqrt(2)] * 2)


def test_edge_margin_is_signed_log2_distance_to_nearer_edge():
    np.testing.assert_allclose(ref.edge_margin_log2([2.0, 16.0, 1.0], (1.0, 8.0)), [1.0, -1.0, 0.0])
