import numpy as np

import spans
import workloads
from polyfhe import backend, summation


def _ciphertext(n):
    ctx = backend.EncryptionContext(256, 16, key_id="perfbench-test")
    return backend.encrypt(np.arange(1.0, n + 1.0), ctx)


def test_counter_counts_fold_and_naive_rotations():
    for n in (1, 2, 5, 100, 256):
        ct = _ciphertext(n)
        fold = workloads.count_he(lambda: summation.fold_add_all(ct, n), 1)
        naive = workloads.count_he(lambda: summation.naive_add_all(ct, n), 1)
        assert fold["rotations"] == (n - 1).bit_length()
        assert naive["rotations"] == n - 1
        assert fold["ct_mults"] == naive["ct_mults"] == 0


def test_tracer_puts_the_originals_back():
    original = summation.rotate_left
    tracer = spans.Tracer(spans.public_functions(("backend",)))
    with tracer:
        assert summation.rotate_left is not original
        assert backend.rotate_left is not original
    assert summation.rotate_left is original and backend.rotate_left is original


def test_self_times_add_up_to_the_parent_span():
    fns = spans.public_functions(("backend", "summation"))
    tracer = spans.Tracer(fns)
    ct = _ciphertext(200)
    with tracer, tracer.span("root"):
        summation.fold_add_all(ct, 200)
        summation.naive_add_all(ct, 50)
    outermost = tracer.root_ns
    stats = tracer.take()
    root_total = stats["root"][1]
    assert root_total == outermost
    assert sum(stat[2] for stat in stats.values()) == root_total
    fold = stats["summation.fold_add_all"]
    children = stats["backend.add"][1] + stats["backend.rotate_left"][1]
    naive = stats["summation.naive_add_all"]
    assert fold[1] + naive[1] - fold[2] - naive[2] == children
    assert stats["backend.rotate_left"][0] == 8 + 49
