"""What the benchmark reads from the package by name.

The traced run resolves its layer functions by name in the installed package,
so a rename in src/ would make ``--trace 1`` die with AttributeError; and
``generic_scaling`` builds every operator it times through the ``bands`` and
``rank_terms`` views (``workloads.unitary_copy``)."""

import numpy as np
import pytest

from conftest import load_perfbench

tracer = load_perfbench("tracer")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("span", sorted(tracer.LAYER_FUNCTIONS))
def test_layer_function_resolves(span):
    import opspectra.cli  # noqa: F401  (the tracer loads every module first)
    import opspectra.suites  # noqa: F401
    module_name, dotted = tracer.LAYER_FUNCTIONS[span]
    owner, attr = tracer._resolve(module_name, dotted)
    assert callable(getattr(owner, attr))


def test_install_and_uninstall_restore_every_binding():
    from opspectra import classify, toeplitz
    t = tracer.Tracer()
    try:
        t.install()
        t.operation(lambda: classify(toeplitz({1: 1.0, -1: 0.5})))
    finally:
        restored = t.uninstall()
    assert restored
    assert t.calls["classify.check_normal"] > 0


def test_identity_copy_is_the_base(pool_bases):
    for base in pool_bases:
        assert workloads.unitary_copy(base, 1, 1) == base


@pytest.mark.parametrize("rotation", workloads.QUARTER_TURNS)
@pytest.mark.parametrize("gauge", workloads.QUARTER_TURNS)
def test_quarter_turn_copy_is_the_rotated_truncation(pool_bases, rotation, gauge):
    # rotation * U* T U with U = diag(gauge^k) scales entry (i, j) by
    # rotation * conj(gauge)^(i - j), which is exact for quarter turns
    for base in pool_bases:
        n = base.corner_size + base.bandwidth + 3
        offsets = np.subtract.outer(np.arange(n), np.arange(n))
        phases = rotation * np.conj(gauge) ** (offsets % 4)
        copy = workloads.unitary_copy(base, complex(rotation), complex(gauge))
        np.testing.assert_array_equal(copy.truncate(n), phases * base.truncate(n))
