"""The traced benchmark resolves its layer functions by name in the installed
package; a rename in src/ would make ``--trace 1`` die with AttributeError."""

import pytest

from conftest import load_perfbench

tracer = load_perfbench("tracer")


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
