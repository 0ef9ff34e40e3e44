"""``spectral_summary`` and ``classify`` raise no warning, warnings read as
errors, on a fixed set of operators: the 11 pool bases, the 6 bundled
specs, a bandwidth-2 tail with a_-k = a_k bitwise, and four symbols whose
curves have a cusp (b' = 0 at a point of the circle), where the
arrangement gives up.  The set is fixed, so the test cannot flake the way
a global ``filterwarnings = error`` would with the hypothesis tests, which
draw fresh examples on every run."""

import warnings

import pytest

from conftest import load_perfbench
from opspectra import classify, load_bundled, spectral_summary, toeplitz
from opspectra.specfiles import BUNDLED

workloads = load_perfbench("workloads")

# a_0, a_+-1, a_+-2: the mirror of this curve is at theta = 0 exactly
SYMMETRIC_TAIL = (-0.24083963368852157 + 0.7537776490451377j,
                  0.05253356740422699 - 0.7407115276879361j,
                  0.7270399684309874 - 0.4452626516350104j)
CUSPS = {"cardioid": {1: 1.0, 2: 0.5}, "deltoid": {1: 1.0, -2: 0.5},
         "z+z^3/3": {1: 1.0, 3: 1 / 3}, "1/z+z^2/2": {-1: 1.0, 2: 0.5}}


def symmetric_tail():
    a0, a1, a2 = SYMMETRIC_TAIL
    return toeplitz({0: a0, 1: a1, -1: a1, 2: a2, -2: a2})


CASES = ([pytest.param(lambda key=key: workloads.generic_base(*key), id=f"pool{key}")
          for key in workloads.GENERIC_POOL]
         + [pytest.param(lambda name=name: load_bundled(name).operator, id=name)
            for name in BUNDLED]
         + [pytest.param(symmetric_tail, id="symmetric_tail")]
         + [pytest.param(lambda c=c: toeplitz(c), id=name) for name, c in CUSPS.items()])


@pytest.mark.parametrize("build", CASES)
def test_summary_and_classify_raise_no_warning(build):
    t = build()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectral_summary(t)
        classify(t)
