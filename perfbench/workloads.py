"""The three benchmark workloads: seeded inputs, operations and their checks.

A workload hands out rounds of operations.  Round ``r`` is a pure function
of ``(seed, r)``, so the same seed gives the same inputs.  Every operation
has ``setup`` (untimed), ``run`` (timed, calls the library through its
module attributes so a traced run sees the wrapped bindings) and ``check``
(untimed), which returns a :class:`Checked`.

Library functions are looked up on their modules at call time on purpose:
a name bound at import would bypass the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np

# import_module, because the package re-exports a function named classify
C = import_module("opspectra.classify")
cli = import_module("opspectra.cli")
core = import_module("opspectra.core")
D = import_module("opspectra.decompose")
specfiles = import_module("opspectra.specfiles")
suites = import_module("opspectra.suites")
S = import_module("opspectra.symbols")

HERE = Path(__file__).resolve().parent
VERDICT_FIELDS = ("is_self_adjoint", "is_normal", "is_hyponormal",
                  "is_paranormal", "is_AN", "is_AM_normal")
TOL = 1e-7
# classify merges eigenvalues closer than 100 * tol (tol 1e-8) into one
# cluster reported at their mean, so oracle values are matched to that width.
CLUSTER_GAP = 1e-6


@dataclass
class Checked:
    """What one operation produced: verdicts, how many were undetermined,
    failed checks and bytes the CLI wrote."""

    verdicts: int = 0
    undetermined: int = 0
    failures: list = field(default_factory=list)
    bytes_out: int = 0


class Op:
    label = "op"

    def setup(self):
        pass

    def run(self):
        raise NotImplementedError

    def check(self, result) -> Checked:
        raise NotImplementedError


def _count(verdicts) -> Checked:
    values = list(verdicts)
    return Checked(len(values), sum(v == "undetermined" for v in values))


def report_verdicts(report) -> dict:
    return {f: getattr(report, f).value for f in VERDICT_FIELDS}


def report_invariants(v: dict, alpha) -> list:
    """normal => hyponormal => paranormal, and alpha present iff AN is yes."""
    bad = []
    if v["is_normal"] == "yes" and v["is_hyponormal"] != "yes":
        bad.append("normal but not hyponormal")
    if v["is_hyponormal"] == "yes" and v["is_paranormal"] != "yes":
        bad.append("hyponormal but not paranormal")
    if (alpha is not None) != (v["is_AN"] == "yes"):
        bad.append(f"alpha {alpha} with AN {v['is_AN']}")
    return bad


def summary_invariants(min_modulus, ess_min_modulus, norm_upper) -> list:
    slack = 1e-12 * max(1.0, norm_upper)
    if not (0.0 <= min_modulus <= ess_min_modulus + slack
            and ess_min_modulus <= norm_upper + slack):
        return [f"min_modulus {min_modulus} ess_min_modulus {ess_min_modulus} "
                f"norm_upper {norm_upper} out of order"]
    return []


def expect(v: dict, expected: dict) -> list:
    """A definite verdict opposite to the expected one is a failure;
    undetermined is not (it is counted in the undetermined share)."""
    return [f"{k}: expected {e}, got {v[k]}" for k, e in expected.items()
            if e in ("yes", "no") and v[k] in ("yes", "no") and v[k] != e]


# -- bundled_cli ----------------------------------------------------------------

TEXT_LABELS = {"self-adjoint": "is_self_adjoint", "normal": "is_normal",
               "hyponormal": "is_hyponormal", "paranormal": "is_paranormal",
               "absolutely norm attaining": "is_AN",
               "AM (normal case)": "is_AM_normal"}
_TEXT_VERDICT = re.compile(r"^  (.+?)\s+(yes|no|undetermined)$")
_LEVEL = re.compile(r"([-+0-9.e]+) \(x(\d+)\)")


def parse_cli(command: str, fmt: str, stdout: str) -> dict:
    """The verdict-bearing fields of one CLI output, in golden-table form."""
    if fmt == "structured":
        doc = json.loads(stdout)
        if command == "classify":
            c = doc["classification"]
            out = {f: c[f] for f in VERDICT_FIELDS}
            out["alpha"] = c["alpha"]
        elif command == "spectrum":
            lv = doc["singular_levels"]
            out = {"stabilized": lv["stabilized"],
                   "levels": [[v, m] for v, m in lv["below_essential"]]}
        else:
            out = {"verification_ok": doc["verification"]["ok"],
                   "s1_unitary": doc["normality_from_blocks"]["verdict"]}
        if "spectral" in doc:
            s = doc["spectral"]
            out["summary_order"] = not summary_invariants(
                s["min_modulus"], s["ess_min_modulus"], s["norm_upper"])
        return out
    lines = stdout.splitlines()
    if command == "classify":
        out = {}
        for line in lines:
            m = _TEXT_VERDICT.match(line)
            if m and m.group(1) in TEXT_LABELS:
                out[TEXT_LABELS[m.group(1)]] = m.group(2)
            if line.strip().startswith("essential level alpha"):
                out["alpha"] = float(line.split()[-1])
        out.setdefault("alpha", None)
        return out
    if command == "spectrum":
        line = next(x for x in lines if "singular levels < essential" in x)
        return {"levels": [[float(v), int(m)] for v, m in _LEVEL.findall(line)]}
    line = next(x for x in lines if "S1 unitary verdict" in x)
    return {"s1_unitary": line.split()[3]}


def compare_golden(got: dict, want: dict) -> list:
    bad = []
    for key, expected in want.items():
        value = got.get(key)
        if key == "levels":
            ok = len(value) == len(expected) and all(
                abs(a[0] - b[0]) <= 1e-6 * max(1.0, abs(b[0])) and a[1] == b[1]
                for a, b in zip(value, expected))
        elif isinstance(expected, float):
            ok = value is not None and abs(value - expected) <= 1e-9 * max(1.0, expected)
        else:
            ok = value == expected
        if not ok:
            bad.append(f"{key}: expected {expected!r}, got {value!r}")
    return bad


class CliOp(Op):
    def __init__(self, command, spec, fmt, golden):
        self.command, self.spec, self.fmt, self.golden = command, spec, fmt, golden
        self.label = f"{command}/{spec}/{fmt}"
        self.argv = [command, spec, "--format", fmt]
        if fmt == "structured":
            suffix = "csv" if command == "spectrum" else "json"
            self.written = f"{command}_{spec}.{suffix}"
            self.argv += ["--out", self.written]
        elif command == "spectrum":
            self.written = f"{spec}_curve.csv"   # dropped into the working directory
        else:
            self.written = None

    def setup(self):
        if self.written and os.path.exists(self.written):
            os.remove(self.written)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, result) -> Checked:
        code, stdout, stderr = result
        want = self.golden[self.label]
        if code != want["exit"]:
            return Checked(failures=[f"exit {code}, expected {want['exit']}: "
                                     f"{stderr.strip()[:200]}"])
        if code == 1:     # documented refusal, e.g. decompose of a non-AN operator
            return Checked(failures=[] if stderr.startswith("error:")
                           else ["exit 1 without an error message"])
        got = parse_cli(self.command, self.fmt, stdout)
        failures = compare_golden(got, want["fields"])
        written = 0
        if self.written:
            if not os.path.exists(self.written):
                failures.append(f"{self.written} was not written")
            else:
                written = os.path.getsize(self.written)
                if self.written.endswith(".json"):
                    with open(self.written, encoding="utf-8") as handle:
                        json.load(handle)
        if self.command == "classify":
            checked = _count(got[f] for f in VERDICT_FIELDS)
            failures += report_invariants(got, got["alpha"])
        else:
            checked = Checked(1, int(code == 2))
        checked.failures = failures
        checked.bytes_out = written
        return checked


class BundledCli:
    """classify, spectrum and decompose on the six bundled specs, in text and
    in structured form: 36 CLI invocations per round, shuffled by the seed."""

    name = "bundled_cli"
    trace_rounds = 1

    def __init__(self, seed):
        self.seed = seed
        with open(HERE / "golden_cli.json", encoding="utf-8") as handle:
            self.golden = json.load(handle)
        self.plan = [(c, s, f) for c in ("classify", "spectrum", "decompose")
                     for s in specfiles.BUNDLED for f in ("text", "structured")]

    def round(self, index):
        order = np.random.default_rng([self.seed, index]).permutation(len(self.plan))
        return [CliOp(*self.plan[i], self.golden) for i in order]


# -- generic_scaling -----------------------------------------------------------

# Base operators (bandwidth, corner, variant), recorded in generic_record.json.
# Corner sizes 8-32 and bandwidths 1-4; (2, 8, 0) is one whose n/2n loops
# double the truncation several times.
# An odd count puts the median on one base's two copies, not between bases.
GENERIC_POOL = ((1, 8, 0), (1, 8, 1), (2, 8, 0), (2, 8, 1), (3, 8, 2), (4, 8, 1),
                (1, 16, 0), (1, 16, 1), (2, 16, 0), (3, 16, 1), (3, 32, 1))
POOL_KEY = 20201008


def generic_base(bandwidth, corner, variant):
    """Random Laurent tail + from_dense_corner head + one rank-one term."""
    rng = np.random.default_rng([POOL_KEY, bandwidth, corner, variant])
    coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for k in range(-bandwidth, bandwidth + 1)}
    head = (rng.normal(size=(corner, corner))
            + 1j * rng.normal(size=(corner, corner))) / math.sqrt(corner)
    support = int(rng.integers(1, corner + 1))

    def vec():
        return tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(support))

    return (core.toeplitz(coeffs) + core.from_dense_corner(head)
            + core.rank_one(vec(), vec()))


QUARTER_TURNS = (1, 1j, -1, -1j)


def unitary_copy(t, rotation, gauge):
    """rotation * U* T U with U = diag(gauge^k), both quarter turns.

    The copy is unitarily equivalent to T, so every verdict and spectral
    number is unchanged, while entries move.  Multiplying by +-1 or +-i is
    exact in floating point, so the library's arithmetic on the copy is the
    rotated arithmetic on T, rounding included: same canonical prefix
    lengths, same truncation sizes, same work.  (Generic phases would change
    which prefixes trim to their tails and hence the truncation sizes.)
    """
    conj = gauge.conjugate()

    def phase(k):
        return rotation * conj ** (k % 4)

    bands = {k: core.DiagonalDescriptor(tuple(phase(k) * v for v in d.prefix),
                                        phase(k) * d.tail)
             for k, d in t.bands.items()}
    terms = tuple(core.FiniteRankTerm(
        tuple(phase(j) * v for j, v in enumerate(r.left)),
        tuple(conj ** (j % 4) * v for j, v in enumerate(r.right)))
        for r in t.rank_terms)
    return core.StructuredOperator(bands, terms)


class GenericOp(Op):
    def __init__(self, operator, record):
        self.operator, self.record = operator, record
        self.label = "generic/b{bandwidth}/c{corner}/v{variant}".format(**record)

    def run(self):
        from opspectra.errors import NotStabilized
        try:
            report = C.classify(self.operator)
        except NotStabilized as exc:
            report = exc
        try:
            summary = C.spectral_summary(self.operator)
        except NotStabilized as exc:
            summary = exc
        return report, summary

    def check(self, result) -> Checked:
        report, summary = result
        if isinstance(report, Exception):
            checked = Checked(1, 1)
        else:
            v = report_verdicts(report)
            checked = _count(v.values())
            checked.failures += expect(v, self.record["verdicts"])
            checked.failures += report_invariants(v, report.alpha)
        checked.verdicts += 1
        if isinstance(summary, Exception):
            checked.undetermined += 1
        else:
            checked.failures += summary_invariants(
                summary.min_modulus, summary.ess_min_modulus, summary.norm_upper)
        return checked


class GenericScaling:
    """One round is the recorded pool of generic non-normal operators, each
    replaced by a seeded unitarily equivalent copy."""

    name = "generic_scaling"
    trace_rounds = 1

    def __init__(self, seed):
        self.seed = seed
        with open(HERE / "generic_record.json", encoding="utf-8") as handle:
            records = {(r["bandwidth"], r["corner"], r["variant"]): r
                       for r in json.load(handle)}
        self.pool = [(generic_base(*key), records[key]) for key in GENERIC_POOL]

    def round(self, index):
        ops = []
        for i, (base, record) in enumerate(self.pool):
            rotation, gauge = np.random.default_rng([self.seed, index, i]).choice(
                QUARTER_TURNS, 2)
            ops.append(GenericOp(unitary_copy(base, complex(rotation),
                                              complex(gauge)), record))
        return ops


# -- oracle_family -------------------------------------------------------------

def _point_multiset(pairs):
    return sorted((complex(c) for c, m in pairs for _ in range(int(m))),
                  key=lambda z: (z.real, z.imag))


def _same_points(got, want):
    want = sorted(want, key=lambda z: (z.real, z.imag))
    return len(got) == len(want) and all(abs(a - b) <= CLUSTER_GAP
                                         for a, b in zip(got, want))


class ClassifyOp(Op):
    """classify against by-construction verdicts (and the diagonal oracle)."""

    def __init__(self, label, operator, expected, oracle=None):
        self.label, self.operator, self.expected = label, operator, expected
        self.oracle = oracle

    def run(self):
        return C.classify(self.operator)

    def check(self, report) -> Checked:
        v = report_verdicts(report)
        checked = _count(v.values())
        checked.failures += expect(v, self.expected)
        checked.failures += report_invariants(v, report.alpha)
        if self.oracle is not None and v["is_AN"] == "yes":
            checked.failures += self._diagonal(report)
        return checked

    def _diagonal(self, report):
        """Points outside the essential circle and levels of |T| below it."""
        bad = []
        oracle = self.oracle
        if abs(report.alpha - oracle["alpha"]) > TOL:
            bad.append(f"alpha {report.alpha}, oracle {oracle['alpha']}")
        witness = dict(report.witnesses)
        # eigenvalues of T*T below alpha^2 are |p|^2 for the interior points p
        levels = sorted(float(np.real(v)) for v, m in
                        witness["absolutely_norm_attaining"]["eigenvalues_below"]
                        for _ in range(int(m)))
        want = sorted(abs(p) ** 2 for p in oracle["interior"])
        if len(levels) != len(want) or any(abs(a - b) > CLUSTER_GAP
                                           for a, b in zip(levels, want)):
            bad.append(f"levels {levels}, oracle {want}")
        if report.is_AM_normal.value == "yes":
            got = _point_multiset(witness["am_normal"]["annulus_points"])
            if not _same_points(got, oracle["annulus"]):
                bad.append(f"annulus points {got}, oracle {oracle['annulus']}")
        return bad


class DecomposeOp(ClassifyOp):
    """classify, then structure_decompose and verify_decomposition."""

    def run(self):
        report = C.classify(self.operator)
        dec = D.structure_decompose(self.operator)
        return report, D.verify_decomposition(dec, self.operator)

    def check(self, result) -> Checked:
        report, record = result
        checked = super().check(report)
        if not record.ok:
            checked.failures.append(f"verification failed: {record.residuals}")
        return checked


class IndexOp(Op):
    """fredholm_index(validate=True): winding against tall-section null counts."""

    def __init__(self, label, operator, lam):
        self.label, self.operator, self.lam = label, operator, lam

    def run(self):
        return S.fredholm_index(self.operator, self.lam, validate=True, n=256)

    def check(self, index) -> Checked:
        return Checked(failures=[] if isinstance(index, int)
                       else [f"index {index!r} is not an integer"])


YES = "yes"
NORMAL = {"is_normal": YES, "is_hyponormal": YES, "is_paranormal": YES}


class OracleFamily:
    """Small operators from the opspectra.suites generators, PER_KIND of each
    kind per round, each checked against an exact or by-construction oracle."""

    name = "oracle_family"
    trace_rounds = 2
    PER_KIND = 25

    def __init__(self, seed):
        self.seed = seed

    def round(self, index):
        rng = np.random.default_rng([self.seed, index])
        ops = []
        for _ in range(self.PER_KIND):
            diag = suites.random_diagonal(rng)
            corner = suites.random_normal_corner(rng)
            anh = suites.random_an_hyponormal(rng)
            band = suites.random_banded_symbol(rng)
            pts = S.symbol(band).on_circle(2048)
            scale = max(1.0, float(np.max(np.abs(pts))))
            while True:
                lam = complex(*rng.uniform(-1.6, 1.6, 2)) * scale
                if float(np.min(np.abs(pts - lam))) >= 0.25 * scale:
                    break
            ops += [
                ClassifyOp("random_diagonal", diag,
                           NORMAL | {"is_AN": YES, "is_AM_normal": YES},
                           suites.diagonal_oracle(diag)),
                ClassifyOp("random_normal_corner", corner,
                           NORMAL | {"is_AN": YES, "is_AM_normal": YES}),
                DecomposeOp("random_an_hyponormal", anh,
                            {"is_hyponormal": YES, "is_paranormal": YES, "is_AN": YES}),
                IndexOp("random_banded_symbol", band, lam),
            ]
        return ops


WORKLOADS = {w.name: w for w in (BundledCli, GenericScaling, OracleFamily)}
