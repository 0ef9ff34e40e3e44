"""Command line front end: classify, spectrum, decompose, verify-suite.

Exit codes: 0 on clean completion, 2 when any verdict is undetermined,
1 on errors (including usage errors).  Structured output is a single
self-describing JSON document per run carrying every parameter it read, so
each verdict is reproducible.  It is encoded once, compact on one line (an
``indent`` would bypass the C encoder); the --out file of classify and
decompose receives the same text.
"""

from __future__ import annotations

import argparse
import datetime
import inspect
import json
import sys

import numpy as np

from . import __version__
from .classify import (ClassificationReport, Verdict, classify,
                       discrete_singular_levels, spectral_summary)
from .decompose import (BlockDecomposition, normality_from_blocks,
                        spectrum_inclusion_check, structure_decompose,
                        verify_decomposition)
from .errors import OperatorLibraryError
from .specfiles import BUNDLED, _pair, _run_param, resolve_spec
from .suites import run_all
from .symbols import SpectralSummary

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for "undetermined"
        raise CliError(message)


# -- serialization -------------------------------------------------------------

def _matrix(m) -> dict:
    m = np.ascontiguousarray(m, dtype=complex)
    return {"shape": list(m.shape),
            "entries": m.reshape(-1).view(np.float64).reshape(-1, 2).tolist()}


def classification_to_dict(report: ClassificationReport) -> dict:
    return {
        "is_self_adjoint": report.is_self_adjoint.value,
        "is_normal": report.is_normal.value,
        "is_hyponormal": report.is_hyponormal.value,
        "is_paranormal": report.is_paranormal.value,
        "is_AN": report.is_AN.value,
        "is_AM_normal": report.is_AM_normal.value,
        "alpha": report.alpha,
        "witnesses": [[name, _jsonable(data)] for name, data in report.witnesses],
        "tolerances": dict(report.tolerances),
    }


def summary_to_dict(summary: SpectralSummary) -> dict:
    curve = summary.ess_curve
    return {
        "ess_curve": np.column_stack((curve.theta, curve.points.real,
                                      curve.points.imag)).tolist(),
        "ess_is_circle": summary.ess_is_circle,
        "weyl_extra": [{"winding": c.winding, "area": c.area,
                        "representative": _pair(c.representative)}
                       for c in summary.weyl_extra],
        "eigenvalues": [[_pair(v), int(m)] for v, m in summary.eigenvalues],
        "min_modulus": summary.min_modulus,
        "ess_min_modulus": summary.ess_min_modulus,
        "norm_upper": summary.norm_upper,
        "area": summary.area,
        "area_error": summary.area_error,
        "eigenvalues_stabilized": summary.eigenvalues_stabilized,
    }


def decomposition_to_dict(dec: BlockDecomposition) -> dict:
    return {
        "alpha": dec.alpha,
        "h0_blocks": [{"lambda": b.level, "dim": b.dim,
                       "U": _matrix(b.unitary)} for b in dec.h0_blocks],
        "h1_dim": dec.h1_dim,
        "S1": {"tails": [_pair(z) for z in dec.S1.tails],
               "window": _matrix(dec.S1.window)},
        "A": _matrix(dec.A),
        "h2_blocks": [{"delta": lv, "dim": d} for lv, d in dec.h2_blocks],
        "S2": _matrix(dec.S2),
        "basis": _matrix(dec.basis),
        "case_label": dec.case_label,
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return _pair(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Verdict):
        return value.value
    return value


def _provenance(params: dict, started, finished) -> dict:
    return {"tool": "opspectra", "version": __version__,
            "parameters": _jsonable(params),
            "timestamps": {"started": started.isoformat(),
                           "finished": finished.isoformat()}}


def report_document(params, started, classification=None, spectral=None,
                    decomposition=None) -> dict:
    doc = {"provenance": _provenance(params, started,
                                     datetime.datetime.now(datetime.timezone.utc))}
    if classification is not None:
        doc["classification"] = classification_to_dict(classification)
    if spectral is not None:
        doc["spectral"] = summary_to_dict(spectral)
    if decomposition is not None:
        doc["decomposition"] = decomposition_to_dict(decomposition)
    return doc


def write_curve_csv(path, summary: SpectralSummary) -> None:
    curve = summary.ess_curve
    rows = np.column_stack([curve.theta, curve.points.real, curve.points.imag])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("theta,re,im\n")
        handle.write("%.14f,%.14e,%.14e\n" * len(rows) % tuple(rows.ravel().tolist()))


def _area_note(summary: SpectralSummary) -> str:
    if summary.area_error == 0:
        return "(exact)"
    return f"(error {summary.area_error:.2g})"


# -- commands ------------------------------------------------------------------

# The flags' defaults are those of the functions that read them.
_SUMMARY_SIGNATURE = inspect.signature(spectral_summary).parameters
_DECOMPOSE_SIGNATURE = inspect.signature(structure_decompose).parameters


def _collect_params(args, spec, signature) -> dict:
    """The values of the command's own flags: flag, else spec, else the
    default in ``signature`` (``trunc`` has none and shows only when set)."""
    params = dict(spec.params)
    for key in ("trunc", "tol", "samples"):
        value = getattr(args, key, None)
        if value is not None:
            try:
                params[key] = _run_param(key, value)
            except ValueError as exc:
                raise CliError(f"--{exc}") from None
    for key in ("tol", "samples"):
        if key in args:
            params.setdefault(key, signature[key].default)
    return {key: value for key, value in params.items() if key in args}


def cmd_classify(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    spec = resolve_spec(args.spec)
    params = _collect_params(args, spec, _SUMMARY_SIGNATURE)
    report = classify(spec.operator, tol_an=params["tol"])
    summary = spectral_summary(spec.operator, **params)
    if args.format == "structured" or args.out:
        text = json.dumps(report_document(
            params | {"spec": spec.name}, started,
            classification=report, spectral=summary))
    if args.format == "structured":
        print(text)
    else:
        print(f"operator: {spec.name}")
        for label, verdict in (
                ("self-adjoint", report.is_self_adjoint),
                ("normal", report.is_normal),
                ("hyponormal", report.is_hyponormal),
                ("paranormal", report.is_paranormal),
                ("absolutely norm attaining", report.is_AN),
                ("AM (normal case)", report.is_AM_normal)):
            print(f"  {label:<27s} {verdict.value}")
        if report.alpha is not None:
            print(f"  essential level alpha       {report.alpha:.12g}")
        print(f"  norm                        {summary.norm_upper:.12g}")
        print(f"  min modulus                 {summary.min_modulus:.12g}")
        print(f"  essential min modulus       {summary.ess_min_modulus:.12g}")
        circ = summary.ess_is_circle
        print(f"  essential curve             "
              f"{'circle of radius %.12g' % circ if circ is not None else 'not a circle'}")
        print(f"  spectral area               {summary.area:.6g} "
              f"{_area_note(summary)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_UNDETERMINED if report.any_undetermined else EXIT_OK


def cmd_spectrum(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    spec = resolve_spec(args.spec)
    params = _collect_params(args, spec, _SUMMARY_SIGNATURE)
    summary = spectral_summary(spec.operator, **params)
    levels, stabilized = discrete_singular_levels(spec.operator,
                                                  tol=params["tol"])
    csv_path = args.out or f"{spec.name}_curve.csv"
    write_curve_csv(csv_path, summary)
    if args.format == "structured":
        doc = report_document(params | {"spec": spec.name, "curve_csv": csv_path},
                              started, spectral=summary)
        doc["singular_levels"] = {"below_essential": [[lv, m] for lv, m in levels],
                                  "stabilized": stabilized}
        print(json.dumps(doc))
    else:
        print(f"operator: {spec.name}")
        print(f"  curve samples written to    {csv_path}")
        print(f"  norm                        {summary.norm_upper:.12g}")
        print(f"  min modulus m(T)            {summary.min_modulus:.12g}")
        print(f"  essential min modulus       {summary.ess_min_modulus:.12g}")
        print(f"  spectral area               {summary.area:.6g} "
              f"{_area_note(summary)}")
        if summary.eigenvalues:
            pts = ", ".join(f"{v:.6g} (x{m})" for v, m in summary.eigenvalues)
            print(f"  isolated eigenvalues        {pts}")
        elif summary.eigenvalues_stabilized:
            print("  isolated eigenvalues        none found")
        else:
            print("  isolated eigenvalues        not stabilized")
        if levels:
            lv = ", ".join(f"{v:.6g} (x{m})" for v, m in levels)
            print(f"  singular levels < essential {lv}")
        else:
            print("  singular levels < essential none")
    return EXIT_OK if stabilized else EXIT_UNDETERMINED


def cmd_decompose(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc)
    spec = resolve_spec(args.spec)
    params = _collect_params(args, spec, _DECOMPOSE_SIGNATURE)
    n = params.get("trunc")
    dec = structure_decompose(spec.operator, n=n, tol=params["tol"])
    record = verify_decomposition(dec, spec.operator, n=n,
                                  tol=max(params["tol"], 1e-6))
    blocks = normality_from_blocks(dec, operator=spec.operator)
    inclusion = spectrum_inclusion_check(spec.operator, dec)
    if args.format == "structured" or args.out:
        doc = report_document(params | {"spec": spec.name}, started,
                              decomposition=dec)
        doc["verification"] = {"residuals": _jsonable(record.residuals),
                               "a_norm": record.a_norm, "ok": record.ok}
        doc["normality_from_blocks"] = {"verdict": blocks.verdict.value,
                                        "isometry_defect": blocks.isometry_defect,
                                        "corank": blocks.corank}
        doc["spectrum_inclusion"] = {"checked": inclusion.checked,
                                     "violators": [_pair(v) for v in
                                                   inclusion.violators]}
        text = json.dumps(doc)
    if args.format == "structured":
        print(text)
    else:
        print(f"operator: {spec.name}")
        print(f"  essential level alpha  {dec.alpha:.12g}  case {dec.case_label}")
        for b in dec.h0_blocks:
            print(f"  H0 block: lambda={b.level:.10g} dim={b.dim}")
        print(f"  H1: {dec.null_dim} corner null vectors, then e_j for "
              f"j >= {len(dec.basis)}")
        if dec.h1_dim is not None:
            print(f"  H1 dim {dec.h1_dim} within C^{dec.trunc}")
        for lv, d in dec.h2_blocks:
            print(f"  H2 block: delta={lv:.10g} dim={d}")
        print(f"  ||A|| = {record.a_norm:.10g}")
        print("  residuals:")
        for key, value in sorted(record.residuals.items()):
            print(f"    {key:<24s} {value:.3e}")
        print(f"  S1 unitary verdict     {blocks.verdict.value} "
              f"(corank {blocks.corank})")
        print(f"  eigenvalue inclusion   "
              f"{'clean' if inclusion.all_inside else inclusion.violators}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK if record.ok else EXIT_UNDETERMINED


def cmd_verify_suite(args) -> int:
    results = run_all(seed=args.seed, quick=not args.full)
    failed = 0
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="opspectra",
                     description="Spectral analysis and normality classification "
                                 "of banded-plus-finite-rank operators on l2(N).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec",
                       help="path to an operator spec file, or one of: "
                            + ", ".join(BUNDLED))
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        p.add_argument("--out", default=None,
                       help="write the structured document (or curve CSV for "
                            "the spectrum command) to this path")

    for name, text in (("classify", "run every membership test"),
                       ("spectrum", "emit curve CSV and spectral data")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--samples", type=int, help="circle sample count")
    decompose = sub.add_parser("decompose", help="build and verify the block form")
    common(decompose)
    decompose.add_argument("--trunc", type=int, default=None,
                           help="count dim H1 within C^TRUNC (default: none, "
                                "H1 is infinite-dimensional)")
    verify = sub.add_parser("verify-suite",
                            help="run golden and randomized property suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--full", action="store_true",
                        help="run the larger randomized suites")
    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:          # the parser depends on nothing that changes
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        handler = {"classify": cmd_classify, "spectrum": cmd_spectrum,
                   "decompose": cmd_decompose,
                   "verify-suite": cmd_verify_suite}[args.command]
        return handler(args)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OperatorLibraryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
