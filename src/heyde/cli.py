"""Batch command line front end.

Subcommands read a JSON case file (or "-" for stdin), dispatch to the
library, and emit a JSON report with 17-significant-digit floats so runs
diff cleanly.  Exit codes: 0 = property holds / success, 1 = property
violated or hypothesis infeasible, 2 = invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .ambient import AmbientGroup, XAutomorphism, XPoint
from .finite_abelian import GroupAutomorphism
from .measures import (
    AtomicSignedMeasure,
    density_profile,
    dirac,
    is_distribution,
    sample_arrays,
)
from .structure import (
    DecompositionError,
    InfeasibleSpec,
    InstanceSpec,
    decompose,
    generate_instance,
    rigidity_decision,
)
from .symmetry import SGrid, equation_residual_report, mc_symmetry_test
from .theta import ThetaParams, is_in_theta, rho_extremal, theta_to_measure, theta_verdict

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INVALID = 2


class CaseError(ValueError):
    """Schema or parse problem in a case file; maps to exit code 2."""


def _load_case(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CaseError(f"cannot read case file {path}: {exc}") from exc


def _require(case: dict, key: str) -> object:
    if not isinstance(case, dict) or key not in case:
        raise CaseError(f"case file is missing the required key '{key}'")
    return case[key]


def _parse_group(case: dict) -> AmbientGroup:
    spec = _require(case, "group")
    try:
        return AmbientGroup.from_json(spec)
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid group spec: {exc}") from exc


def _parse_alpha(group: AmbientGroup, case: dict) -> XAutomorphism:
    spec = _require(case, "alpha")
    try:
        return XAutomorphism.from_json(group, spec)
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid automorphism spec: {exc}") from exc


def _parse_measure(group: AmbientGroup, spec: object) -> AtomicSignedMeasure:
    """Resolve a measure spec: atomic terms, theta shorthand, dirac, or
    a convolution of further specs; an optional "shift" applies last."""
    if not isinstance(spec, dict):
        raise CaseError("measure spec must be a JSON object")
    keys = {"terms", "theta", "dirac", "convolve"} & spec.keys()
    if len(keys) != 1:
        raise CaseError(
            "measure spec needs exactly one of 'terms', 'theta', 'dirac', "
            "'convolve'"
        )
    kind = keys.pop()
    try:
        if kind == "terms":
            mu = AtomicSignedMeasure.from_json(group, spec)
        elif kind == "theta":
            mu = theta_to_measure(ThetaParams.from_json(spec["theta"]), group)
        elif kind == "dirac":
            mu = dirac(XPoint.from_json(group, spec["dirac"]))
        else:
            parts = spec["convolve"]
            if not isinstance(parts, list) or not parts:
                raise CaseError("'convolve' must be a nonempty list of measure specs")
            mu = _parse_measure(group, parts[0])
            for part in parts[1:]:
                mu = mu.convolve(_parse_measure(group, part))
        if "shift" in spec:
            mu = mu.shifted(XPoint.from_json(group, spec["shift"]))
        return mu
    except CaseError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid measure spec: {exc}") from exc


def _format_json(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{inner}{json.dumps(str(k))}: {_format_json(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{_format_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return json.dumps(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, json_path: str | None) -> None:
    text = _format_json(report) + "\n"
    sys.stdout.write(text)
    if json_path:
        _atomic_write(json_path, text)


def _emit_csv(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _grid_from_args(args) -> SGrid:
    return SGrid(smax=args.smax, points=args.grid)


def cmd_check(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    alpha = _parse_alpha(group, case)
    mu1 = _parse_measure(group, _require(case, "mu1"))
    mu2 = _parse_measure(group, _require(case, "mu2"))
    report_in = equation_residual_report(mu1, mu2, alpha, _grid_from_args(args))
    passed = report_in.residual <= args.tol
    report = {
        "command": "check",
        "version": __version__,
        "residual": report_in.residual,
        "tol": args.tol,
        "pass": passed,
        "grid": {"smax": report_in.smax, "points": report_in.points},
    }
    _emit(report, args.json)
    return EXIT_OK if passed else EXIT_VIOLATED


def cmd_generate(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    try:
        alpha_g_spec = _require(case, "alpha_G")
        spec = InstanceSpec(
            group=group,
            a=float(_require(case, "a")),
            alpha_G=GroupAutomorphism.from_json(group.G, alpha_g_spec),
            theta2=ThetaParams.from_json(_require(case, "theta2")),
            omega2=_parse_measure(group, _require(case, "omega2")),
            vartheta_d=float(case.get("vartheta_d", 1.0)),
            x2=XPoint.from_json(group, case["x2"]) if "x2" in case else None,
            kappa1=float(case["kappa1"]) if "kappa1" in case else None,
        )
    except CaseError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid generate spec: {exc}") from exc
    try:
        inst = generate_instance(spec)
    except InfeasibleSpec as exc:
        _emit(
            {
                "command": "generate",
                "version": __version__,
                "error": "infeasible spec",
                "failures": list(exc.failures),
            },
            args.json,
        )
        return EXIT_VIOLATED
    out = {"command": "generate", "version": __version__}
    out["group"] = group.to_json()
    out.update(inst.to_json())
    _emit(out, args.json)
    return EXIT_OK


def cmd_decompose(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    alpha = _parse_alpha(group, case)
    mu1 = _parse_measure(group, _require(case, "mu1"))
    mu2 = _parse_measure(group, _require(case, "mu2"))
    try:
        dec = decompose(mu1, mu2, alpha, tol=args.tol)
    except DecompositionError as exc:
        _emit(
            {
                "command": "decompose",
                "version": __version__,
                "error": "hypothesis violated",
                "diagnostics": list(exc.diagnostics),
            },
            args.json,
        )
        return EXIT_VIOLATED
    report = {"command": "decompose", "version": __version__, "tol": args.tol}
    report.update(dec.to_json())
    _emit(report, args.json)
    return EXIT_OK


def cmd_theta(args) -> int:
    case = _load_case(args.case)
    try:
        params = ThetaParams.from_json(case)
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid theta params: {exc}") from exc
    inside = is_in_theta(params)
    strict = 0.0 < params.sigma_p < params.sigma
    report = {
        "command": "theta",
        "version": __version__,
        "params": params.to_json(),
        "in_class": inside,
        "verdict": theta_verdict(params),
        "rho_extremal": rho_extremal(params) if strict else None,
    }
    _emit(report, args.json)
    return EXIT_OK if inside else EXIT_VIOLATED


def cmd_rigidity(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    try:
        gamma = ThetaParams.from_json(_require(case, "gamma"))
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid gamma params: {exc}") from exc
    omega = _parse_measure(group, _require(case, "omega"))
    try:
        result = rigidity_decision(gamma, omega)
    except ValueError as exc:
        raise CaseError(f"rigidity preconditions: {exc}") from exc
    report = {"command": "rigidity", "version": __version__}
    report.update(result.to_json())
    _emit(report, args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    alpha = _parse_alpha(group, case)
    mu1 = _parse_measure(group, _require(case, "mu1"))
    mu2 = _parse_measure(group, _require(case, "mu2"))
    for label, mu in (("mu1", mu1), ("mu2", mu2)):
        if is_distribution(mu).is_no:
            raise CaseError(f"{label} is not a distribution; cannot sample")
    mc = mc_symmetry_test(mu1, mu2, alpha, args.samples, seed=args.seed)
    report = {
        "command": "simulate",
        "version": __version__,
        "seed": args.seed,
        "mc": {
            "statistic": mc.statistic,
            "threshold": mc.threshold,
            "pass": mc.passed,
            "n_samples": mc.n_samples,
            "probe_count": mc.probe_count,
        },
    }
    if args.csv:
        rows = []
        for idx, mu in ((1, mu1), (2, mu2)):
            rng = np.random.default_rng(
                np.random.SeedSequence(args.seed).spawn(2)[idx - 1]
            )
            t, m, g = sample_arrays(mu, rng, min(args.samples, 100_000))
            for i in range(t.shape[0]):
                rows.append([idx, float(t[i]), int(m[i]), *[int(v) for v in g[i]]])
        header = ["measure", "t", "m"] + [f"g{k}" for k in range(group.G.rank)]
        _emit_csv(args.csv, header, rows)
    _emit(report, args.json)
    return EXIT_OK if mc.passed else EXIT_VIOLATED


def cmd_density_dump(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    mu = _parse_measure(group, _require(case, "mu"))
    cont = [t for t in mu.terms if t.atom.sigma > 0.0]
    header = ["m"] + [f"g{k}" for k in range(group.G.rank)] + ["t", "density"]
    if not cont:
        _emit_csv(args.csv, header, [])
        return EXIT_OK
    smax = max(t.atom.sigma for t in cont)
    lo = min(t.atom.shift for t in cont) - 10.0 * smax**0.5
    hi = max(t.atom.shift for t in cont) + 10.0 * smax**0.5
    ts = np.linspace(lo, hi, args.grid)
    rows = []
    seen = []
    for term in cont:
        key = (term.m, term.g.coords)
        if key in seen:
            continue
        seen.append(key)
    for m, coords in sorted(seen):
        dens, _ = density_profile(mu, m, coords, ts)
        for t_val, d_val in zip(ts, dens):
            rows.append([m, *coords, float(t_val), float(d_val)])
    _emit_csv(args.csv, header, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heyde",
        description="Symmetry-equation tooling on R x Z(2) x G: check, "
        "generate, decompose, classify, and simulate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol_default=1e-9):
        p.add_argument("case", help="JSON case file, or - for stdin")
        p.add_argument("--json", metavar="PATH", help="also write the report to PATH")
        p.add_argument("--tol", type=float, default=tol_default)

    p = sub.add_parser("check", help="grid residual of the symmetry equation")
    add_common(p)
    p.add_argument("--grid", type=int, default=33, metavar="M", help="s-grid points")
    p.add_argument("--smax", type=float, default=None, help="s-grid half width")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="build an exact instance from building blocks")
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="recover the canonical factorization")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("theta", help="two-Gaussian class membership of params")
    add_common(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("rigidity", help="decide exchangeability of a factor pair")
    add_common(p)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("simulate", help="Monte Carlo conditional-symmetry test")
    add_common(p)
    p.add_argument("--samples", type=int, default=100_000, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH", help="write sample draws as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density-dump", help="CSV of continuous coset densities")
    add_common(p)
    p.add_argument("--grid", type=int, default=201, metavar="M", help="t-grid points")
    p.add_argument("--csv", metavar="PATH", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_density_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
