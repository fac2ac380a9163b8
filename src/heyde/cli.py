"""Batch command line front end.

Subcommands read a JSON case file (or "-" for stdin), dispatch to the
library, and emit a JSON report with 17-significant-digit floats so runs
diff cleanly.  Exit codes: 0 = property holds / success, 1 = property
violated or hypothesis infeasible, 2 = invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

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
from .symmetry import SGrid, equation_residual_report, joint_law_report, mc_symmetry_test
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


def _load_pair(args) -> tuple:
    """The group, alpha, mu1 and mu2 of the case file, parsed in that order."""
    case = _load_case(args.case)
    group = _parse_group(case)
    alpha = _parse_alpha(group, case)
    mu1 = _parse_measure(group, _require(case, "mu1"))
    mu2 = _parse_measure(group, _require(case, "mu2"))
    return group, alpha, mu1, mu2


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _format_json(value, indent: int = 0) -> str:
    """Deterministic JSON; floats at 17 significant digits, integral ones with ".0"."""
    if isinstance(value, (float, np.floating)):
        text = f"{float(value):.17g}"
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool) or value is None:
        return _JSON_CONSTANTS[value]
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, dict):
        rows = [
            f"{encode_basestring_ascii(str(k))}: {_format_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        rows = [_format_json(v, indent + 1) for v in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not rows:
        return brackets
    # each row follows a newline and the inner indent; the closing bracket
    # follows a newline and this level's indent
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + ("," + inner).join(rows) + inner[:-2] + brackets[1]


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


def _emit(args, report: dict) -> None:
    """Write the report, headed by the command and the package version, to
    stdout and to --json."""
    text = _format_json({"command": args.command, "version": __version__, **report}) + "\n"
    sys.stdout.write(text)
    if args.json:
        _atomic_write(args.json, text)


def _emit_csv(path: str | None, header: list[str], columns) -> None:
    """Write one CSV column per header name: floats as %.17g, integers as
    they are."""
    cells = []
    for col in map(np.asarray, columns):
        fmt = "{:.17g}".format if col.dtype.kind == "f" else str
        cells.append(map(fmt, col.tolist()))
    text = "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    method = "grid" if args.grid is not None or args.smax is not None else "joint_law"
    _, alpha, mu1, mu2 = _load_pair(args)
    if method == "joint_law":
        joint = joint_law_report(mu1, mu2, alpha)
        residual = joint.residual
        detail = {"worst": None if joint.worst is None else joint.worst.to_json()}
    else:
        grid = SGrid(smax=args.smax, points=33 if args.grid is None else args.grid)
        report_in = equation_residual_report(mu1, mu2, alpha, grid)
        residual = report_in.residual
        detail = {"grid": {"smax": report_in.smax, "points": report_in.points}}
    passed = residual <= args.tol
    _emit(args, {"method": method, "residual": residual, "tol": args.tol, "pass": passed, **detail})
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
        _emit(args, {"error": "infeasible spec", "failures": list(exc.failures)})
        return EXIT_VIOLATED
    _emit(args, {"group": group.to_json(), **inst.to_json()})
    return EXIT_OK


def cmd_decompose(args) -> int:
    _, alpha, mu1, mu2 = _load_pair(args)
    try:
        dec = decompose(mu1, mu2, alpha, tol=args.tol)
    except DecompositionError as exc:
        _emit(args, {"error": "hypothesis violated", "diagnostics": list(exc.diagnostics)})
        return EXIT_VIOLATED
    _emit(args, {"tol": args.tol, **dec.to_json()})
    return EXIT_OK


def cmd_theta(args) -> int:
    case = _load_case(args.case)
    try:
        params = ThetaParams.from_json(case)
    except (ValueError, TypeError, KeyError) as exc:
        raise CaseError(f"invalid theta params: {exc}") from exc
    inside = is_in_theta(params)
    strict = 0.0 < params.sigma_p < params.sigma
    _emit(
        args,
        {
            "params": params.to_json(),
            "in_class": inside,
            "verdict": theta_verdict(params),
            "rho_extremal": rho_extremal(params) if strict else None,
        },
    )
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
    _emit(args, result.to_json())
    return EXIT_OK


def cmd_simulate(args) -> int:
    group, alpha, mu1, mu2 = _load_pair(args)
    for label, mu in (("mu1", mu1), ("mu2", mu2)):
        if is_distribution(mu).is_no:
            raise CaseError(f"{label} is not a distribution; cannot sample")
    mc = mc_symmetry_test(mu1, mu2, alpha, args.samples, seed=args.seed)
    report = {
        "seed": args.seed,
        "mc": {
            "statistic": mc.statistic,
            "threshold": mc.threshold,
            "pass": mc.passed,
            "n_samples": mc.n_samples,
            "probe_count": mc.probe_count,
            "worst": None if mc.worst is None else mc.worst.to_json(),
        },
    }
    if args.csv:
        # i.i.d. draws of each measure from two streams spawned from the
        # seed; the test draws its pairs grouped by coset pair, so these
        # are a second draw, not the test's samples
        count = min(args.samples, 100_000)
        rngs = (np.random.default_rng(s) for s in np.random.SeedSequence(args.seed).spawn(2))
        draws = [sample_arrays(mu, rng, count) for mu, rng in zip((mu1, mu2), rngs)]
        t, m, g = (np.concatenate(cols) for cols in zip(*draws))
        header = ["measure", "t", "m"] + [f"g{k}" for k in range(group.G.rank)]
        _emit_csv(args.csv, header, [np.repeat([1, 2], count), t, m, *g.T])
    _emit(args, report)
    return EXIT_OK if mc.passed else EXIT_VIOLATED


def cmd_density_dump(args) -> int:
    case = _load_case(args.case)
    group = _parse_group(case)
    mu = _parse_measure(group, _require(case, "mu"))
    cont = mu.sigma > 0.0
    header = ["m"] + [f"g{k}" for k in range(group.G.rank)] + ["t", "density"]
    if not cont.any():
        _emit_csv(args.csv, header, [])
        return EXIT_OK
    smax = float(mu.sigma[cont].max())
    lo = float(mu.shift[cont].min()) - 10.0 * smax**0.5
    hi = float(mu.shift[cont].max()) + 10.0 * smax**0.5
    ts = np.linspace(lo, hi, args.grid)
    cosets = sorted(set(zip(mu.m[cont].tolist(), map(tuple, mu.g[cont].tolist()))))
    dens = [density_profile(mu, m, coords, ts)[0] for m, coords in cosets]
    keys = np.repeat(np.array([(m, *coords) for m, coords in cosets]), len(ts), axis=0)
    _emit_csv(args.csv, header, [*keys.T, np.tile(ts, len(cosets)), np.concatenate(dens)])
    return EXIT_OK


def _checked(convert, accept, rule: str):
    """argparse type: convert the text, then refuse values outside the rule."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    return parse


# a NaN tolerance would let every "residual > tol" test pass
TOL = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")
SMAX = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")
SAMPLES = _checked(int, lambda v: v >= 1, "an integer >= 1")
GRID = _checked(int, lambda v: v >= 2, "an integer >= 2")
SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every later
    call in the process: parse_args keeps no state between calls."""
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
        p.add_argument("--tol", type=TOL, default=tol_default)

    p = sub.add_parser(
        "check", help="residual of the symmetry equation (exact joint law, or an s-grid)"
    )
    add_common(p)
    p.add_argument(
        "--grid", type=GRID, default=None, metavar="M", help="use an s-grid of M points (33)"
    )
    p.add_argument("--smax", type=SMAX, default=None, help="use an s-grid of this half width")
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
    p.add_argument("--samples", type=SAMPLES, default=100_000, metavar="N")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--csv", metavar="PATH", help="write sample draws as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density-dump", help="CSV of continuous coset densities")
    add_common(p)
    p.add_argument("--grid", type=GRID, default=201, metavar="M", help="t-grid points")
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
