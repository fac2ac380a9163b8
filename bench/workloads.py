"""Inputs, calls and truth checks for the three benchmark workloads.

Every workload is a fixed list of cases built from the benchmark seed.  A
case is one call into ``heyde`` that a batch user would wait on; its check
compares the outcome with the truth the case was built from, using only
plain arithmetic here, never the library's own code paths.

Module functions are looked up on their ``heyde`` module at call time, so
the traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

import heyde.cli as cli_mod
import heyde.structure as structure_mod
import heyde.symmetry as symmetry_mod
from heyde.ambient import AmbientGroup
from heyde.finite_abelian import FiniteAbelianGroup, GroupAutomorphism, kernel_of_I_plus
from heyde.measures import AtomicSignedMeasure
from heyde.structure import DecompositionError, GeneratedInstance, InstanceSpec
from heyde.theta import ThetaParams

OK = "ok"
FAIL = "fail"
# Outcomes that contradict the truth because of a defect already filed in
# ROADMAP.md.  They count in failed_frac but not in the result's "failed".
KNOWN_DEFECTS = {
    "mc_false_alarm": "ROADMAP 4: the fixed 4/sqrt(N) threshold rejects an exact pair",
    "nan_passes_check": "ROADMAP 3: check with sigma NaN exits 0",
    "theta_inf_json": "ROADMAP 3: theta with sigma Infinity prints a bare inf",
    "false_yes_sampled": "ROADMAP 3: simulate samples a measure with a negative density",
}

# Over 1600 null runs of this module's exact pairs at N = 1e4, 1.9% were
# rejected and the statistic stayed below 1.23 thresholds; a perturbed pair
# sits near 7 at N = 1e6.  A rejection of an exact pair under this ratio is
# the known false alarm, above it a failure.
MC_FALSE_ALARM_RATIO = 1.5
TRUTH_TOL = 1e-9
PERTURB_EPS = 0.05
SIGMA_RATIO = 0.5
# The scale a of alpha on R.  Like sigma'/sigma, it sets the residual grid's
# subnormal share, so it is fixed wherever the grid residual runs.
DEFAULT_A = -2.0

# (cyclic orders, alpha_G matrix); the matrix fixes |Ker(I + alpha_G)|,
# and with it the cost of a case, independently of the seed.
Z3 = ((3,), ((2,),))
Z5 = ((5,), ((4,),))
Z7 = ((7,), ((6,),))
Z9 = ((9,), ((2,),))
Z3Z3 = ((3, 3), ((2, 0), (0, 2)))
Z3Z5 = ((3, 5), ((2, 0), (0, 4)))
Z9Z5 = ((9, 5), ((2, 0), (0, 4)))
Z3Z5Z7 = ((3, 5, 7), ((2, 0, 0), (0, 4, 0), (0, 0, 6)))
Z15Z15 = ((15, 15), ((14, 0), (0, 4)))


@dataclass(frozen=True)
class Unexpected:
    """A case call raised an exception its workload does not expect."""

    error: BaseException


@dataclass(frozen=True)
class Case:
    """One timed call and the check of its outcome.

    ``check`` returns (status, digest): status is OK, FAIL or a key of
    KNOWN_DEFECTS; digest is a stable text of the program's output, so two
    runs of the same case can be compared.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


# --------------------------------------------------------------------------
# instance generation


def rho_bound(sigma: float, m: float, sigma_p: float, m_p: float) -> float:
    """The two-Gaussian extremal coefficient, from its closed form."""
    return math.sqrt(sigma_p / sigma) * math.exp(-((m - m_p) ** 2) / (4.0 * (sigma - sigma_p)))


def draw_theta(rng: random.Random, point_mass: bool = False) -> ThetaParams:
    """Class parameters strictly inside the class, with distinct atoms.

    sigma'/sigma is fixed: with the residual grid scaled to the smallest
    sigma, that ratio sets how much of the grid underflows into subnormal
    floats, which are slow, so a drawn ratio would make the cost of a case
    depend on the seed.
    """
    sign = rng.choice((-1.0, 1.0))
    if point_mass:
        m = rng.uniform(-0.4, 0.4)
        return ThetaParams(0.0, 0.0, m, m, sign * rng.uniform(0.4, 0.6))
    sigma = rng.uniform(0.6, 1.6)
    sigma_p = SIGMA_RATIO * sigma
    m, m_p = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
    kappa = sign * rng.uniform(0.4, 0.6) * rho_bound(sigma, m, sigma_p, m_p)
    return ThetaParams(sigma, sigma_p, m, m_p, kappa)


def draw_instance(
    rng: random.Random, group_spec, a: float = DEFAULT_A, point_mass: bool = False
) -> GeneratedInstance:
    """An exact solution pair on the given group.

    omega2 puts more than half its mass on one kernel point, so its
    characteristic function cannot vanish and the pair always decomposes.
    """
    orders, matrix = group_spec
    G = FiniteAbelianGroup(orders)
    X = AmbientGroup(G)
    alpha_G = GroupAutomorphism(G, matrix)
    kernel = kernel_of_I_plus(alpha_G)
    support = rng.sample(kernel, min(3, len(kernel)))
    head = rng.uniform(0.55, 0.7)
    split = rng.uniform(0.3, 0.7)
    weights = [head, (1.0 - head) * split, (1.0 - head) * (1.0 - split)][: len(support)]
    weights[-1] += 1.0 - sum(weights)
    omega2 = AtomicSignedMeasure.from_terms(
        X, [(w, 0.0, 0.0, rng.randrange(2), g) for w, g in zip(weights, support)]
    )
    x2 = X.point(
        rng.uniform(-1.0, 1.0), rng.randrange(2), [rng.randrange(n) for n in orders]
    )
    spec = InstanceSpec(
        group=X,
        a=a,
        alpha_G=alpha_G,
        theta2=draw_theta(rng, point_mass),
        omega2=omega2,
        vartheta_d=rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9),
        x2=x2,
    )
    return structure_mod.generate_instance(spec)


def perturb(mu: AtomicSignedMeasure, eps: float = PERTURB_EPS) -> AtomicSignedMeasure:
    """Bump the largest coefficient by eps, then rescale to the old mass."""
    k = max(range(len(mu.terms)), key=lambda i: abs(mu.terms[i].c))
    raw = [
        (t.c + (eps if i == k else 0.0), t.atom.sigma, t.atom.shift, t.m, t.g)
        for i, t in enumerate(mu.terms)
    ]
    scale = mu.total_mass() / (mu.total_mass() + eps)
    return AtomicSignedMeasure.from_terms(
        mu.group, [(c * scale, s, sh, m, g) for c, s, sh, m, g in raw]
    )


def same_coset(g, h, orders, kernel: set) -> bool:
    return tuple((x - y) % n for x, y, n in zip(g, h, orders)) in kernel


def gamma_error(gamma: dict, theta: dict, t_shift: float) -> float:
    """Largest gap between recovered gamma and the truth seen through a
    shift: the real part of the shift folds into both centres."""
    return max(
        abs(gamma["sigma"] - theta["sigma"]),
        abs(gamma["sigma_p"] - theta["sigma_p"]),
        abs(gamma["m"] - (theta["m"] + t_shift)),
        abs(gamma["m_p"] - (theta["m_p"] + t_shift)),
    )


def decomposition_status(dec: dict, truth: dict, orders, kernel: set) -> str:
    """Check a generic-branch decomposition (as JSON) against its truth."""
    if dec.get("branch") != structure_mod.BRANCH_GENERIC:
        return FAIL
    for j in (0, 1):
        x = truth[f"x{j + 1}"]
        if gamma_error(dec["gamma"][j], truth[f"theta{j + 1}"], x["t"]) > TRUTH_TOL:
            return FAIL
        shift = dec["shift"][j]
        if abs(shift["t"]) > TRUTH_TOL or not same_coset(shift["g"], x["g"], orders, kernel):
            return FAIL
    if dec["reconstruction_error"] > TRUTH_TOL:
        return FAIL
    return OK


def stable_json(value) -> str:
    return json.dumps(value, sort_keys=True)


# --------------------------------------------------------------------------
# decompose_large_g


def decompose_cases(seed: int, tiny: bool) -> list[Case]:
    """Exact pairs at |G| = 45, 105, 225 and one perturbed pair at |G| = 105.

    The perturbed pair must be refused by the residual gate, so both of the
    gate's outcomes are timed.  Sizes and kernels are fixed; the seed draws
    the parameters, which leaves the cost of a case unchanged.
    """
    rng = random.Random(f"decompose_large_g:{seed}")
    specs = (Z3, Z5, Z9, Z5) if tiny else (Z9Z5, Z3Z5Z7, Z15Z15, Z3Z5Z7)
    cases = []
    for idx, group_spec in enumerate(specs):
        inst = draw_instance(rng, group_spec)
        exact = idx < 3
        mu2 = inst.mu2 if exact else perturb(inst.mu2)
        name = f"G{inst.mu1.group.G.order}" + ("" if exact else "_perturbed")
        cases.append(
            Case(name, _decompose_call(inst.mu1, mu2, inst.alpha), _decompose_check(inst, exact))
        )
    return cases


def _decompose_call(mu1, mu2, alpha):
    def call():
        try:
            return structure_mod.decompose(mu1, mu2, alpha)
        except DecompositionError as exc:
            return exc

    return call


def _decompose_check(inst: GeneratedInstance, exact: bool):
    orders = inst.mu1.group.G.cyclic_orders
    kernel = {k.coords for k in inst.kernel}
    truth = inst.to_json()["truth"]

    def check(out) -> tuple[str, str]:
        if isinstance(out, DecompositionError):
            digest = stable_json(list(out.diagnostics))
            gate = str(out).startswith("equation residual")
            return (OK if not exact and gate else FAIL), digest
        if isinstance(out, Unexpected):
            return FAIL, repr(out.error)
        dec = out.to_json()
        if not exact:
            return FAIL, stable_json(dec)
        return decomposition_status(dec, truth, orders, kernel), stable_json(dec)

    return check


# --------------------------------------------------------------------------
# mc_simulate


MC_SAMPLES = 10**6
TINY_MC_SAMPLES = 250_000


def mc_cases(seed: int, tiny: bool) -> list[Case]:
    """Criterion-3-style exact pairs on Z(3), Z(3)xZ(5), Z(9) and one
    all-point-mass pair with a > 0, each followed by its perturbed partner.

    On Z(9) alpha_G is 2, whose kernel {0, 3, 6} keeps every perturbation
    visible to the test's probes: with alpha_G = -1 some seeds put the
    perturbed pair's population statistic at the threshold itself.  The
    Monte Carlo seed of each pair is drawn from the benchmark seed.  The
    tiny size keeps the two pairs that stay far from the threshold.
    """
    rng = random.Random(f"mc_simulate:{seed}")
    insts = [draw_instance(rng, spec, a=rng.choice((-0.5, -2.0, -3.0))) for spec in (Z3, Z3Z5, Z9)]
    insts.append(draw_instance(rng, Z3Z5, a=rng.choice((0.5, 2.0, 3.0)), point_mass=True))
    n = TINY_MC_SAMPLES if tiny else MC_SAMPLES
    cases = []
    for idx, inst in enumerate(insts):
        if tiny and idx not in (0, 2):
            continue
        mc_seed = rng.randrange(2**32)
        label = f"G{inst.mu1.group.G.order}_a{inst.alpha.a:g}"
        for exact, mu2 in ((True, inst.mu2), (False, perturb(inst.mu2))):
            cases.append(
                Case(
                    label + ("" if exact else "_perturbed"),
                    _mc_call(inst.mu1, mu2, inst.alpha, n, mc_seed),
                    _mc_check(exact),
                )
            )
    return cases


def _mc_call(mu1, mu2, alpha, n, mc_seed):
    def call():
        return symmetry_mod.mc_symmetry_test(mu1, mu2, alpha, n, seed=mc_seed)

    return call


def mc_status(exact: bool, passed: bool, statistic: float, threshold: float) -> str:
    if passed == exact:
        return OK
    if exact and statistic <= MC_FALSE_ALARM_RATIO * threshold:
        return "mc_false_alarm"
    return FAIL


def _mc_check(exact: bool):
    def check(out) -> tuple[str, str]:
        if isinstance(out, Unexpected):
            return FAIL, repr(out.error)
        digest = stable_json([out.statistic, out.passed, out.probe_count])
        return mc_status(exact, out.passed, out.statistic, out.threshold), digest

    return check


# --------------------------------------------------------------------------
# cli_batch_small


CLI_SIM_SAMPLES = 20_000
DENSITY_GRID = 201
# chains: generate -> check -> decompose; every fourth chain is perturbed
CHAIN_GROUPS = (Z3, Z3, Z3, Z3, Z5, Z5, Z7, Z9)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse as RFC 8259 JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """heyde.cli.main in-process, stdin fed from text, output captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_mod.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class _Chain:
    """Holds the stdin text for the cases after a timed generate case, built
    from its stdout by the untimed check."""

    def __init__(self, perturbed: bool):
        self.perturbed = perturbed
        self.text: str | None = None

    def accept(self, payload: dict | None) -> None:
        if payload is not None and self.perturbed:
            terms = [dict(t) for t in payload["mu2"]["terms"]]
            k = max(range(len(terms)), key=lambda i: abs(terms[i]["c"]))
            total = sum(t["c"] for t in terms)
            terms[k]["c"] += PERTURB_EPS
            for t in terms:
                t["c"] *= total / (total + PERTURB_EPS)
            payload = payload | {"mu2": {"terms": terms}}
        self.text = None if payload is None else json.dumps(payload)

    def case_text(self) -> str:
        if self.text is None:
            raise RuntimeError("generate produced no payload for this chain")
        return self.text


def _generate_spec(inst: GeneratedInstance) -> dict:
    G = inst.mu1.group.G
    return {
        "group": G.to_json(),
        "a": inst.alpha.a,
        "alpha_G": inst.alpha.alpha_G.to_json(),
        "theta2": inst.theta2.to_json(),
        "omega2": inst.omega2.to_json(),
        "vartheta_d": inst.vartheta_d,
        "x2": inst.x2.to_json(),
    }


def _cli_case(name: str, argv: list[str], text, expect: Callable) -> Case:
    """``text`` is the stdin text or a function producing it at call time;
    ``expect(code, stdout)`` returns a status."""

    def call():
        return run_cli(argv, text() if callable(text) else text)

    def check(out) -> tuple[str, str]:
        if isinstance(out, Unexpected):
            return FAIL, repr(out.error)
        code, stdout, stderr = out
        try:
            status = expect(code, stdout)
        except (KeyError, TypeError, ValueError, IndexError):
            status = FAIL  # the report lacks a field the truth check reads
        return status, stable_json([code, stdout, stderr])

    return Case(name, call, check)


def _expect_json(code_ok: int, test: Callable[[dict], bool]):
    def expect(code, stdout) -> str:
        if code != code_ok:
            return FAIL
        try:
            report = strict_json(stdout)
        except ValueError:
            return FAIL
        return OK if test(report) else FAIL

    return expect


def _chain_cases(rng: random.Random, idx: int, group_spec, chain: _Chain) -> list[Case]:
    inst = draw_instance(rng, group_spec)
    orders = inst.mu1.group.G.cyclic_orders
    kernel = {k.coords for k in inst.kernel}
    truth = inst.to_json()["truth"]
    tag = f"chain{idx}_G{inst.mu1.group.G.order}" + ("_perturbed" if chain.perturbed else "")

    def generated(code, stdout) -> str:
        chain.accept(None)
        if code != cli_mod.EXIT_OK:
            return FAIL
        try:
            payload = strict_json(stdout)
        except ValueError:
            return FAIL
        if payload.get("truth", {}).get("theta2") != truth["theta2"]:
            return FAIL
        chain.accept(payload)
        return OK

    if chain.perturbed:
        check_expect = _expect_json(cli_mod.EXIT_VIOLATED, lambda r: r["pass"] is False)
        dec_expect = _expect_json(
            cli_mod.EXIT_VIOLATED, lambda r: r.get("error") == "hypothesis violated"
        )
    else:
        check_expect = _expect_json(
            cli_mod.EXIT_OK, lambda r: r["pass"] is True and r["residual"] <= TRUTH_TOL
        )
        dec_expect = _expect_json(
            cli_mod.EXIT_OK, lambda r: decomposition_status(r, truth, orders, kernel) == OK
        )
    return [
        _cli_case(f"{tag}.generate", ["generate", "-"], json.dumps(_generate_spec(inst)), generated),
        _cli_case(f"{tag}.check", ["check", "-"], chain.case_text, check_expect),
        _cli_case(f"{tag}.decompose", ["decompose", "-"], chain.case_text, dec_expect),
    ]


def _theta_case(rng: random.Random, idx: int) -> Case:
    kind = ("inside", "outside", "degenerate")[idx % 3]
    p = draw_theta(rng).to_json()
    if kind == "outside":
        rho = rho_bound(p["sigma"], p["m"], p["sigma_p"], p["m_p"])
        p["kappa"] = math.copysign(rho * rng.uniform(1.1, 1.5), p["kappa"])
    elif kind == "degenerate":
        p["sigma_p"], p["m_p"] = p["sigma"], p["m"]
        p["kappa"] = rng.uniform(-0.9, 0.9)
    inside = kind != "outside"
    expect = _expect_json(
        cli_mod.EXIT_OK if inside else cli_mod.EXIT_VIOLATED,
        lambda r: r["in_class"] is inside,
    )
    return _cli_case(f"theta{idx}_{kind}", ["theta", "-"], json.dumps(p), expect)


def _rigidity_case(rng: random.Random, idx: int) -> Case:
    """Pairs whose rigidity is known from the definition: rigid exactly when
    kappa is extremal and some finite point carries only one parity."""
    kind = ("rigid", "inside", "extremal")[idx % 3]
    p = draw_theta(rng).to_json()
    rho = rho_bound(p["sigma"], p["m"], p["sigma_p"], p["m_p"])
    p["kappa"] = math.copysign(rho if kind != "inside" else 0.5 * rho, p["kappa"])
    w = rng.uniform(0.4, 0.6)
    if kind == "rigid":
        cells = [(w, 0, 0), ((1.0 - w) * 0.6, 0, 1), ((1.0 - w) * 0.4, 1, 1)]
    else:
        cells = [(w * 0.7, 0, 0), (w * 0.3, 1, 0), ((1.0 - w) * 0.6, 0, 1), ((1.0 - w) * 0.4, 1, 1)]
    terms = [{"c": c, "sigma": 0.0, "shift": 0.0, "m": m, "g": [g]} for c, m, g in cells]
    case = {"group": {"cyclic_orders": [3]}, "gamma": p, "omega": {"terms": terms}}
    rigid = kind == "rigid"
    expect = _expect_json(cli_mod.EXIT_OK, lambda r: r["rigid"] is rigid)
    return _cli_case(f"rigidity{idx}_{kind}", ["rigidity", "-"], json.dumps(case), expect)


def _density_case(rng: random.Random, idx: int) -> Case:
    inst = draw_instance(rng, Z3)
    mu = inst.mu2
    cont = [t for t in mu.terms if t.atom.sigma > 0.0]
    smax = max(t.atom.sigma for t in cont)
    lo = min(t.atom.shift for t in cont) - 10.0 * smax**0.5
    hi = max(t.atom.shift for t in cont) + 10.0 * smax**0.5
    cosets = sorted({(t.m, t.g.coords) for t in cont})

    def density(m, coords, t):
        return sum(
            a.c * math.exp(-((t - a.atom.shift) ** 2) / (4.0 * a.atom.sigma))
            / (2.0 * math.sqrt(math.pi * a.atom.sigma))
            for a in cont
            if (a.m, a.g.coords) == (m, coords)
        )

    def expect(code, stdout) -> str:
        rows = stdout.strip().split("\n")
        if code != cli_mod.EXIT_OK or len(rows) != 1 + len(cosets) * DENSITY_GRID:
            return FAIL
        step = (hi - lo) / (DENSITY_GRID - 1)
        for k, row in enumerate(rows[1:]):
            m, g0, t, dens = row.split(",")
            coset = cosets[k // DENSITY_GRID]
            t_want = lo + step * (k % DENSITY_GRID)
            if (int(m), (int(g0),)) != coset or abs(float(t) - t_want) > 1e-9:
                return FAIL
            if abs(float(dens) - density(coset[0], coset[1], float(t))) > 1e-12:
                return FAIL
        return OK

    case = json.dumps({"group": {"cyclic_orders": [3]}, "mu": mu.to_json()})
    return _cli_case(
        f"density{idx}", ["density-dump", "-", "--grid", str(DENSITY_GRID)], case, expect
    )


def _simulate_case(idx: int, chain: _Chain, seed: int) -> Case:
    def expect(code, stdout) -> str:
        if code not in (cli_mod.EXIT_OK, cli_mod.EXIT_VIOLATED):
            return FAIL
        try:
            mc = strict_json(stdout)["mc"]
        except (ValueError, KeyError):
            return FAIL
        if mc["pass"] is not (code == cli_mod.EXIT_OK):
            return FAIL
        return mc_status(True, mc["pass"], mc["statistic"], mc["threshold"])

    argv = ["simulate", "-", "--samples", str(CLI_SIM_SAMPLES), "--seed", str(seed)]
    return _cli_case(f"simulate{idx}", argv, chain.case_text, expect)


# ROADMAP item 3's counterexample: the density reaches -0.42 at t = 0
BAD_MEASURE = {
    "terms": [
        {"c": 0.6, "sigma": 4.0, "shift": 0.0, "m": 0, "g": [0]},
        {"c": 0.4, "sigma": 3.6, "shift": 0.0, "m": 0, "g": [0]},
        {"c": -2e-3, "sigma": 1e-6, "shift": 0.0, "m": 0, "g": [0]},
    ]
}


def _defect_cases() -> list[Case]:
    """Invalid or defective inputs; each is expected to exit 2 (theta may
    instead print strict JSON)."""
    group = {"cyclic_orders": [3]}
    alpha = {"a": -2.0, "alpha_G": {"matrix": [[2]]}}
    unit = {"dirac": {"t": 0.0, "m": 0, "g": [0]}}
    nan_measure = {"terms": [{"c": 1.0, "sigma": float("nan"), "shift": 0.0, "m": 0, "g": [0]}]}
    theta_inf = {"sigma": float("inf"), "sigma_p": 0.5, "m": 0.0, "m_p": 0.0, "kappa": 0.3}

    def exits_2(defect: str = FAIL):
        return lambda code, stdout: OK if code == cli_mod.EXIT_INVALID else defect

    def theta_strict(code, stdout) -> str:
        if code == cli_mod.EXIT_INVALID:
            return OK
        try:
            strict_json(stdout)
        except ValueError:
            return "theta_inf_json"
        return OK

    full = {"group": group, "alpha": alpha, "mu1": unit, "mu2": unit}
    return [
        _cli_case("defect_malformed_json", ["check", "-"], '{"group": {"cyclic_orders": [3]', exits_2()),
        _cli_case(
            "defect_missing_key", ["check", "-"],
            json.dumps({k: v for k, v in full.items() if k != "mu2"}), exits_2(),
        ),
        _cli_case(
            "defect_check_nan", ["check", "-"], json.dumps(full | {"mu1": nan_measure}),
            exits_2("nan_passes_check"),
        ),
        _cli_case("defect_theta_inf", ["theta", "-"], json.dumps(theta_inf), theta_strict),
        _cli_case(
            "defect_simulate_negative_density",
            ["simulate", "-", "--samples", str(CLI_SIM_SAMPLES)],
            json.dumps(full | {"mu1": BAD_MEASURE}),
            exits_2("false_yes_sampled"),
        ),
    ]


def cli_cases(seed: int, tiny: bool) -> list[Case]:
    """Small CLI calls, thousands per run: generate -> check -> decompose
    chains, theta, rigidity, density-dump, simulate, and the defect slice.
    Most chains are on |G| <= 5 so that per-call Python overhead, not the
    grid residual or the MC test, dominates a round."""
    rng = random.Random(f"cli_batch_small:{seed}")
    groups = CHAIN_GROUPS[:2] if tiny else CHAIN_GROUPS
    chains = [_Chain(perturbed=idx % 4 == 3) for idx in range(len(groups))]
    cases: list[Case] = []
    for idx, (group_spec, chain) in enumerate(zip(groups, chains)):
        cases += _chain_cases(rng, idx, group_spec, chain)
    cases += [_theta_case(rng, idx) for idx in range(12)]
    cases += [_rigidity_case(rng, idx) for idx in range(6)]
    cases += [_density_case(rng, idx) for idx in range(2)]
    cases.append(_simulate_case(0, chains[0], rng.randrange(2**31)))
    cases += _defect_cases()
    return cases


BUILDERS = {
    "decompose_large_g": decompose_cases,
    "mc_simulate": mc_cases,
    "cli_batch_small": cli_cases,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    return BUILDERS[workload](seed, tiny)


def warm_up(workload: str) -> None:
    """Run small calls of each kind once, untimed, so that lazy imports and
    first-call set-up happen before timing."""
    if workload == "mc_simulate":
        inst = draw_instance(random.Random("warm-up"), Z3)
        symmetry_mod.mc_symmetry_test(inst.mu1, inst.mu2, inst.alpha, 2000)
        return
    for case in build(workload, seed=0, tiny=True):
        case.check(case.call())


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()
