import csv
import hashlib
import json
import math

import numpy as np
import pytest

from heyde import AmbientGroup, AtomicSignedMeasure, decompose, mc_symmetry_test, sample_arrays
from heyde.cli import EXIT_INVALID, EXIT_OK, EXIT_VIOLATED, _format_json, build_parser, main
from conftest import standard_instance

GROUP = {"cyclic_orders": [3]}
ALPHA = {"a": -2.0, "alpha_G": {"matrix": [[2]]}}  # negation on Z(3)

GENERATE_CASE = {
    "group": GROUP,
    "a": -2.0,
    "alpha_G": {"matrix": [[2]]},
    "theta2": {"sigma": 1.0, "sigma_p": 0.5, "m": 0.0, "m_p": 0.0, "kappa": 0.3},
    "omega2": {
        "terms": [
            {"c": 0.4, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]},
            {"c": 0.3, "sigma": 0.0, "shift": 0.0, "m": 1, "g": [1]},
            {"c": 0.3, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [2]},
        ]
    },
    "vartheta_d": 0.4,
    "x2": {"t": 1.0, "m": 0, "g": [0]},
}


def write_case(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def generated_payload(tmp_path, capsys):
    code, out = run(capsys, ["generate", write_case(tmp_path, GENERATE_CASE)])
    assert code == EXIT_OK
    return json.loads(out)


class TestGenerate:
    def test_exit_zero_and_payload(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        assert payload["command"] == "generate"
        assert {"mu1", "mu2", "alpha", "truth", "group"} <= payload.keys()

    def test_infeasible_exits_one_with_failures(self, tmp_path, capsys):
        case = dict(GENERATE_CASE)
        case["vartheta_d"] = 1.5
        code, out = run(capsys, ["generate", write_case(tmp_path, case)])
        assert code == EXIT_VIOLATED
        report = json.loads(out)
        assert report["error"] == "infeasible spec"
        assert any("vartheta" in f for f in report["failures"])

    def test_mass_within_mass_tol_is_accepted(self, tmp_path, capsys):
        # total mass 0.9999999999: off by 1e-10, inside decompose's MASS_TOL
        case = dict(GENERATE_CASE)
        case["omega2"] = {
            "terms": [
                {"c": 0.3333333333, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [g]}
                for g in range(3)
            ]
        }
        code, out = run(capsys, ["generate", write_case(tmp_path, case)])
        assert code == EXIT_OK, out

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_case(tmp_path, GENERATE_CASE)
        _, out1 = run(capsys, ["generate", path])
        _, out2 = run(capsys, ["generate", path])
        assert out1 == out2

    def test_json_file_written_atomically(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out = run(
            capsys,
            ["generate", write_case(tmp_path, GENERATE_CASE), "--json", str(target)],
        )
        assert code == EXIT_OK
        assert json.loads(target.read_text()) == json.loads(out)


class TestCheckPipeline:
    def test_generate_feeds_check(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        check_case = write_case(tmp_path, payload, "check.json")
        code, out = run(capsys, ["check", check_case])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residual"] <= 1e-9

    def test_perturbed_case_fails(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        terms = payload["mu2"]["terms"]
        total = sum(t["c"] for t in terms)
        terms[0]["c"] += 0.05
        scale = total / (total + 0.05)
        for t in terms:
            t["c"] *= scale
        code, out = run(capsys, ["check", write_case(tmp_path, payload, "bad.json")])
        assert code == EXIT_VIOLATED
        assert json.loads(out)["pass"] is False

    def test_joint_law_is_the_default_and_names_its_worst_key(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        code, out = run(capsys, ["check", write_case(tmp_path, payload, "check.json")])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["method"] == "joint_law"
        assert "grid" not in report
        terms = payload["mu2"]["terms"]
        terms[0]["c"] += 0.05
        code, out = run(capsys, ["check", write_case(tmp_path, payload, "bad.json")])
        assert code == EXIT_VIOLATED
        worst = json.loads(out)["worst"]
        assert set(worst) == {"n", "g1", "g2", "mean", "coefficient"}
        assert abs(worst["coefficient"]) > 1e-3

    def test_grid_options_select_the_grid_path(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "check.json")
        code, out = run(capsys, ["check", case, "--smax", "2.0"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["method"] == "grid" and "worst" not in report
        assert report["grid"] == {"smax": 2.0, "points": 33}

    def test_grid_flags_echoed(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "check.json")
        code, out = run(capsys, ["check", case, "--smax", "2.0", "--grid", "9"])
        report = json.loads(out)
        assert report["grid"] == {"smax": 2.0, "points": 9}

    def test_decompose_pipeline(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "dec.json")
        code, out = run(capsys, ["decompose", case])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["branch"] == "a_not_minus_one"
        assert report["reconstruction_error"] <= 1e-10

    def test_decompose_rejects_perturbed(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        terms = payload["mu2"]["terms"]
        total = sum(t["c"] for t in terms)
        terms[0]["c"] += 0.05
        for t in terms:
            t["c"] *= total / (total + 0.05)
        code, out = run(capsys, ["decompose", write_case(tmp_path, payload, "b.json")])
        assert code == EXIT_VIOLATED
        assert "diagnostics" in json.loads(out)


# valid instances whose omega characteristic function vanishes somewhere:
# decompose factors them like any other valid pair
VANISHING_OMEGA2 = {
    "odd_slice": [
        {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]},
        {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 1, "g": [0]},
    ],
    "cancelling_odd": [
        {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]},
        {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 1, "g": [1]},
    ],
    "uniform_on_K": [
        {"c": 1.0 / 3.0, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [g]} for g in range(3)
    ],
}


@pytest.mark.parametrize("omega_key", sorted(VANISHING_OMEGA2))
def test_decompose_vanishing_omega_exits_one(tmp_path, capsys, omega_key):
    case = dict(GENERATE_CASE)
    case.update(
        a=-1.0,
        theta2={"sigma": 1.0, "sigma_p": 0.5, "m": 0.1, "m_p": -0.2, "kappa": 0.3},
        omega2={"terms": VANISHING_OMEGA2[omega_key]},
        vartheta_d=0.5,
        x2={"t": 0.3, "m": 1, "g": [1]},
    )
    code, out = run(capsys, ["generate", write_case(tmp_path, case)])
    assert code == EXIT_OK
    payload_path = write_case(tmp_path, json.loads(out), "inst.json")
    code, out = run(capsys, ["check", payload_path])
    assert code == EXIT_OK
    code, out = run(capsys, ["decompose", payload_path])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["branch"] == "a_minus_one"
    assert report["reconstruction_error"] <= 1e-10


class TestTheta:
    def test_member_exits_zero(self, tmp_path, capsys):
        case = {"sigma": 1.0, "sigma_p": 1.0, "m": 0.0, "m_p": 0.0, "kappa": 0.5}
        code, out = run(capsys, ["theta", write_case(tmp_path, case)])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["in_class"] is True
        assert report["verdict"] == "inside"
        assert report["rho_extremal"] is None

    def test_nonmember_exits_one(self, tmp_path, capsys):
        case = {"sigma": 1.0, "sigma_p": 0.5, "m": 0.0, "m_p": 0.0, "kappa": 0.8}
        code, out = run(capsys, ["theta", write_case(tmp_path, case)])
        assert code == EXIT_VIOLATED
        report = json.loads(out)
        assert report["in_class"] is False
        assert report["rho_extremal"] == pytest.approx(0.7071067811865476)


class TestRigidity:
    def test_flexible_report(self, tmp_path, capsys):
        case = {
            "group": GROUP,
            "gamma": {"sigma": 1.0, "sigma_p": 0.5, "m": 0.0, "m_p": 0.0, "kappa": 0.5},
            "omega": {
                "terms": [
                    {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]},
                    {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 1, "g": [1]},
                ]
            },
        }
        code, out = run(capsys, ["rigidity", write_case(tmp_path, case)])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["rigid"] is False
        assert report["witness_c"] is not None

    def test_precondition_error_exits_two(self, tmp_path, capsys):
        case = {
            "group": GROUP,
            "gamma": {"sigma": 1.0, "sigma_p": 1.0, "m": 0.0, "m_p": 0.0, "kappa": 0.5},
            "omega": {
                "terms": [{"c": 1.0, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]}]
            },
        }
        code, _ = run(capsys, ["rigidity", write_case(tmp_path, case)])
        assert code == EXIT_INVALID


class TestSimulate:
    def test_pass_and_csv(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "sim.json")
        csv_path = tmp_path / "samples.csv"
        code, out = run(
            capsys,
            [
                "simulate",
                case,
                "--samples",
                "20000",
                "--seed",
                "5",
                "--csv",
                str(csv_path),
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["mc"]["pass"] is True
        assert report["mc"]["n_samples"] == 20000
        worst = report["mc"]["worst"]
        assert 0 <= worst["index"] < report["mc"]["probe_count"]
        for side in ("u", "v"):
            assert set(worst[side]) == {"s", "n", "h"}
            assert len(worst[side]["h"]) == 1
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["measure", "t", "m", "g0"]
        assert len(rows) == 1 + 2 * 20000
        assert {r[0] for r in rows[1:]} == {"1", "2"}

    def test_csv_matches_a_row_by_row_reference(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "sim.json")
        csv_path = tmp_path / "samples.csv"
        code, out = run(
            capsys, ["simulate", case, "--samples", "300", "--seed", "4", "--csv", str(csv_path)]
        )
        # the verdict at N = 300 is the uncalibrated 4/sqrt(N) test (ROADMAP
        # item 4), which this pair fails at about 1.06 x its threshold; the
        # exit code need only follow it
        assert code == (EXIT_OK if json.loads(out)["mc"]["pass"] else EXIT_VIOLATED)
        # the same draws, formatted one row of Python values at a time
        group = AmbientGroup.from_json(payload["group"])
        lines = ["measure,t,m,g0"]
        seeds = np.random.SeedSequence(4).spawn(2)
        for idx, (name, seed) in enumerate(zip(("mu1", "mu2"), seeds), start=1):
            mu = AtomicSignedMeasure.from_json(group, payload[name])
            t, m, g = sample_arrays(mu, np.random.default_rng(seed), 300)
            for i in range(300):
                row = [idx, float(t[i]), int(m[i]), *[int(v) for v in g[i]]]
                lines.append(
                    ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                )
        assert csv_path.read_text() == "\n".join(lines) + "\n"

    def test_csv_bytes_are_pinned(self, tmp_path, capsys):
        # the CSV draws each measure by sample_arrays, apart from the test's
        # own pairs; its bytes are those of the exact-envelope sampler that
        # draws cosets with no negative term directly
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "sim.json")
        csv_path = tmp_path / "samples.csv"
        code, _ = run(
            capsys, ["simulate", case, "--samples", "2000", "--seed", "9", "--csv", str(csv_path)]
        )
        assert code == EXIT_OK
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert digest == "11ad7d576780852dc95d0182a9048c9b5de36ad0eaf998d33c150f8aeaa615f4"

    def test_seed_changes_statistic(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "sim.json")
        _, out1 = run(capsys, ["simulate", case, "--samples", "5000", "--seed", "1"])
        _, out2 = run(capsys, ["simulate", case, "--samples", "5000", "--seed", "2"])
        _, out3 = run(capsys, ["simulate", case, "--samples", "5000", "--seed", "1"])
        s = lambda o: json.loads(o)["mc"]["statistic"]
        assert s(out1) == s(out3)
        assert s(out1) != s(out2)

    def test_signed_measure_rejected(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        payload["mu1"] = {
            "terms": [
                {"c": 1.2, "sigma": 1.0, "shift": 0.0, "m": 0, "g": [0]},
                {"c": -0.2, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]},
            ]
        }
        code, _ = run(capsys, ["simulate", write_case(tmp_path, payload, "s.json")])
        assert code == EXIT_INVALID


class TestDensityDump:
    def test_csv_columns_and_coverage(self, tmp_path, capsys):
        case = {
            "group": GROUP,
            "mu": {
                "terms": [
                    {"c": 0.6, "sigma": 1.0, "shift": 0.0, "m": 0, "g": [0]},
                    {"c": 0.4, "sigma": 0.5, "shift": 1.0, "m": 1, "g": [2]},
                ]
            },
        }
        csv_path = tmp_path / "density.csv"
        code, _ = run(
            capsys,
            [
                "density-dump",
                write_case(tmp_path, case),
                "--grid",
                "11",
                "--csv",
                str(csv_path),
            ],
        )
        assert code == EXIT_OK
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "g0", "t", "density"]
        assert len(rows) == 1 + 2 * 11  # two continuous cosets
        cosets = {(r[0], r[1]) for r in rows[1:]}
        assert cosets == {("0", "0"), ("1", "2")}


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["check", "/nonexistent/case.json"])
        assert code == EXIT_INVALID

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, ["check", str(path)])
        assert code == EXIT_INVALID

    def test_missing_key(self, tmp_path, capsys):
        case = {"group": GROUP}  # no alpha / measures
        code, _ = run(capsys, ["check", write_case(tmp_path, case)])
        assert code == EXIT_INVALID

    def test_bad_measure_spec(self, tmp_path, capsys):
        case = {
            "group": GROUP,
            "alpha": ALPHA,
            "mu1": {"terms": [], "dirac": {"t": 0, "m": 0, "g": [0]}},
            "mu2": {"terms": []},
        }
        code, _ = run(capsys, ["check", write_case(tmp_path, case)])
        assert code == EXIT_INVALID


@pytest.mark.parametrize("command", ["check", "decompose", "simulate"])
def test_empty_cyclic_orders_exit_two(tmp_path, capsys, command):
    # the trivial group is [1]; [] is refused where the group is parsed
    case = {
        "group": {"cyclic_orders": []},
        "alpha": {"a": -2.0, "alpha_G": {"matrix": []}},
        "mu1": {"dirac": {"t": 0.0, "m": 0, "g": []}},
        "mu2": {"dirac": {"t": 0.0, "m": 0, "g": []}},
    }
    code = main([command, write_case(tmp_path, case)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "[1]" in lines[0]
    assert "reshape" not in lines[0] and "broadcast" not in lines[0]


class TestFormatting:
    def test_floats_have_17_significant_digits(self, tmp_path, capsys):
        payload = generated_payload(tmp_path, capsys)
        raw = json.dumps(payload)
        code, out = run(
            capsys, ["check", write_case(tmp_path, payload, "fmt.json"), "--tol", "0.1"]
        )
        # every float literal in the output must round-trip exactly
        text = out
        report = json.loads(text)

        def walk(node, path=""):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, f"{path}.{k}")
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, f"{path}[{i}]")
            elif isinstance(node, float):
                rendered = f"{node:.17g}"
                assert float(rendered) == node, path

        walk(report)
        assert '"tol": 0.10000000000000001' in text

    def test_integral_floats_parse_as_floats(self, tmp_path, capsys):
        # unmatched point masses at t = 3 and t = 0: residual 2.0, worst
        # coefficient +-1.0 and worst mean (3.0, +-3.0) are integral floats
        case = {
            "group": GROUP,
            "alpha": ALPHA,
            "mu1": {"dirac": {"t": 3.0, "m": 0, "g": [0]}},
            "mu2": {"dirac": {"t": 0.0, "m": 0, "g": [1]}},
        }
        path = write_case(tmp_path, case)
        code, out = run(capsys, ["check", path])
        assert code == EXIT_VIOLATED
        report = json.loads(out)
        worst = report["worst"]
        floats = [report["residual"], abs(worst["coefficient"])] + [abs(v) for v in worst["mean"]]
        assert floats == [2.0, 1.0, 3.0, 3.0]
        assert all(type(v) is float for v in floats + worst["mean"])
        code, out = run(capsys, ["check", path, "--smax", "2"])
        assert type(json.loads(out)["grid"]["smax"]) is float

    def test_format_json_bytes_are_pinned(self):
        # recorded from the formatter that called json.dumps per key, bool
        # and None; every report keeps these bytes
        value = {
            "nested": {"list": [1, [2.5, {"t": (3, -4)}]], "tuple": (True, None)},
            "empty": [{}, [], ()],
            "flags": [True, False, None],
            "numpy": [np.int64(-7), np.float64(0.1), np.float64(2.0)],
            "floats": [3.0, -0.0, 1e300, -2.5e-8, 1e16, 123456789012345678.0],
            7: "int key",
            "text": 'say "hi" \\ café σ₂ \U0001d53c',
        }
        expected = (
            '{\n  "nested": {\n    "list": [\n      1,\n      [\n        2.5,\n'
            '        {\n          "t": [\n            3,\n            -4\n'
            '          ]\n        }\n      ]\n    ],\n    "tuple": [\n      true,\n'
            '      null\n    ]\n  },\n  "empty": [\n    {},\n    [],\n    []\n  ],\n'
            '  "flags": [\n    true,\n    false,\n    null\n  ],\n  "numpy": [\n'
            '    -7,\n    0.10000000000000001,\n    2.0\n  ],\n  "floats": [\n'
            '    3.0,\n    -0.0,\n    1.0000000000000001e+300,\n'
            '    -2.4999999999999999e-08,\n    10000000000000000.0,\n'
            '    1.2345678901234568e+17\n  ],\n  "7": "int key",\n'
            '  "text": "say \\"hi\\" \\\\ caf\\u00e9 \\u03c3\\u2082 \\ud835\\udd3c"\n}'
        )
        assert _format_json(value) == expected
        assert json.loads(expected)["text"] == value["text"]


class TestNonFiniteInput:
    """NaN and infinite numbers are invalid input (exit 2), never a pass."""

    def check_case(self, term):
        return {
            "group": GROUP,
            "alpha": ALPHA,
            "mu1": {"terms": [term]},
            "mu2": {"dirac": {"t": 0.0, "m": 0, "g": [0]}},
        }

    def test_check_nan_sigma_exits_two(self, tmp_path, capsys):
        term = {"c": 1.0, "sigma": float("nan"), "shift": 0.0, "m": 0, "g": [0]}
        code, out = run(capsys, ["check", write_case(tmp_path, self.check_case(term))])
        assert code == EXIT_INVALID
        assert out == ""

    def overflow_exits_two(self, tmp_path, capsys, command):
        # finite on input, but exp(i * shift * s) overflows to NaN on the grid;
        # stderr carries the one error line and no numpy warning
        term = {"c": 1.0, "sigma": 0.0, "shift": 1e308, "m": 0, "g": [0]}
        code = main([command, write_case(tmp_path, self.check_case(term))])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: invalid input: equation residual is not finite (nan)"
        ]

    def test_check_overflowing_shift_exits_two(self, tmp_path, capsys):
        self.overflow_exits_two(tmp_path, capsys, "check")

    def test_decompose_overflowing_shift_exits_two(self, tmp_path, capsys):
        self.overflow_exits_two(tmp_path, capsys, "decompose")

    def test_theta_infinite_sigma_exits_two(self, tmp_path, capsys):
        params = {"sigma": float("inf"), "sigma_p": 0.5, "m": 0.0, "m_p": 0.0, "kappa": 0.3}
        code, out = run(capsys, ["theta", write_case(tmp_path, params)])
        assert code == EXIT_INVALID
        assert out == ""


class TestNumericArguments:
    """Numeric options are checked by the parser: exit 2 with a usage
    message, before any case is read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--tol", "nan"],
            ["check", "--tol", "nan"],
            ["check", "--tol", "-1e-9"],
            ["check", "--tol", "inf"],
            ["check", "--smax", "inf"],
            ["check", "--smax", "0"],
            ["simulate", "--samples", "0"],
            ["simulate", "--samples", "many"],
            ["simulate", "--seed", "-5"],
            ["check", "--grid", "1"],
            ["check", "--grid", "0"],
            ["density-dump", "--grid", "0"],
            ["density-dump", "--grid", "1"],
            ["density-dump", "--grid", "-3"],
        ],
    )
    def test_bad_value_exits_two(self, tmp_path, capsys, argv):
        payload = generated_payload(tmp_path, capsys)
        case = write_case(tmp_path, payload, "case.json")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], case, *argv[1:]])
        assert exc.value.code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[1]}" in captured.err
        assert "Warning" not in captured.err

    def test_negative_seed_is_refused_before_the_case_is_read(self, capsys):
        # a missing case file would exit 2 with "cannot read case file"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "/nonexistent/case.json", "--seed=-5"])
        assert exc.value.code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: '-5' is not an integer >= 0" in captured.err
        assert "cannot read case file" not in captured.err

    def test_library_refuses_bad_tol_and_sample_count(self):
        inst = standard_instance()
        for tol in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="tol"):
                decompose(inst.mu1, inst.mu2, inst.alpha, tol=tol)
        with pytest.raises(ValueError, match="n_samples"):
            mc_symmetry_test(inst.mu1, inst.mu2, inst.alpha, 0)


class TestParserReuse:
    """main parses with one parser per process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_check_options_do_not_leak(self, tmp_path, capsys):
        case = write_case(tmp_path, generated_payload(tmp_path, capsys), "check.json")
        _, out = run(capsys, ["check", case, "--grid", "9"])
        assert json.loads(out)["method"] == "grid"
        _, out = run(capsys, ["check", case])
        report = json.loads(out)
        assert report["method"] == "joint_law" and "grid" not in report

    def test_simulate_defaults_do_not_leak(self, tmp_path, capsys):
        case = write_case(tmp_path, generated_payload(tmp_path, capsys), "sim.json")
        _, out = run(capsys, ["simulate", case, "--samples", "300", "--seed", "4"])
        assert json.loads(out)["seed"] == 4
        _, out = run(capsys, ["simulate", case])
        report = json.loads(out)
        assert report["seed"] == 0 and report["mc"]["n_samples"] == 100_000

    def test_usage_error_leaves_the_parser_intact(self, tmp_path, capsys):
        case = write_case(tmp_path, generated_payload(tmp_path, capsys), "check.json")
        argv = ["check", case, "--smax", "2.0", "--tol", "1e-6"]
        fresh = build_parser.__wrapped__()
        args = fresh.parse_args(argv)
        assert args.func(args) == EXIT_OK
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["check", case, "--grid", "1"])
        assert exc.value.code == EXIT_INVALID
        capsys.readouterr()
        assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        assert run(capsys, argv) == (EXIT_OK, expected)
