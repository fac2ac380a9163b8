import csv
import json

import pytest

from heyde.cli import EXIT_INVALID, EXIT_OK, EXIT_VIOLATED, main

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


# valid instances whose omega characteristic function vanishes: decompose
# exits 1 with diagnostics, not 2
VANISHING_OMEGA2 = {
    "odd_slice": [
        {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 0, "g": [0]},
        {"c": 0.5, "sigma": 0.0, "shift": 0.0, "m": 1, "g": [0]},
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
    assert code == EXIT_VIOLATED
    report = json.loads(out)
    assert report["error"] == "hypothesis violated" and report["diagnostics"]


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
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["measure", "t", "m", "g0"]
        assert len(rows) == 1 + 2 * 20000
        assert {r[0] for r in rows[1:]} == {"1", "2"}

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
