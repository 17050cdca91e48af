import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radscat
import radscat.cli
import radscat.spectral
from radscat import Region, find_resonances, gamow_eigenfunction
from radscat.cli import _COMMANDS, _TOLERANCES, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

SHELL_CFG = {
    "kappa": 1.0,
    "breakpoints": [1.0, 2.0],
    "heights": [0.0, 8.0],
    "smatrix": {"k_min": 0.5, "k_max": 6.0, "n_k": 120},
    "resonances": {"region": {"re_min": 0.05, "re_max": 6.0,
                              "im_min": -2.0, "im_max": -1e-6}},
    "eigenfunction": {"family": "in", "energy": 9.0, "r_max": 6.0, "n_r": 50},
    "criterion": {"label": "standing_wave",
                  "grid": {"n_re": 30, "n_im": 30}},
    "verify": {"g_center": 16.0, "g_width": 2.0},
    "transform": {"family": "in", "psi": {"center": 5.0, "width": 0.5},
                  "e_min": 1.0, "e_max": 20.0, "n_e": 40, "r_max": 20.0,
                  "n_r": 1001},
}

FREE_CFG = dict(SHELL_CFG, heights=[0.0, 0.0])


@pytest.fixture
def shell_cfg(tmp_path):
    p = tmp_path / "shell.json"
    p.write_text(json.dumps(SHELL_CFG))
    return str(p)


@pytest.fixture
def free_cfg(tmp_path):
    p = tmp_path / "free.json"
    p.write_text(json.dumps(FREE_CFG))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = out.strip().split("\n")
    assert lines[0].startswith("# radscat v")
    cols = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return cols, rows


class TestExitCodes:
    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "smatrix", "--config", str(tmp_path / "no.json"))
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "smatrix", "--config", str(p))
        assert code == EXIT_CONFIG

    def test_missing_section_key(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"breakpoints": [1.0, 2.0], "heights": [0.0, 8.0]}))
        code, _, err = run(capsys, "smatrix", "--config", str(p))
        assert code == EXIT_CONFIG
        assert "k_min" in err

    def write_cfg(self, tmp_path, **overrides):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SHELL_CFG, **overrides)))
        return str(p)

    def test_gamow_region_missing_key(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, eigenfunction={
            "family": "gamow", "pole_index": 1, "r_max": 8.0,
            "region": {"re_min": 0.05, "im_min": -2.0, "im_max": -1e-6}})
        code, _, err = run(capsys, "eigenfunction", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "config error" in err and "re_max" in err

    @pytest.mark.parametrize("command, bad", [
        ("resonances", {"im_max": 0.5}),
        ("resonances", {"re_min": -1.0}),
        ("eigenfunction", {"im_max": 0.5}),
    ])
    def test_region_outside_fourth_quadrant(self, capsys, tmp_path, command, bad):
        region = dict(SHELL_CFG["resonances"]["region"], **bad)
        cfg = self.write_cfg(
            tmp_path, resonances={"region": region},
            eigenfunction={"family": "gamow", "pole_index": 1, "r_max": 8.0,
                           "region": region})
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert "config error" in err and "Im k <= 0" in err

    def test_non_numeric_number(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, smatrix={"k_min": "abc", "k_max": 6.0})
        code, _, err = run(capsys, "smatrix", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "config error" in err and "k_min" in err

    @pytest.mark.parametrize("command, section, err_part", [
        ("smatrix", {"smatrix": {"k_min": 0.5, "k_max": math.inf}}, "k_max"),
        ("smatrix", {"smatrix": {"k_min": math.nan, "k_max": 6.0}}, "k_min"),
        # an integer too large for a float
        ("smatrix", {"smatrix": {"k_min": 0.5, "k_max": 10 ** 400}}, "k_max"),
        ("transform", {"transform": dict(SHELL_CFG["transform"],
                                         psi={"center": math.nan, "width": 0.5})}, "center"),
        ("transform", {"transform": dict(SHELL_CFG["transform"],
                                         psi={"center": 5.0, "width": math.inf})}, "width"),
        ("transform", {"transform": dict(SHELL_CFG["transform"],
                                         psi={"center": 5.0, "width": 0.5, "k0": math.nan})},
         "k0"),
        ("transform", {"transform": dict(SHELL_CFG["transform"], r_max=math.inf)}, "r_max"),
        ("transform", {"transform": dict(SHELL_CFG["transform"], e_max=math.inf)}, "e_max"),
        ("eigenfunction", {"eigenfunction": dict(SHELL_CFG["eigenfunction"], r_max=math.nan)},
         "r_max"),
        ("eigenfunction", {"eigenfunction": dict(SHELL_CFG["eigenfunction"], energy=math.inf)},
         "energy"),
        ("criterion", {"criterion": {"label": "in", "grid": {"re_max": math.inf}}}, "re_max"),
        ("resonances", {"resonances": {"region": dict(SHELL_CFG["resonances"]["region"],
                                                      im_min=-math.inf)}}, "im_min"),
        ("verify", {"verify": {"r_max": math.inf}}, "r_max"),
    ])
    def test_non_finite_number(self, capsys, tmp_path, command, section, err_part):
        # json reads the literals NaN, Infinity and -Infinity as floats
        cfg = self.write_cfg(tmp_path, **section)
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert "config error" in err and err_part in err
        assert out == ""

    @pytest.mark.parametrize("command, section", [
        ("resonances", {"resonances": {"region": [0.05, 6.0, -2.0, -1e-6]}}),
        ("transform", {"transform": dict(SHELL_CFG["transform"], psi="gaussian")}),
        ("transform", {"transform": {k: v for k, v in SHELL_CFG["transform"].items()
                                     if k != "psi"}}),
    ])
    def test_region_or_psi_not_an_object(self, capsys, tmp_path, command, section):
        cfg = self.write_cfg(tmp_path, **section)
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert "config error" in err and out == ""

    def test_contour_failure_is_numerical(self, capsys, tmp_path):
        # Jplus has a real zero at k = sqrt(5) on the region's upper edge
        cfg = self.write_cfg(tmp_path, breakpoints=[1.0], heights=[5.0], resonances={
            "region": {"re_min": 1.0, "re_max": 3.0, "im_min": -1.0, "im_max": 0.0}})
        code, _, err = run(capsys, "resonances", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err

    def test_contour_overflow_is_numerical(self, capsys, tmp_path):
        # Jplus of the shell leaves the float range on the region's bottom
        # edge, at Im k = -400, and stays finite on its top edge
        cfg = self.write_cfg(tmp_path, resonances={
            "region": {"re_min": 0.05, "re_max": 6.0, "im_min": -400.0, "im_max": -1e-6}})
        code, out, err = run(capsys, "resonances", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and out == ""

    @pytest.mark.parametrize("command, section, err_part", [
        ("smatrix", {"smatrix": {"k_min": 0.5, "k_max": 6.0, "n_k": -1}}, "n_k"),
        ("smatrix", {"smatrix": {"k_min": 0.5, "k_max": 6.0, "n_k": 0}}, "n_k"),
        ("criterion", {"criterion": {"label": "in", "grid": {
            "re_min": -10.0, "re_max": -1.0, "im_min": -1e-9, "im_max": 1e-9,
            "n_re": 5, "n_im": 3}}}, "branch cut"),
        ("transform", {"transform": dict(SHELL_CFG["transform"], e_min=-1.0)}, "e_min"),
        ("transform", {"transform": dict(SHELL_CFG["transform"], n_e=0)}, "n_e"),
        ("criterion", {"criterion": {"label": "in", "grid": {"n_re": 0}}}, "no points"),
        ("transform", {"transform": dict(SHELL_CFG["transform"], n_r=2)}, "n_r"),
        ("transform", {"transform": dict(SHELL_CFG["transform"], e_min=10.0, e_max=1.0,
                                         n_e=10)}, "e_max"),
        ("eigenfunction", {"eigenfunction": dict(SHELL_CFG["eigenfunction"], n_r=-1)}, "n_r"),
        ("eigenfunction", {"eigenfunction": dict(SHELL_CFG["eigenfunction"], r_min=-1.0)},
         "r_min"),
        ("resonances", {"resonances": dict(SHELL_CFG["resonances"], max_states=-1)},
         "max_states"),
        ("resonances", {"resonances": dict(SHELL_CFG["resonances"], max_states=0)},
         "max_states"),
        # k = 0 in the middle of the grid
        ("smatrix", {"smatrix": {"k_min": 1.0, "k_max": -1.0, "n_k": 3}}, "k grid"),
        # the shell's outer radius is 2, and the smear needs r_max >= 20
        ("verify", {"verify": {"r_max": 5.0}}, "r_max"),
        ("verify", {"verify": {"g_center": 2.0, "g_width": 2.0}}, "supported inside"),
        ("transform", {"transform": dict(SHELL_CFG["transform"],
                                         psi={"center": 5.0, "width": 0.0})}, "width"),
        # a zero r_max is a value, not a request for the default
        ("verify", {"verify": {"r_max": 0}}, "r_max"),
        ("verify", {"verify": {"g_center": 16.0, "g_width": 0.0}}, "width"),
        # integer keys reject a fractional part instead of truncating it
        ("criterion", {"criterion": {"label": "in", "grid": {"n_re": 2.9}}}, "n_re"),
        ("eigenfunction", {"eigenfunction": {
            "family": "gamow", "pole_index": 1.7, "r_max": 8.0,
            "region": SHELL_CFG["resonances"]["region"]}}, "pole_index"),
        ("smatrix", {"smatrix": {"k_min": 0.5, "k_max": 6.0, "n_k": math.inf}}, "n_k"),
    ])
    def test_out_of_range_value(self, capsys, tmp_path, command, section, err_part):
        cfg = self.write_cfg(tmp_path, **section)
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_CONFIG
        assert "config error" in err and err_part in err
        assert out == ""

    def test_overflow_is_numerical(self, capsys, tmp_path):
        # the exterior amplitudes of a 1e6 barrier exceed the float range
        # at every grid point: the criterion's factors overflow with them,
        # while S, a ratio of the scaled pair, stays unimodular
        cfg = self.write_cfg(tmp_path, heights=[0.0, 1e6])
        code, out, err = run(capsys, "criterion", "--config", cfg)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and out == ""
        code, out, _ = run(capsys, "smatrix", "--config", cfg)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == SHELL_CFG["smatrix"]["n_k"]
        assert max(abs(float(r[4]) - 1.0) for r in rows) <= 1e-12

    def test_bad_tolerance(self, capsys, shell_cfg):
        # proportionality and measure_identity named two verify rows that
        # held by construction; they are unknown names now
        for item in ("oops", "symetry=1e-3", "symmetry=nan", "symmetry=inf",
                     "symmetry=0", "symmetry=-1", "proportionality=1e-12",
                     "measure_identity=1e-12"):
            code, out, err = run(capsys, "smatrix", "--config", shell_cfg,
                                 "--tolerance", item)
            assert code == EXIT_CONFIG, item
            assert "config error" in err and out == ""

    def test_verify_ok(self, capsys, shell_cfg):
        code, out, _ = run(capsys, "verify", "--config", shell_cfg)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == VERIFY_ROWS
        assert all(r[-1] == "pass" for r in rows)

    def test_verify_default_smear_covers_the_packet(self, capsys, tmp_path):
        # b = 0.85: r_max = 10 b = 8.5 would cut the smeared packet (width
        # 2 sqrt(16) / 2 = 4 in r) at about two widths and fail all three
        # smear rows at 1.5e-3 to 1.8e-3; the default is b + 4 widths = 16.85
        cfg = self.write_cfg(tmp_path, breakpoints=[0.4, 0.85], heights=[0.0, 6.0])
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert all(r[-1] == "pass" for r in rows)

    def test_integral_float_count_accepted(self, capsys, tmp_path):
        cfg = self.write_cfg(tmp_path, smatrix={"k_min": 0.5, "k_max": 6.0, "n_k": 3.0})
        code, out, _ = run(capsys, "smatrix", "--config", cfg)
        assert code == EXIT_OK
        assert len(parse_csv(out)[1]) == 3

    def test_verify_failure_with_tight_tolerance(self, capsys, shell_cfg):
        code, out, err = run(capsys, "verify", "--config", shell_cfg,
                             "--tolerance", "unitarity=1e-18")
        assert code == EXIT_NUMERICAL
        assert "verify failed" in err
        _, rows = parse_csv(out)
        assert any(r[0] == "unitarity" and r[-1] == "FAIL" for r in rows)


VERIFY_ROWS = ["unitarity", "s_oracle", "smeared_delta_standing_wave",
               "smeared_delta_in", "smeared_delta_out"]


def wrong_jminus(factor):
    """``spectral._scaled_pair`` with Jminus multiplied by ``factor``: S is
    off by that factor, while |S| and the smeared families are not."""
    right = radscat.spectral._scaled_pair

    def pair(sol):
        jp, log_scale = right(sol)
        return radscat.JostPair(jp.k, jp.j_plus, factor * jp.j_minus), log_scale
    return pair


class TestVerifyCommand:
    @pytest.mark.parametrize("factor", [-1.0, np.exp(0.1j)])
    def test_wrong_s_fails_the_oracle_row(self, capsys, monkeypatch, shell_cfg, factor):
        monkeypatch.setattr(radscat.spectral, "_scaled_pair", wrong_jminus(factor))
        code, out, err = run(capsys, "verify", "--config", shell_cfg)
        assert code == EXIT_NUMERICAL and "verify failed" in err
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == VERIFY_ROWS
        assert [r[0] for r in rows if r[-1] == "FAIL"] == ["s_oracle"]

    @pytest.mark.filterwarnings("ignore:smeared delta check not converged")
    def test_tall_shell_prints_every_row(self, capsys, monkeypatch, tmp_path):
        # J+- of a 3e5 barrier overflow at small k; S and the families are
        # ratios of the scaled pair, and the oracle's chi stays in range.  So
        # every error is within tolerance, and a row fails exactly when it is
        # a smear row whose refinement did not converge
        converged = {}
        real_check = radscat.cli.smeared_delta_check

        def check(kind, *args, **kwargs):
            rep = real_check(kind, *args, **kwargs)
            converged[f"smeared_delta_{kind.value}"] = rep.converged
            return rep
        monkeypatch.setattr(radscat.cli, "smeared_delta_check", check)
        cfg = tmp_path / "tall.json"
        cfg.write_text(json.dumps(dict(SHELL_CFG, heights=[0.0, 3e5])))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == VERIFY_ROWS
        for name, error, tol, status in rows:
            assert float(error) <= float(tol), name
            assert status == ("pass" if converged.get(name, True) else "FAIL"), name
        assert (code == EXIT_OK) == all(r[-1] == "pass" for r in rows)


class TestSMatrixCommand:
    def test_free_abs_is_one(self, capsys, free_cfg):
        code, out, _ = run(capsys, "smatrix", "--config", free_cfg)
        assert code == EXIT_OK
        cols, rows = parse_csv(out)
        i = cols.index("abs_s")
        assert all(abs(float(r[i]) - 1.0) < 1e-12 for r in rows)

    def test_phase_steps_through_resonance(self, capsys, tmp_path, shell, scale):
        # arg S must sweep by about 2 pi across the window of the narrow
        # lowest resonance
        st = find_resonances(shell, scale, Region(2.0, 2.5, -0.1, -1e-6))[0]
        # a wider window would accumulate more of the slowly falling
        # hard-sphere background phase and eat into the step
        k_lo = math.sqrt(max(st.e_res - 5 * st.gamma, 0.1))
        k_hi = math.sqrt(st.e_res + 5 * st.gamma)
        cfg = dict(SHELL_CFG, smatrix={"k_min": k_lo, "k_max": k_hi, "n_k": 400})
        p = tmp_path / "window.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "smatrix", "--config", str(p))
        assert code == EXIT_OK
        cols, rows = parse_csv(out)
        i = cols.index("arg_s")
        phases = np.unwrap([float(r[i]) for r in rows])
        sweep = abs(phases[-1] - phases[0])
        # the ideal step is 2 * 2 * atan(10) ~ 0.94 * 2pi; the monotone
        # background phase shaves off a bit more
        assert 0.7 * 2 * math.pi <= sweep <= 1.3 * 2 * math.pi


class TestResonancesCommand:
    def test_rows_match_library(self, capsys, shell_cfg, shell, scale):
        code, out, _ = run(capsys, "resonances", "--config", shell_cfg)
        assert code == EXIT_OK
        cols, rows = parse_csv(out)
        states = find_resonances(shell, scale, Region(0.05, 6.0, -2.0, -1e-6))
        assert len(rows) == len(states)
        for row, st in zip(rows, states):
            assert float(row[cols.index("re_k")]) == pytest.approx(st.k_pole.real, rel=1e-10)
            assert float(row[cols.index("im_k")]) == pytest.approx(st.k_pole.imag, rel=1e-8)
            assert float(row[cols.index("gamma_n")]) == pytest.approx(st.gamma, rel=1e-8)

    def test_missed_roots_is_numerical(self, capsys, tmp_path, double_zero_jost):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SHELL_CFG, resonances={"region": {
            "re_min": 1e-6, "re_max": 6.0, "im_min": -2.0, "im_max": -1e-6}})))
        with pytest.warns(UserWarning, match="unresolved zero cluster of order 2"):
            code, out, err = run(capsys, "resonances", "--config", str(cfg))
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and "counts 2 zeros" in err and out == ""


class TestEigenfunctionCommand:
    def test_continuum_family(self, capsys, shell_cfg):
        code, out, _ = run(capsys, "eigenfunction", "--config", shell_cfg)
        assert code == EXIT_OK
        cols, rows = parse_csv(out)
        assert float(rows[0][cols.index("re_psi")]) == 0.0

    def test_gamow_tail(self, capsys, tmp_path, shell, scale):
        cfg = dict(SHELL_CFG)
        cfg["eigenfunction"] = {
            "family": "gamow", "pole_index": 1, "r_max": 8.0, "n_r": 80,
            "region": {"re_min": 0.05, "re_max": 6.0, "im_min": -2.0,
                       "im_max": -1e-6},
        }
        p = tmp_path / "gamow.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "eigenfunction", "--config", str(p))
        assert code == EXIT_OK
        cols, rows = parse_csv(out)
        st = find_resonances(shell, scale, Region(0.05, 6.0, -2.0, -1e-6))[0]
        for row in rows:
            r = float(row[cols.index("r")])
            got = complex(float(row[cols.index("re_psi")]),
                          float(row[cols.index("im_psi")]))
            want = gamow_eigenfunction(st, r)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_bad_pole_index(self, capsys, tmp_path):
        cfg = dict(SHELL_CFG)
        cfg["eigenfunction"] = {
            "family": "gamow", "pole_index": 99, "r_max": 8.0,
            "region": {"re_min": 0.05, "re_max": 6.0, "im_min": -2.0,
                       "im_max": -1e-6},
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "eigenfunction", "--config", str(p))
        assert code == EXIT_CONFIG
        assert "pole_index" in err


class TestCriterionCommand:
    def test_record_output(self, capsys, shell_cfg):
        code, out, _ = run(capsys, "criterion", "--config", shell_cfg)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        record = dict(line.split("=", 1) for line in lines[1:])
        assert record["label"] == "standing_wave"
        assert record["classification"] == "normalization"

    def test_scattering_family_is_distinct(self, capsys, tmp_path):
        cfg = dict(SHELL_CFG, criterion={"label": "out",
                                         "grid": {"n_re": 30, "n_im": 30}})
        p = tmp_path / "crit.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "criterion", "--config", str(p))
        assert code == EXIT_OK
        assert "classification=physically_distinct" in out


class TestTransformCommand:
    def test_runs_and_matches_shape(self, capsys, shell_cfg):
        code, out, _ = run(capsys, "transform", "--config", shell_cfg)
        assert code == EXIT_OK
        cols, rows = parse_csv(out)
        assert cols == ["E", "re_coeff", "im_coeff"]
        assert len(rows) == 40

    def test_default_r_max_covers_the_packet(self, capsys, tmp_path):
        # a packet at r = 30 lies beyond 10 b = 20: the default r_max must
        # reach center + 8 widths = 46, or every coefficient comes out ~3e-7
        section = {"family": "in", "psi": {"center": 30.0, "width": 2.0, "k0": 3.0},
                   "e_min": 4.0, "e_max": 14.0, "n_e": 11, "n_r": 4001}
        coeffs = {}
        for r_max in (None, 60.0):
            sec = section if r_max is None else dict(section, r_max=r_max)
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(dict(SHELL_CFG, transform=sec)))
            code, out, _ = run(capsys, "transform", "--config", str(p))
            assert code == EXIT_OK
            _, rows = parse_csv(out)
            coeffs[r_max] = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        assert np.abs(coeffs[60.0]).min() > 0.1
        assert np.max(np.abs(coeffs[None] - coeffs[60.0])) <= 1e-6 * np.abs(coeffs[60.0]).max()


class TestOutputContract:
    def test_schema_lists_the_tolerances(self):
        # the table under "Flags and exit codes" in docs/SCHEMA.md
        text = (Path(__file__).parent.parent / "docs" / "SCHEMA.md").read_text()
        table = text.split("| name | default | read by |")[1].split("\n\n")[0]
        rows = [line.split("|")[1:3] for line in table.strip().splitlines()[1:]]
        assert {name.strip().strip("`"): float(default) for name, default in rows} == _TOLERANCES

    def test_header_records_tolerances(self, capsys, shell_cfg):
        _, out, _ = run(capsys, "smatrix", "--config", shell_cfg,
                        "--tolerance", "unitarity=1e-9")
        assert "tolerances=unitarity=1e-09" in out.split("\n")[0]

    def test_reruns_are_byte_identical(self, tmp_path, shell_cfg):
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["smatrix", "--config", shell_cfg, "--out", str(o1)]) == EXIT_OK
        assert main(["smatrix", "--config", shell_cfg, "--out", str(o2)]) == EXIT_OK
        assert o1.read_bytes() == o2.read_bytes()

    def test_parser_keeps_no_state(self, capsys, shell_cfg):
        _, first, _ = run(capsys, "smatrix", "--config", shell_cfg,
                          "--tolerance", "symmetry=1e-3")
        _, second, _ = run(capsys, "smatrix", "--config", shell_cfg)
        assert "tolerances=symmetry=0.001" in first.split("\n")[0]
        assert second.split("\n")[0].endswith("tolerances=default")

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "{" + ",".join(_COMMANDS) + "}" in capsys.readouterr().out

    def test_module_entry_point_matches_main(self, tmp_path, shell_cfg):
        dest = tmp_path / "in_process.csv"
        assert main(["smatrix", "--config", shell_cfg, "--out", str(dest)]) == EXIT_OK
        src = str(Path(radscat.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "radscat.cli", "smatrix",
                               "--config", shell_cfg], capture_output=True, env=env,
                              timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == dest.read_bytes()

    def test_out_file_written(self, tmp_path, shell_cfg):
        dest = tmp_path / "res.csv"
        assert main(["resonances", "--config", shell_cfg, "--out", str(dest)]) == EXIT_OK
        text = dest.read_text()
        assert text.startswith("# radscat v")
        assert "re_k" in text
