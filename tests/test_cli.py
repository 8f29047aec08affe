import contextlib
import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpid import cli
from hpid.plant import reference_eval
from hpid.fixtures import (
    HARDWARE_COMPARISON_ROWS,
    HARDWARE_L2_CONTROL,
    HARDWARE_L2_ERROR,
    HARDWARE_L2_ERROR_ALT,
)

MINIMAL = """
[scenario base]
"""

EXTENDED_PAIR = """
[scenario lin]
controller = pid
x0 = 1.0, 0.0, 0.3
T = 2.0
h = 0.001

[scenario hom]
controller = hpid
mu = 0.1
x0 = 1.0, 0.0, 0.3
T = 2.0
h = 0.001

[compare pair]
pid = lin
hpid = hom
"""


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = cli.parse_config(MINIMAL)
        scn = cfg.scenario("base")
        assert scn.horizon == 9.0
        assert scn.step == 1e-3
        assert scn.plant == "extended"
        assert scn.controller == "pid"

    def test_mu_constraint_cited(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario s]\ncontroller = hpid\nmu = 0.7\n")
        assert any("mu must lie in (-0.5, 0.5)" in p for p in err.value.problems)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("[scenario a]\ncontroller = hpid\n\nmu = 0.7\n", 4),
            ("[scenario a]\nplant = joints\nn_joints = 3\nref_amplitude = 1, 2\n", 4),
            ("[scenario a]\n\nx0 = 1, 2\n", 3),
        ],
        ids=["mu", "ref_amplitude", "x0"],
    )
    def test_key_error_cites_key_line(self, text, line):
        # the key's own line, not the section header's
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(text)
        assert err.value.problems
        assert all(p.startswith(f"line {line}: ") for p in err.value.problems), err.value.problems

    def test_unknown_key_has_line_number(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario s]\nbogus_key = 3\n")
        assert any("line 2" in p and "bogus_key" in p for p in err.value.problems)

    def test_inapplicable_keys_rejected(self):
        # x0 belongs to the extended plant, joint keys to the joints plant;
        # accepting and dropping either would break config round-trips
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario j]\nplant = joints\nx0 = 2, 0, 0\n")
        assert any("does not apply" in p for p in err.value.problems)
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario e]\nref_amplitude = 1\n")
        assert any("does not apply" in p for p in err.value.problems)
        # seed only resolves dist_phase = random, a joints key
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario s]\nseed = 3\n")
        assert any("line 2" in p and "'seed' does not apply" in p for p in err.value.problems)
        # a norm key applies only with its own norm kind
        for text, line in [
            ("[scenario s]\nnorm_p = 2, 0, 0, 1\n", 2),
            ("[scenario s]\ncontroller = hpid\nmu = 0.1\nzeta1_max = 3\n", 4),
            ("[scenario s]\nnorm = canonical\nnorm_coefficients = 5, 5\n", 3),
        ]:
            with pytest.raises(cli.ConfigError) as err:
                cli.parse_config(text)
            [problem] = err.value.problems
            assert problem.startswith(f"line {line}: ") and "does not apply" in problem, problem
        # the canonical norm's residual tolerance is a library constant, not a key
        for text, line in [
            ("[scenario s]\nnorm_tolerance = 1e-3\n", 2),
            ("[scenario s]\nnorm = canonical\nnorm_tolerance = 1e-3\n", 3),
        ]:
            with pytest.raises(cli.ConfigError) as err:
                cli.parse_config(text)
            [problem] = err.value.problems
            assert problem.startswith(f"line {line}: ") and "unknown key 'norm_tolerance'" in problem, problem

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("[scenario j]\nplant = joints\nmu = 0.7\nn_joints = 2\nref_amplitude = 1\n", [(3, "'mu'")]),
            ("[scenario a]\nx0 = 1, 2\nmu = 0.7\n", [(2, "'x0'"), (3, "'mu'")]),
            ("[scenario a]\ncontroller = pid\nmu = 0.2\nnorm = bogus\n", [(3, "'mu'"), (4, "must be one of weighted_sum")]),
            ("[compare c]\nfixture = foo\n", [(2, "'fixture'")]),
            ("[certify c]\nkp = nan\n", [(2, "gain kp must be finite")]),
            ("[scenario a]\nmu = 0.7\n\n[compare c]\npid = a\nhpid = a\n", [(2, "'mu'")]),
            ("[compare c]\npid = a\nhpid = b\n", [(2, "unknown scenario 'a'"), (3, "unknown scenario 'b'")]),
            ("[compare c]\nfixture = hardware\npid = nosuch\n", [(3, "key 'pid' does not apply")]),
            ("[scenario s]\nnorm_coefficients = 1, 2, 3\n", [(2, "expected 2 values, got 3")]),
            ("[scenario s]\ncontroller = hpid\nmu = 0.1\nnorm_coefficients = 1, 2, 3\n", [(4, "expected 2 values, got 3")]),
            # values only a library check rejects are cited at their key, not the header
            ("[scenario a]\n\nT = 1\nh = 0.3\n", [(4, "too coarse for horizon")]),
            ("[scenario a]\n\nT = 0.005\n", [(3, "too coarse for horizon")]),
            ("[scenario a]\nx0 = nan, 0, 0\n", [(2, "x0 must be three finite reals")]),
            ("[scenario j]\nplant = joints\ndist_constant = 0.6\n", [(3, "exceeds the disturbance bound")]),
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm = canonical\nnorm_p = 1, 0, 0, -1\n",
             [(5, "strictly monotone")]),
            ("[scenario s]\nnorm_coefficients = -1, 1\n", [(2, "coefficients must be finite and positive")]),
            # a several-key spec cites a one-key problem at that key, not at its first key set
            ("[scenario s]\nkp = nan\n", [(2, "gain kp must be finite")]),
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm = experimental\nzeta1_max = 1\nnorm_gamma = -1\n",
             [(6, "gamma must be a positive real (key 'norm_gamma')")]),
            ("[scenario j]\nplant = joints\ndist_constant = 0.1\ndist_bound = -1\n",
             [(4, "disturbance bound must be nonnegative, got -1.0 (key 'dist_bound')")]),
            # a problem elsewhere in the section hides neither the per-joint nor the norm checks
            ("[scenario j]\nplant = joints\nmu = 0.7\ndist_bound = -1\n",
             [(3, "'mu'"), (4, "disturbance bound must be nonnegative, got -1.0 (key 'dist_bound')")]),
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm_floor = 0\nnorm = experimental\nnorm_gamma = -1\n",
             [(4, "norm_floor must be a positive real"), (6, "gamma must be a positive real (key 'norm_gamma')")]),
            # an unparsed bound is not replaced by its default, which 0.4 + 0.15 would exceed
            ("[scenario j]\nplant = joints\ndist_constant = 0.4\ndist_bound = x\n", [(4, "(key 'dist_bound')")]),
        ],
        ids=[
            "joints_mu", "x0_and_mu", "pid_mu_and_norm", "fixture", "certify_gain", "broken_scenario", "unknown_pair",
            "fixture_and_pair", "pid_coefficients", "hpid_coefficients",
            "coarse_step", "coarse_step_default_h", "nonfinite_x0", "disturbance_bound", "nonmonotone_p",
            "negative_coefficient", "scenario_gain", "experimental_gamma", "negative_disturbance_bound",
            "joints_mu_and_bound", "floor_and_gamma", "unparsed_bound",
        ],
    )
    def test_each_problem_reported_once(self, text, expected):
        # every key is read: no problem hides another, none is derived from another,
        # and each cites its own line
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(text)
        problems = err.value.problems
        assert len(problems) == len(expected), problems
        for line, fragment in expected:
            assert sum(p.startswith(f"line {line}: ") and fragment in p for p in problems) == 1, problems

    def test_malformed_line_reported(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario s]\nthis is not a key value\n")
        assert any("line 2" in p for p in err.value.problems)

    def test_duplicate_key_reported(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario s]\nkp = -3\nkp = -4\n")
        assert any("duplicate" in p for p in err.value.problems)

    def test_compare_requires_known_scenarios(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[compare c]\npid = a\nhpid = b\n")
        assert any("unknown scenario" in p for p in err.value.problems)

    def test_round_trip(self):
        text = EXTENDED_PAIR + "\n[certify gains]\nkp = -3\nkd = -3\nki = -1\n"
        cfg = cli.parse_config(text)
        again = cli.parse_config(cli.format_config(cfg))
        assert again == cfg

    def test_round_trip_joints_and_norms(self):
        text = """
[scenario joints_canon]
plant = joints
controller = hpid
mu = 0.2
norm = canonical
norm_p = 2.0, 0.3, 0.3, 1.0
n_joints = 3
ref_amplitude = 1.0, 0.8, 0.6
dist_phase = random
seed = 11

[scenario joints_exp]
plant = joints
controller = hpid
mu = 0.1
norm = experimental
zeta1_max = 1.5
norm_gamma = 0.7
n_joints = 2
"""
        cfg = cli.parse_config(text)
        again = cli.parse_config(cli.format_config(cfg))
        assert again == cfg

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        text = "".join(data.draw(scenario_texts(f"s{k}")) for k in range(data.draw(st.integers(1, 3))))
        cfg = cli.parse_config(text)
        emitted = cli.format_config(cfg)
        again = cli.parse_config(emitted)
        assert again == cfg
        assert cli.format_config(again) == emitted

    def test_readme_example_parses(self):
        # the README's config example shows only keys the parser accepts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        cfg = cli.parse_config(block)
        built = len(cfg.scenarios) + len(cfg.compares) + len(cfg.certifies)
        assert built == len(re.findall(r"^\[", block, flags=re.M)) > 0

    def test_random_phases_resolved_by_seed(self):
        text = "[scenario s]\nplant = joints\ndist_phase = random\nseed = 7\n"
        a = cli.parse_config(text)
        b = cli.parse_config(text)
        assert a == b
        c = cli.parse_config(text.replace("seed = 7", "seed = 8"))
        assert c != a


finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
positive = st.floats(0.1, 5, allow_nan=False, allow_infinity=False)


def values_text(values) -> str:
    return ", ".join(repr(v) for v in values)


@st.composite
def scenario_texts(draw, name):
    """A valid [scenario] section: either plant, every norm kind, pid or hpid."""
    lines = [f"[scenario {name}]"]
    controller = draw(st.sampled_from(["pid", "hpid"]))
    lines.append(f"controller = {controller}")
    if controller == "hpid":
        lines.append(f"mu = {draw(st.floats(-0.45, 0.45))!r}")
    lines += [f"{key} = {draw(finite)!r}" for key in ("kp", "kd", "ki")]
    kind = draw(st.sampled_from(["default", "weighted_sum", "canonical", "experimental"]))
    if kind != "default":
        lines.append(f"norm = {kind}")
    if kind == "weighted_sum":
        lines.append(f"norm_coefficients = {values_text(draw(st.lists(positive, min_size=2, max_size=2)))}")
    elif kind == "canonical":
        # positive definite, and strictly monotone under every admissible dilation
        p11, p22 = draw(st.floats(0.5, 3)), draw(st.floats(0.5, 3))
        p12 = draw(st.floats(-0.2, 0.2))
        lines.append(f"norm_p = {values_text([p11, p12, p12, p22])}")
    elif kind == "experimental":
        lines += [f"zeta1_max = {draw(positive)!r}", f"norm_gamma = {draw(positive)!r}"]
    h = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    lines += [f"h = {h!r}", f"T = {h * draw(st.integers(10, 2000))!r}"]
    lines.append(f"norm_floor = {draw(st.floats(1e-12, 1e-3))!r}")
    if draw(st.booleans()):
        lines.append(f"x0 = {values_text(draw(st.lists(finite, min_size=3, max_size=3)))}")
        return "\n".join(lines) + "\n\n"
    lines.append("plant = joints")
    n = draw(st.integers(1, 4))
    lines.append(f"n_joints = {n}")
    # |constant| + |amplitude| <= 1 <= bound keeps every disturbance in its bound,
    # so dist_bound is always given
    for key, values in [
        ("ref_amplitude", finite), ("ref_frequency", finite), ("ref_phase", finite), ("ref_offset", finite),
        ("dist_constant", st.floats(-0.5, 0.5)), ("dist_amplitude", st.floats(-0.5, 0.5)),
        ("dist_frequency", finite), ("dist_phase", finite), ("dist_bound", st.floats(1, 5)),
    ]:
        if key == "dist_bound" or draw(st.booleans()):  # else the key's default
            per_joint = draw(st.one_of(st.lists(values, min_size=1, max_size=1), st.lists(values, min_size=n, max_size=n)))
            lines.append(f"{key} = {values_text(per_joint)}")
    return "\n".join(lines) + "\n\n"


class TestSimulateCommand:
    def test_equilibrium_writes_zero_csv(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario eq]\nx0 = 0, 0, 0\nT = 1.0\nh = 0.01\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        header, data = cli.read_trajectory_csv(tmp_path / "out" / "eq.csv")
        assert header == ["t", "x1", "x2", "x3", "u"]
        assert np.array_equal(data[:, 1:], np.zeros_like(data[:, 1:]))

    def test_unstable_gains_exit_divergence(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario bad]\nkp = 3\nkd = 3\nki = 1\nT = 9.0\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DIVERGENCE
        assert "diverged" in capsys.readouterr().err

    def test_certified_negative_degree_settles(self, tmp_path):
        # a certified finite-time run ends inside a 1e-4 ball
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario ft]\ncontroller = hpid\nmu = -0.2\nT = 9.0\nh = 0.001\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        _, data = cli.read_trajectory_csv(tmp_path / "out" / "ft.csv")
        assert np.linalg.norm(data[-1, 1:4]) <= 1e-4

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario s]\ncontroller = hpid\nmu = 0.7\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "mu must lie in (-0.5, 0.5)" in capsys.readouterr().err

    def test_mu_outside_certified_interval_warns(self, tmp_path, capsys):
        # gains with a narrow certified interval: warn when mu is outside it
        from hpid.stability import certify
        from hpid.control import GainSet

        gains = GainSet(-0.2, -6.0, -1.0)
        cert = certify(gains)
        assert cert.mu_hi < 0.3  # narrow enough to violate below the design cap
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            f"[scenario warned]\ncontroller = hpid\nmu = 0.3\n"
            f"kp = {gains.kp}\nkd = {gains.kd}\nki = {gains.ki}\nT = 1.0\nh = 0.001\n"
        )
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "outside the certified" in capsys.readouterr().err

    def test_csv_round_trip_full_precision(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario rt]\ncontroller = hpid\nmu = 0.1\nT = 1.0\nh = 0.01\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        from hpid.sim import simulate

        cfg = cli.parse_config(cfgfile.read_text())
        traj = simulate(cfg.scenario("rt"))
        _, data = cli.read_trajectory_csv(tmp_path / "out" / "rt.csv")
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:4], traj.states)
        assert np.array_equal(data[:, 4], traj.controls[:, 0])

    def test_deterministic_bytes(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "[scenario det]\nplant = joints\ncontroller = hpid\nmu = 0.2\n"
            "dist_phase = random\nseed = 42\nT = 1.0\nh = 0.001\nn_joints = 3\n"
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out2)]) == 0
        assert (out1 / "det.csv").read_bytes() == (out2 / "det.csv").read_bytes()

    def test_joints_csv_position_is_the_reference_minus_error(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario j]\nplant = joints\nn_joints = 2\nref_phase = 0.3, 1.1\nT = 1.0\nh = 0.01\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        _, data = cli.read_trajectory_csv(tmp_path / "out" / "j.csv")
        refs = [jc.reference for jc in cli.parse_config(cfgfile.read_text()).scenario("j").joint_plant.joints]
        for k, ref in enumerate(refs):
            q, eps = data[:, 1 + 3 * k], data[:, 3 + 3 * k]
            assert [reference_eval(ref, t)[0] - e for t, e in zip(data[:, 0].tolist(), eps.tolist())] == q.tolist()

    def test_joints_csv_schema(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario j]\nplant = joints\nn_joints = 2\nT = 1.0\nh = 0.01\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        header, data = cli.read_trajectory_csv(tmp_path / "out" / "j.csv")
        assert header == ["t", "j1_q", "j1_u", "j1_eps", "j2_q", "j2_u", "j2_eps"]
        assert data.shape[1] == 7

    def test_divergence_writes_no_csv(self, tmp_path, capsys):
        # every run finishes before any file is opened: a later divergence
        # leaves out/ as it was, an earlier good run's file included
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario good]\nT = 1.0\n\n[scenario bad]\nkp = 3\nkd = 3\nki = 1\nT = 9.0\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "good.csv").write_bytes(b"earlier contents\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_DIVERGENCE
        assert "diverged" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["good.csv"]
        assert (out / "good.csv").read_bytes() == b"earlier contents\n"

    @pytest.mark.parametrize("plant", ["extended", "joints"])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1, cli.CSV_BLOCK_ROWS], ids=["below", "equal", "above", "twice"])
    def test_blocks_write_the_whole_file_text(self, tmp_path, plant, extra_rows):
        # row counts around the block size; h = 1/128 puts T on the grid exactly
        rows = cli.CSV_BLOCK_ROWS + extra_rows
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"[scenario b]\nplant = {plant}\ncontroller = hpid\nmu = 0.1\nT = {(rows - 1) / 128}\nh = 0.0078125\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        from hpid.sim import simulate

        # the benchmark measures the renderer's output, so it stays the CSV str
        text = cli.trajectory_csv_text(simulate(cli.parse_config(cfgfile.read_text()).scenario("b")), 0, None)
        assert isinstance(text, str)
        written = (tmp_path / "out" / "b.csv").read_bytes()
        assert written == text.encode("utf-8")
        assert written.count(b"\n") == rows + 1

    def test_writing_holds_no_whole_file_text(self, tmp_path, monkeypatch, capsys):
        # the runs are made before tracing starts, so the peak is what writing
        # the files holds: at most a block of text, far below the files' bytes
        cfg = cli.parse_config(
            "[scenario p]\nplant = joints\nT = 9.0\nh = 0.001\n\n"
            "[scenario q]\nplant = joints\ncontroller = hpid\nmu = 0.2\nT = 9.0\nh = 0.001\n"
        )
        runs = {scn.name: cli.simulate(scn) for scn in cfg.scenarios}
        monkeypatch.setattr(cli, "simulate", lambda scn: runs[scn.name])
        tracemalloc.start()
        try:
            assert cli.cmd_simulate(cfg, tmp_path) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sum(path.stat().st_size for path in tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_seed_flag_is_a_usage_error(self, command, capsys):
        # the config's seed = key is the one way to seed dist_phase = random
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "1", "--config", "c", "--out", "o"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestReadTrajectoryCsv:
    HEADER = "t,x1,x2,x3,u\n"

    def read_error(self, tmp_path, text) -> str:
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            cli.read_trajectory_csv(path)
        assert str(path) in str(err.value)
        return str(err.value)

    def test_short_row(self, tmp_path):
        error = self.read_error(tmp_path, self.HEADER + "0,1,0,0.3,2\n0.1,1,0,0.3\n")
        assert "line 3: expected 5 finite numbers" in error

    def test_long_row(self, tmp_path):
        assert "line 2: expected 5 finite numbers" in self.read_error(tmp_path, self.HEADER + "0,1,0,0.3,2,7\n")

    def test_not_a_number(self, tmp_path):
        assert "line 2: expected numbers" in self.read_error(tmp_path, self.HEADER + "0,1,zero,0.3,2\n")

    def test_nonfinite_value(self, tmp_path):
        error = self.read_error(tmp_path, self.HEADER + "0,1,0,0.3,2\nnan,nan,nan,nan,nan\n")
        assert "line 3: expected 5 finite numbers" in error

    def test_empty_file(self, tmp_path):
        assert "line 1: empty file" in self.read_error(tmp_path, "")


class TestCompareCommand:
    def test_self_comparison_equal_columns(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "[scenario one]\nT = 2.0\nh = 0.001\n\n[compare self]\npid = one\nhpid = one\n"
        )
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "self.csv").read_text()
        for line in text.splitlines():
            if line[0].isdigit():
                _, ivc_p, ivc_h, iavc_p, iavc_h, itae_p, itae_h = line.split(",")
                assert ivc_p == ivc_h and iavc_p == iavc_h and itae_p == itae_h

    def test_scenario_named_by_several_jobs_simulated_once(self, tmp_path, monkeypatch):
        simulated = []

        def counting_simulate(scn, real=cli.simulate):
            simulated.append(scn.name)
            return real(scn)

        monkeypatch.setattr(cli, "simulate", counting_simulate)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "[scenario p]\nT = 1.0\nh = 0.01\n\n"
            "[scenario a]\ncontroller = hpid\nmu = 0.1\nT = 1.0\nh = 0.01\n\n"
            "[scenario b]\ncontroller = hpid\nmu = -0.1\nT = 1.0\nh = 0.01\n\n"
            "[compare pa]\npid = p\nhpid = a\n\n[compare pb]\npid = p\nhpid = b\n\n"
            "[compare self]\npid = b\nhpid = b\n"
        )
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        assert sorted(simulated) == ["a", "b", "p"]
        assert all((tmp_path / "out" / f"{job}.csv").exists() for job in ("pa", "pb", "self"))

    def test_fixture_injection_byte_exact(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[compare fix]\nfixture = hardware\n")
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "fix.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "joint,IVC_PID,IVC_HPID,IAVC_PID,IAVC_HPID,ITAE_PID,ITAE_HPID"
        assert lines[1] == "source,hardware_fixture,,,,,"
        for j, row in enumerate(HARDWARE_COMPARISON_ROWS, start=1):
            assert lines[j + 1] == f"{j}," + ",".join(row)
        assert f"aggregate,l2_control,{HARDWARE_L2_CONTROL[0]},{HARDWARE_L2_CONTROL[1]},,," in lines
        assert f"aggregate,l2_error,{HARDWARE_L2_ERROR[0]},{HARDWARE_L2_ERROR[1]},,," in lines
        alt = f"aggregate,l2_error_alt,{HARDWARE_L2_ERROR_ALT[0]},{HARDWARE_L2_ERROR_ALT[1]},conflicting_report,,"
        assert alt in lines

    def test_grid_mismatch_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "[scenario a]\nT = 2.0\nh = 0.001\n\n[scenario b]\nT = 2.0\nh = 0.0005\n\n"
            "[compare bad]\npid = a\nhpid = b\n"
        )
        code = cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_pair_summary_line(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(EXTENDED_PAIR)
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        last = (tmp_path / "out" / "pair.csv").read_text().splitlines()[-1]
        assert last.startswith("summary,hpid_lower_ivc,")


class TestCertifyCommand:
    def test_default_gains(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[certify default]\nkp = -3\nkd = -3\nki = -1\n")
        code = cli.main(["certify", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "certified degree interval" in out
        cert_csv = (tmp_path / "out" / "default.cert.csv").read_text()
        assert cert_csv.startswith("field,value\n")
        assert "mu_lo," in cert_csv and "mu_hi," in cert_csv

    def test_unstable_gains_diagnosed(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[certify broken]\nkp = 1\nkd = 1\nki = 1\n")
        code = cli.main(["certify", "--config", str(cfgfile)])
        assert code == cli.EXIT_FAILURE
        assert "infeasible" in capsys.readouterr().out


def _verify(*args: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *args])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def verify_seed_0():
    return _verify("--seed", "0")


class TestVerifyCommand:
    def test_default_suite_passes(self, verify_seed_0):
        code, out = verify_seed_0
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_broken_norm_negative_control(self):
        code, out = _verify("--seed", "0", "--inject-broken-norm")
        assert code == cli.EXIT_FAILURE
        *lines, summary = out.splitlines()
        failed = [line for line in lines if not line.startswith("PASS  ")]
        assert len(failed) == 1 and failed[0].startswith("FAIL  homogeneous norm scaling: ")
        assert summary == f"{len(lines) - 1}/{len(lines)} checks passed"

    def test_repeat_run_identical_report(self, verify_seed_0):
        assert _verify("--seed", "0") == verify_seed_0
