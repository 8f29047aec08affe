import contextlib
import io
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpid import cli, homogeneity, sim
from hpid.control import GainSet
from hpid.homogeneity import CanonicalNorm, WeightedSumNorm
from hpid.plant import (
    DisturbanceSpec, JointConfig, ReferenceSpec, default_six_joint_plant, reference_eval,
)
from hpid.sim import DivergenceError, Scenario
from hpid.stability import certify
from hpid.fixtures import HARDWARE_COMPARISON_ROWS
from hpid.workers import fork_map

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

README = Path(__file__).resolve().parents[1] / "README.md"
# stabilizing gains whose certificate is out of floating-point reach
UNCERTIFIABLE = "kp = -0.028758064503880257\nkd = -39730.40813056146\nki = -22.621816254646742\n"


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
        # accepting either would silently ignore it
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
            ("[scenario a]\n\nT = 1e308\nh = 0.001\n", [(4, "T/h overflows")]),
            # a finite T/h whose samples no array can index is cited at h, not raised by the run
            ("[scenario big]\nT = 1e300\nh = 0.001\n", [(3, "steps exceed any array")]),
            # an indexable T/h whose arrays no memory holds is cited at h, and nothing is allocated
            ("[scenario big]\nT = 1e13\nh = 0.001\n", [(3, "GiB of physical memory")]),
            ("[scenario a]\nx0 = nan, 0, 0\n", [(2, "x0 must be three finite reals")]),
            ("[scenario j]\nplant = joints\ndist_constant = 0.6\n", [(3, "exceeds the disturbance bound")]),
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm = canonical\nnorm_p = 1, 0, 0, -1\n",
             [(5, "strictly monotone")]),
            # the norm is checked at mu = 0 too, where the law evaluates none
            ("[scenario s]\nnorm = canonical\nnorm_p = 1, 0, 0, -1\n", [(3, "strictly monotone")]),
            ("[scenario s]\nnorm_coefficients = -1, 1\n", [(2, "coefficients must be finite and positive")]),
            # a several-key spec cites a one-key problem at that key, not at its first key set
            ("[scenario s]\nkp = nan\n", [(2, "gain kp must be finite")]),
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm = experimental\nzeta1_max = 1\nnorm_gamma = -1\n",
             [(6, "gamma must be a positive real (key 'norm_gamma')")]),
            # a zeta1_max whose reciprocal overflows is its own problem, not one of coefficients never written
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm = experimental\nzeta1_max = 1e-310\n",
             [(5, "zeta1_max = 1e-310 is too small: 1/zeta1_max overflows (key 'zeta1_max')")]),
            ("[scenario j]\nplant = joints\ndist_constant = 0.1\ndist_bound = -1\n",
             [(4, "disturbance bound must be nonnegative, got -1.0 (key 'dist_bound')")]),
            # a problem elsewhere in the section hides neither the per-joint nor the norm checks
            ("[scenario j]\nplant = joints\nmu = 0.7\ndist_bound = -1\n",
             [(3, "'mu'"), (4, "disturbance bound must be nonnegative, got -1.0 (key 'dist_bound')")]),
            ("[scenario a]\ncontroller = hpid\nmu = 0.2\nnorm_floor = 0\nnorm = experimental\nnorm_gamma = -1\n",
             [(4, "norm_floor must be a positive real"), (6, "gamma must be a positive real (key 'norm_gamma')")]),
            # an unparsed bound is not replaced by its default, which 0.4 + 0.15 would exceed
            ("[scenario j]\nplant = joints\ndist_constant = 0.4\ndist_bound = x\n", [(4, "(key 'dist_bound')")]),
            # a negative seed is cited at its line, not raised by the phase draw
            ("[scenario j]\nplant = joints\ndist_phase = random\nseed = -1\n", [(4, "seed must be a nonnegative integer")]),
            # a floor at which the law overflows is cited at the floor, not raised by the run
            ("[scenario j]\nplant = joints\ncontroller = hpid\nmu = -0.45\nnorm_floor = 1e-300\n",
             [(5, "norm_floor ** (3 mu) overflows at norm_floor = 1e-300, mu = -0.45 (key 'norm_floor')")]),
            # a sinusoid whose phase overflows on the horizon is cited at its frequency, or at T
            ("[scenario j]\nplant = joints\ndist_frequency = 1e308\nT = 9\n",
             [(3, "phase w t + phase overflows on [0, 9]: angular frequency 1e+308, phase 0 (key 'dist_frequency')")]),
            ("[scenario j]\nplant = joints\nref_phase = 1e308\nref_frequency = 1e308\nT = 2\nh = 0.2\n",
             [(4, "angular frequency 1e+308, phase 1e+308 (key 'ref_frequency')")]),
            ("[scenario j]\nplant = joints\nT = 1e308\nh = 1e307\n", [(3, "angular frequency 2, phase 0 (key 'T')")]),
            # a grid key that does not parse hides no problem of the other, checked alone at its line
            ("[scenario a]\nT = -1\nh = x\n", [(2, "horizon must be positive, got -1.0 (key 'T')"), (3, "'h'")]),
            ("[scenario a]\nT = x\nh = -1\n", [(2, "'T'"), (3, "step must be positive, got -1.0 (key 'h')")]),
            ("[scenario a]\nplant = joints\nn_joints = 0\n",
             [(3, "[scenario a] need at least one joint (key 'n_joints')")]),
            # the section structure: a header that does not parse, a key outside any section, a repeated section
            ("[scenario]\n", [(1, "malformed section header '[scenario]'")]),
            ("kp = -3\n[scenario a]\n", [(1, "'key = value' before any section header")]),
            ("[scenario a]\n\n[scenario a]\n", [(3, "duplicate section [scenario a]")]),
        ],
        ids=[
            "joints_mu", "x0_and_mu", "pid_mu_and_norm", "fixture", "certify_gain", "broken_scenario", "unknown_pair",
            "fixture_and_pair", "pid_coefficients", "hpid_coefficients",
            "coarse_step", "coarse_step_default_h", "huge_step_count", "unindexable_step_count",
            "unallocatable_step_count",
            "nonfinite_x0", "disturbance_bound",
            "nonmonotone_p", "nonmonotone_p_pid",
            "negative_coefficient", "scenario_gain", "experimental_gamma", "tiny_zeta1_max", "negative_disturbance_bound",
            "joints_mu_and_bound", "floor_and_gamma", "unparsed_bound", "negative_seed", "overflowing_floor",
            "overflowing_phase", "overflowing_reference_phase", "overflowing_phase_at_horizon",
            "bad_T_unparsed_h", "unparsed_T_bad_h", "no_joints", "malformed_header", "key_before_header",
            "duplicate_section",
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

    def test_memory_estimate_counts_every_block(self, monkeypatch):
        # per sample, simulate holds 4 floats per block and the time, and the
        # times as Python floats: 72 bytes on the extended plant, 104 on two joints
        monkeypatch.setattr(sim, "_physical_memory", lambda: 1e6)
        cli.parse_config("[scenario a]\nT = 10\nh = 0.001\n")  # 10001 samples, 0.72 MB
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[scenario j]\nplant = joints\nn_joints = 2\nT = 10\nh = 0.001\n")  # 1.04 MB
        [problem] = err.value.problems
        assert problem.startswith("line 5: [scenario j] step 0.001 too fine for horizon 10.0: ") and "memory" in problem
        with pytest.raises(ValueError, match="physical memory"):
            Scenario(horizon=10.0, step=0.001, joints=default_six_joint_plant()[:2])

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

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_parses_to_expected_scenarios(self, data):
        # each section's Scenario is built here through the library, with the
        # README's defaults for the keys the section leaves unset, so a wrong
        # key table entry in cli fails this test
        cases = [data.draw(scenario_cases(f"s{k}")) for k in range(data.draw(st.integers(1, 3)))]
        cfg = cli.parse_config("".join(text for text, _ in cases))
        assert cfg.scenarios == tuple(scenario for _, scenario in cases)

    def test_parses_extended_pair_and_certify(self):
        text = EXTENDED_PAIR + "\n[certify gains]\nkp = -3\nkd = -3\nki = -1\n"
        common = dict(x0=(1.0, 0.0, 0.3), horizon=2.0, step=0.001)
        assert cli.parse_config(text) == cli.RunConfig(
            scenarios=(Scenario("pid", name="lin", **common), Scenario("hpid", mu=0.1, name="hom", **common)),
            compares=(cli.CompareJob("pair", pid="lin", hpid="hom"),),
            certifies=(cli.CertifyJob("gains", GainSet(-3.0, -3.0, -1.0)),),
        )

    def test_parses_joints_and_norms(self):
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
        # random phases are drawn uniformly from [0, 2 pi) with the seed
        phases = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, size=3)
        canon = tuple(
            JointConfig(ReferenceSpec(a, 1.0, 0.0, 0.0), DisturbanceSpec(0.3, 0.15, 2.0, p, 0.5))
            for a, p in zip((1.0, 0.8, 0.6), phases)
        )
        exp = tuple(
            JointConfig(ReferenceSpec(1.0, 1.0, 0.0, 0.0), DisturbanceSpec(0.3, 0.15, 2.0, 0.7 * j, 0.5))
            for j in range(2)
        )
        assert cli.parse_config(text).scenarios == (
            Scenario("hpid", mu=0.2, norm=CanonicalNorm([[2.0, 0.3], [0.3, 1.0]]), joints=canon, name="joints_canon"),
            Scenario("hpid", mu=0.1, norm=WeightedSumNorm((1 / 1.5, 0.7)), joints=exp, name="joints_exp"),
        )

    def test_readme_example_parses(self):
        # the README's config example shows only keys the parser accepts
        [block] = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
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
def scenario_cases(draw, name):
    """A valid [scenario] section, and the Scenario it must parse to.

    Each key is set or left out at random; a key left out takes the default
    the README's key table documents, written out here.
    """
    lines = [f"[scenario {name}]"]

    def key(k, values, default):
        if not draw(st.booleans()):
            return default
        value = draw(values)
        lines.append(f"{k} = {value if isinstance(value, (str, int)) else values_text(np.ravel(value).tolist())}")
        return value

    def per_joint(k, values, default, n):
        # a scalar applies to every joint
        column = key(k, st.one_of(st.lists(values, min_size=1, max_size=1), st.lists(values, min_size=n, max_size=n)),
                     default)
        return column * n if len(column) == 1 else column

    controller = key("controller", st.sampled_from(["pid", "hpid"]), "pid")
    mu = key("mu", st.floats(-0.45, 0.45), 0.0) if controller == "hpid" else 0.0
    gains = GainSet(key("kp", finite, -3.0), key("kd", finite, -3.0), key("ki", finite, -1.0))
    kind = key("norm", st.sampled_from(["weighted_sum", "canonical", "experimental"]), "weighted_sum")
    if kind == "weighted_sum":
        norm = WeightedSumNorm(tuple(key("norm_coefficients", st.lists(positive, min_size=2, max_size=2), [1.0, 1.0])))
    elif kind == "canonical":
        # positive definite, and strictly monotone under every admissible dilation
        entries = st.tuples(st.floats(0.5, 3), st.floats(-0.2, 0.2), st.floats(0.5, 3))
        P = entries.map(lambda p: [[p[0], p[1]], [p[1], p[2]]])  # written row-major
        norm = CanonicalNorm(key("norm_p", P, [[1.0, 0.0], [0.0, 1.0]]))
    else:
        norm = WeightedSumNorm((1 / key("zeta1_max", positive, 1.0), key("norm_gamma", positive, 1.0)))
    h = key("h", st.sampled_from([1e-3, 1e-2, 0.05]), 1e-3)
    horizon = key("T", st.integers(10, 2000).map(lambda k: h * k), 9.0)
    floor = key("norm_floor", st.floats(1e-12, 1e-3), 1e-9)
    common = dict(gains=gains, mu=mu, norm=norm, horizon=horizon, step=h, norm_floor=floor, name=name)
    if key("plant", st.sampled_from(["extended", "joints"]), "extended") == "extended":
        x0 = tuple(key("x0", st.lists(finite, min_size=3, max_size=3), [1.0, 0.0, 0.3]))
        return "\n".join(lines) + "\n\n", Scenario(controller, x0=x0, **common)
    n = key("n_joints", st.integers(1, 4), 6)
    reference = [
        per_joint("ref_amplitude", finite, [1.0], n), per_joint("ref_frequency", finite, [1.0], n),
        per_joint("ref_phase", finite, [0.0], n), per_joint("ref_offset", finite, [0.0], n),
    ]
    # |constant| + |amplitude| <= 0.45 stays within every bound drawn or defaulted
    disturbance = [
        per_joint("dist_constant", st.floats(-0.3, 0.3), [0.3], n),
        per_joint("dist_amplitude", st.floats(-0.15, 0.15), [0.15], n),
        per_joint("dist_frequency", finite, [2.0], n),
        per_joint("dist_phase", finite, [0.7 * j for j in range(n)], n),
        per_joint("dist_bound", st.floats(0.5, 5), [0.5], n),
    ]
    joints = tuple(
        JointConfig(ReferenceSpec(*r), DisturbanceSpec(*d)) for r, d in zip(zip(*reference), zip(*disturbance))
    )
    return "\n".join(lines) + "\n\n", Scenario(controller, joints=joints, **common)


def _read_csv(path):
    """A written trajectory CSV as (header list, 2-D float array)."""
    header, *rows = Path(path).read_text(encoding="utf-8").splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


class TestSimulateCommand:
    def test_equilibrium_writes_zero_csv(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario eq]\nx0 = 0, 0, 0\nT = 1.0\nh = 0.01\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == 0
        header, data = _read_csv(tmp_path / "out" / "eq.csv")
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
        _, data = _read_csv(tmp_path / "out" / "ft.csv")
        assert np.linalg.norm(data[-1, 1:4]) <= 1e-4

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario s]\ncontroller = hpid\nmu = 0.7\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "mu must lie in (-0.5, 0.5)" in capsys.readouterr().err

    def test_mu_outside_certified_interval_warns(self, tmp_path, capsys):
        # gains with a narrow certified interval: warn when mu is outside it
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

    def test_uncertifiable_gains_warn_and_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        # kd = -39730 needs a step well below 1 / 39730 for RK4 to stay stable
        cfgfile.write_text(f"[scenario s]\ncontroller = hpid\nmu = 0.2\n{UNCERTIFIABLE}T = 0.001\nh = 0.00001\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == (
            "warning: scenario 's' cannot be certified: Lyapunov matrix is ill-conditioned (condition number 5.033e+16)\n"
        )
        assert (tmp_path / "out" / "s.csv").is_file()

    def test_each_gain_set_certified_once(self, tmp_path, capsys, monkeypatch):
        # warnings stay per scenario and in config order
        calls = []
        monkeypatch.setattr(cli, "certify", lambda gains: calls.append(gains) or certify(gains))
        narrow = "kp = -0.2\nkd = -6\nki = -1\n"
        sections = [("a", 0.3, narrow), ("b", 0.1, ""), ("c", 0.1, narrow), ("d", 0.4, narrow), ("e", 0.2, "")]
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "".join(f"[scenario {n}]\ncontroller = hpid\nmu = {mu}\n{g}T = 0.1\nh = 0.01\n\n" for n, mu, g in sections)
        )
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        assert calls == [GainSet(-0.2, -6.0, -1.0), GainSet(-3.0, -3.0, -1.0)]
        warned = re.findall(r"scenario '(\w)' requests mu=", capsys.readouterr().err)
        assert warned == ["a", "d"]

    def test_csv_round_trip_full_precision(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario rt]\ncontroller = hpid\nmu = 0.1\nT = 1.0\nh = 0.01\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        from hpid.sim import simulate

        cfg = cli.parse_config(cfgfile.read_text())
        traj = simulate(cfg.scenario("rt"))
        _, data = _read_csv(tmp_path / "out" / "rt.csv")
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
        _, data = _read_csv(tmp_path / "out" / "j.csv")
        refs = [jc.reference for jc in cli.parse_config(cfgfile.read_text()).scenario("j").joints]
        for k, ref in enumerate(refs):
            q, eps = data[:, 1 + 3 * k], data[:, 3 + 3 * k]
            assert [reference_eval(ref, t)[0] - e for t, e in zip(data[:, 0].tolist(), eps.tolist())] == q.tolist()

    def test_joints_csv_schema(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario j]\nplant = joints\nn_joints = 2\nT = 1.0\nh = 0.01\n")
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        header, data = _read_csv(tmp_path / "out" / "j.csv")
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
        # the files holds: at most a block of text, far below the bytes of the
        # smallest file.  Over two workers each run is two groups of three
        # joints: this process writes the first group of p and of q, a child
        # the second, and then this process pastes both.
        cfg = cli.parse_config(
            "[scenario p]\nplant = joints\nT = 9.0\nh = 0.001\n\n"
            "[scenario q]\nplant = joints\ncontroller = hpid\nmu = 0.2\nT = 9.0\nh = 0.001\n"
        )
        runs = {sub: cli.simulate(sub) for scn in cfg.scenarios for _, sub in cli._joint_groups(scn, 2)}
        assert len(runs) == 4
        monkeypatch.setattr(cli, "simulate", lambda scn: runs[scn])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tracemalloc.start()
        try:
            assert cli.cmd_simulate(cfg, tmp_path) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < min(path.stat().st_size for path in tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_seed_flag_is_a_usage_error(self, command, capsys):
        # the config's seed = key is the one way to seed dist_phase = random
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--seed", "1", "--config", "c", "--out", "o"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestCommandInputs:
    def test_non_utf8_config_is_a_config_error_at_its_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_bytes(b"[scenario a]\nT = 1\n\xff\xfe\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: line 3: not UTF-8 text (invalid start byte 0xff)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, what",
        [
            ("simulate", "[certify c]\n", "simulate (no [scenario] sections)"),
            ("compare", "[scenario a]\n", "compare (no [compare] sections)"),
            ("certify", "[scenario a]\n", "certify (no [certify] sections)"),
        ],
        ids=["simulate", "compare", "certify"],
    )
    def test_nothing_to_do_is_a_config_error(self, tmp_path, capsys, command, text, what):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(text)
        assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"nothing to {what}\n")

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "missing"
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"config error: cannot read config {str(cfgfile)!r}: "
        assert captured.err.startswith(prefix) and "No such file" in captured.err and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("simulate", "[scenario a]\nT = 1\n"),
            ("compare", EXTENDED_PAIR),
            ("certify", "[certify default]\nkp = -3\nkd = -3\nki = -1\n"),
        ],
        ids=["simulate", "compare", "certify"],
    )
    def test_out_that_is_a_file_is_one_error_line(self, tmp_path, capsys, command, text):
        # reported before any run or printed result, and the file is left as it was
        cfgfile, out = tmp_path / "cfg", tmp_path / "out"
        cfgfile.write_text(text)
        out.write_bytes(b"a file\n")
        assert cli.main([command, "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"config error: --out: cannot make the output directory: .*File exists.*\n", captured.err)
        assert out.read_bytes() == b"a file\n"

    def test_joint_count_no_memory_holds_is_a_config_error(self, tmp_path, capsys):
        # the grid rejects the count, cited at h as for any grid no memory holds;
        # the per-joint lists, one value broadcast or defaulted, are never built n long
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario a]\nplant = joints\nn_joints = 1000000000000\nT = 1\nh = 0.01\nref_amplitude = 1\n")
        tracemalloc.start()
        try:
            code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"config error: line 5: .*GiB of physical memory \(key 'h'\)\n", captured.err)
        assert peak < 2**20

    def test_joint_count_no_memory_holds_is_a_config_error_on_a_rejected_grid(self, tmp_path, capsys):
        # with no valid grid to judge it, the count is judged on the coarsest one
        # any horizon allows and cited at n_joints; the broadcast list is never built
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("[scenario a]\nplant = joints\nn_joints = 1000000000000\nT = -1\nh = 0.01\nref_amplitude = 1\n")
        tracemalloc.start()
        try:
            code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert all(line.startswith("config error: ") for line in lines)
        assert any(re.fullmatch(r"config error: line 3: .*GiB of physical memory \(key 'n_joints'\)", line) for line in lines)
        assert peak < 2**20


def _row_by_row_text(traj, first: int = 0) -> str:
    """A run's, or a joint group's, whole CSV text in one format call per row: the renderer's reference."""
    times, controls = traj.times.tolist(), traj.controls.tolist()
    if traj.scenario.plant == "extended":
        header = ["t", "x1", "x2", "x3", "u"]
        rows = [(t, *x, *u) for t, x, u in zip(times, traj.states.tolist(), controls)]
    else:
        header = [] if first else ["t"]
        for k in range(first + 1, first + 1 + traj.controls.shape[1]):
            header += [f"j{k}_q", f"j{k}_u", f"j{k}_eps"]
        positions = [jc.reference.position for jc in traj.scenario.joints]
        rows = []
        for t, err, ctl in zip(times, traj.errors.tolist(), controls):
            row = [] if first else [t]
            for position, e, u in zip(positions, err, ctl):
                row += (position(t) - e, u, e)
            rows.append(row)
    return "".join([",".join(header) + "\n", *(",".join(["%.17g"] * len(row)) % tuple(row) + "\n" for row in rows)])


def _first_difference(got: str, expected: str) -> tuple[int, str, str] | None:
    """None if two texts are equal, else their first differing line: its number and both versions.

    A report that stays cheap on texts of thousands of lines, where
    pytest's own diff of a failed `==` can take minutes.
    """
    if got == expected:
        return None
    end = ["<end of text>"]
    pairs = list(zip(got.splitlines() + end, expected.splitlines() + end))
    k = next((k for k, (a, b) in enumerate(pairs) if a != b), len(pairs) - 1)
    return k + 1, *pairs[k]


class TestCsvMatchesRowByRowRendering:
    """Every CSV byte is the one a format call per row gives (_row_by_row_text)."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("plant", ["extended", "joints"])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1], ids=["below", "equal", "above"])
    def test_simulate_files(self, tmp_path, monkeypatch, extra_rows, plant, cores):
        # row counts around the block size; on two cores the joints run is two joint groups, pasted
        rows = cli.CSV_BLOCK_ROWS + extra_rows
        joints = "n_joints = 3\n" if plant == "joints" else ""
        cfg = cli.parse_config(
            f"[scenario b]\nplant = {plant}\n{joints}controller = hpid\nmu = 0.1\n"
            f"T = {(rows - 1) / 128}\nh = 0.0078125\n"
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert cli.cmd_simulate(cfg, tmp_path) == 0
        written = (tmp_path / "b.csv").read_bytes().decode("utf-8")
        assert _first_difference(written, _row_by_row_text(sim.simulate(cfg.scenario("b")))) is None
        assert written.count("\n") == rows + 1

    def test_joint_groups(self):
        # a group after the first has no t column and keeps its joints' plant-wide numbers
        text = "[scenario g]\nplant = joints\nn_joints = 5\ncontroller = hpid\nmu = -0.2\nT = 2.5\n"
        scn = cli.parse_config(text).scenario("g")
        groups = cli._joint_groups(scn, 3)
        assert [first for first, _ in groups] == [0, 1, 3]
        for first, sub in groups:
            traj = sim.simulate(sub)
            expected = _row_by_row_text(traj, first)
            starts = range(0, len(traj.times), cli.CSV_BLOCK_ROWS)
            blocks = "".join(cli.trajectory_csv_text(traj, s, s + cli.CSV_BLOCK_ROWS, first) for s in starts)
            assert _first_difference(blocks, expected) is None
            assert _first_difference(cli.trajectory_csv_text(traj, 0, None, first), expected) is None

    @pytest.mark.parametrize("plant", ["extended", "joints"])
    def test_format_edge_values(self, plant):
        # %.17g writes -0 and subnormals, and switches to an exponent below 1e-4 and from 1e17 on
        edges = [-0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e-4, 1e16, -1e16, 1e17, -1e17, 0.1, -2.5, 1 / 3]
        scn = Scenario(joints=default_six_joint_plant()[:2]) if plant == "joints" else Scenario()
        blocks = len(scn.joints) or 1
        values = np.resize(edges, (3 * len(edges), 4 * blocks + 1))  # 13 is prime: each column takes every value
        traj = sim.Trajectory(values[:, 0], values[:, 1 : 3 * blocks + 1], values[:, 3 * blocks + 1 :], scn)
        expected = _row_by_row_text(traj)
        assert _first_difference(cli.trajectory_csv_text(traj, 0, None), expected) is None
        assert cli.trajectory_csv_text(traj, len(traj.times), None) == ""  # an empty range past the header
        # in blocks, as simulate writes: three of 16 rows and a last of 7
        blocks = "".join(cli.trajectory_csv_text(traj, s, s + 16) for s in range(0, len(traj.times), 16))
        assert _first_difference(blocks, expected) is None

    @pytest.mark.parametrize("cores", [1, 2])
    def test_mixed_grids(self, tmp_path, monkeypatch, cores):
        # grids A, B (as many steps as A, another step), A again, and A's step on a longer horizon:
        # each file has the t column of its own grid
        cfg = cli.parse_config(
            "[scenario a1]\nT = 1\nh = 0.01\n\n"
            "[scenario b]\nplant = joints\nn_joints = 2\nT = 0.5\nh = 0.005\n\n"
            "[scenario a2]\ncontroller = hpid\nmu = -0.2\nT = 1\nh = 0.01\n\n"
            "[scenario a3]\nplant = joints\nn_joints = 3\nT = 12\nh = 0.01\n"
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert cli.cmd_simulate(cfg, tmp_path) == 0
        for scn in cfg.scenarios:
            written = (tmp_path / f"{scn.name}.csv").read_bytes().decode("utf-8")
            assert _first_difference(written, _row_by_row_text(sim.simulate(scn))) is None


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
        # a tie is no win
        assert text.splitlines()[-1] == "summary,hpid_lower_ivc,0,hpid_lower_iavc,0,joints,1"

    def test_scenario_named_by_several_jobs_simulated_once(self, tmp_path, monkeypatch):
        # the runs are spread over worker processes, so each call is counted
        # in a file every process appends to
        log = tmp_path / "simulated"
        log.touch()

        def counting_simulate(scn, real=cli.simulate):
            with log.open("a") as f:
                f.write(scn.name + "\n")
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
        assert sorted(log.read_text().split()) == ["a", "b", "p"]
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
        assert "aggregate,l2_control,423.933,329.459,,," in lines
        assert "aggregate,l2_error,52.2818,55.0789,,," in lines
        assert "aggregate,l2_error_alt,59.214,55.865,conflicting_report,," in lines

    def test_grid_mismatch_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "[scenario a]\nT = 2.0\nh = 0.001\n\n[scenario b]\nT = 2.0\nh = 0.0005\n\n"
            "[compare bad]\npid = a\nhpid = b\n"
        )
        code = cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "runs, message",
        [
            ("[scenario a]\nT = 1.0\nh = 0.01\n\n[scenario b]\nplant = joints\nn_joints = 1\nT = 1.0\nh = 0.01\n",
             "runs use different plants"),
            ("[scenario a]\nT = 1.0\nh = 0.01\n\n[scenario b]\nT = 2.0\nh = 0.02\n", "runs were sampled on different grids"),
        ],
        ids=["plants", "grids"],
    )
    def test_unpairable_runs_are_config_errors(self, tmp_path, capsys, runs, message):
        # one channel and 101 samples each: only the plant, or only the sample times, differ
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(runs + "\n[compare bad]\npid = a\nhpid = b\n")
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: [compare bad] {message}\n")

    def test_pair_summary_line(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(EXTENDED_PAIR)
        assert cli.main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        last = (tmp_path / "out" / "pair.csv").read_text().splitlines()[-1]
        assert last.startswith("summary,hpid_lower_ivc,")


MIXED = """
[scenario ext_pid]
x0 = 1.0, 0.0, 0.3
T = 1.0
h = 0.01

[scenario ext_ws]
controller = hpid
mu = 0.2
norm_coefficients = 2, 0.5
x0 = 1.0, 0.0, 0.3
T = 1.0
h = 0.01

[scenario ext_can]
controller = hpid
mu = -0.1
norm = canonical
norm_p = 2, 0.5, 0.5, 1
x0 = 1.0, 0.0, 0.3
T = 1.0
h = 0.01

[scenario ext_unstable]
controller = hpid
kp = 1
mu = 0.1
x0 = 1.0, 0.0, 0.3
T = 1.0
h = 0.01

[scenario j_pid]
plant = joints
n_joints = 2
T = 1.0
h = 0.01

[scenario j_exp]
plant = joints
n_joints = 2
controller = hpid
mu = -0.2
norm = experimental
zeta1_max = 1.5
dist_phase = random
seed = 3
T = 1.0
h = 0.01

[compare ext]
pid = ext_pid
hpid = ext_can

[compare fix]
fixture = hardware

[compare joints]
pid = j_pid
hpid = j_exp

[compare ext_ws]
pid = ext_pid
hpid = ext_ws
"""

GOOD = "[scenario good]\nT = 1.0\nh = 0.01\n\n[scenario fine]\ncontroller = hpid\nmu = 0.1\nT = 1.0\nh = 0.01\n\n"
BAD = "[scenario bad]\nkp = 3\nkd = 3\nki = 1\nT = 9.0\n\n"  # diverges at t = 5.463
LATER_JOBS_FAIL = {
    "divergence": GOOD + BAD + "[compare ok]\npid = good\nhpid = fine\n\n[compare broken]\npid = good\nhpid = bad\n",
    "grid_mismatch": GOOD + "[scenario coarse]\nT = 1.0\nh = 0.02\n\n"
    "[compare ok]\npid = good\nhpid = fine\n\n[compare broken]\npid = coarse\nhpid = fine\n",
}
FORKED = [{0, 1}, {0, 1, 2}, set(range(8))]  # up to more workers than scenarios
# six-joint runs that fail in a later joint group first: cut in two or three
# groups, joint 4 or 5 is in the second or third, and alone on 8 cores
SPLIT_FAILS = {
    # joint 4 diverges at t = 5.45, the other joints at t = 7.24
    "divergence": "[scenario split]\nplant = joints\nkp = 3\nkd = 3\nki = 1\nT = 9.0\nh = 0.01\n"
    "ref_amplitude = 1e-3, 1e-3, 1e-3, 1, 1e-3, 1e-3\ndist_constant = 0\ndist_amplitude = 0\n",
    # joint 5 starts at de = 1e300, where its law's norm to the power 3 mu
    # overflows: a divergence at t = 0; the other joints pass 1e9 at t = 0.57
    "law_raises": "[scenario split]\nplant = joints\ncontroller = hpid\nmu = 0.45\nkp = 3\nkd = 3\nki = 1\nT = 9.0\n"
    "h = 0.01\nref_amplitude = 1, 1, 1, 1, 1e300, 1\ndist_constant = 0\ndist_amplitude = 0\n",
}


def _run(tmp_path, monkeypatch, capsys, cores, command, text, existing=None):
    """(exit code, stdout, stderr, {file: bytes}) of one command run as if on the given cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    run = tmp_path / f"cores{len(cores)}"
    out = run / "out"
    out.mkdir(parents=True)
    for name, data in (existing or {}).items():
        (out / name).write_bytes(data)
    (run / "cfg").write_text(text)
    code = cli.main([command, "--config", str(run / "cfg"), "--out", str(out)])
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return code, captured.out.replace(str(out), "OUT"), captured.err.replace(str(out), "OUT"), files


class TestWorkerProcesses:
    """Runs spread over forked workers give, byte for byte, what one core gives."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cores", FORKED, ids=len)
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_mixed_config_matches_one_core(self, tmp_path, monkeypatch, capsys, command, cores):
        serial = _run(tmp_path, monkeypatch, capsys, {0}, command, MIXED)
        assert serial[0] == cli.EXIT_OK
        assert ("non-stabilizing gains" in serial[2]) == (command == "simulate")  # compare warns of nothing
        assert len(serial[3]) == (6 if command == "simulate" else 4)
        assert _run(tmp_path, monkeypatch, capsys, cores, command, MIXED) == serial

    @pytest.mark.parametrize("case", LATER_JOBS_FAIL)
    def test_failing_compare_job_matches_one_core(self, tmp_path, monkeypatch, capsys, case):
        # the jobs before the failing one are written and reported, as job by job
        serial = _run(tmp_path, monkeypatch, capsys, {0}, "compare", LATER_JOBS_FAIL[case])
        assert serial[0] == (cli.EXIT_DIVERGENCE if case == "divergence" else cli.EXIT_CONFIG)
        assert list(serial[3]) == ["ok.csv"]
        assert _run(tmp_path, monkeypatch, capsys, {0, 1, 2}, "compare", LATER_JOBS_FAIL[case]) == serial

    @pytest.mark.parametrize("bad_at", [0, 1], ids=["parent_share", "child_share"])
    def test_divergence_leaves_out_untouched(self, tmp_path, monkeypatch, capsys, bad_at):
        # with three workers, scenario 0 is this process's and scenario 1 a child's
        scenarios = [GOOD.split("\n\n")[0], GOOD.split("\n\n")[1]]
        scenarios.insert(bad_at, BAD.strip())
        text = "\n\n".join(scenarios) + "\n"
        existing = {"good.csv": b"earlier contents\n"}
        serial = _run(tmp_path, monkeypatch, capsys, {0}, "simulate", text, existing)
        assert serial == (cli.EXIT_DIVERGENCE, "", "error: simulation diverged at t = 5.463 (|x| > 1e+09)\n", existing)
        assert _run(tmp_path, monkeypatch, capsys, {0, 1, 2}, "simulate", text, existing) == serial

    @pytest.mark.parametrize("cores", [{0}, {0, 1, 2}], ids=len)
    def test_user_files_named_like_part_files_survive(self, tmp_path, monkeypatch, capsys, cores):
        # simulate keeps its part files and fragments in a directory of its own:
        # a user's file under a name one of them once had is neither written nor removed
        existing = {".good.csv.part": b"user data\n", ".six.csv.part.j3": b"more user data\n"}
        text = GOOD + "[scenario six]\nplant = joints\nT = 1.0\nh = 0.01\n"
        code, _, _, files = _run(tmp_path, monkeypatch, capsys, cores, "simulate", text, existing)
        assert code == cli.EXIT_OK
        assert sorted(files) == sorted([*existing, "fine.csv", "good.csv", "six.csv"])
        assert {name: files[name] for name in existing} == existing

    @pytest.mark.parametrize("cores", FORKED, ids=len)
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("case", SPLIT_FAILS)
    def test_failing_split_run_matches_one_core(self, tmp_path, monkeypatch, capsys, case, command, cores):
        # the first group's failure is not the run's: the run fails as on one core
        jobs = "\n[compare ok]\npid = good\nhpid = fine\n\n[compare broken]\npid = split\nhpid = split\n"
        text = GOOD + SPLIT_FAILS[case] + jobs
        serial = _run(tmp_path, monkeypatch, capsys, {0}, command, text)
        failure = {"divergence": "t = 5.45 (|x| > 1e+09)", "law_raises": "t = 0 (non-finite right-hand side)"}[case]
        # simulate warns first of the hpid scenario its gains do not stabilize
        warning = "warning: scenario 'split' uses non-stabilizing gains\n"
        expected = (warning if (case, command) == ("law_raises", "simulate") else "") + (
            f"error: simulation diverged at {failure}\n"
        )
        assert serial[:3:2] == (cli.EXIT_DIVERGENCE, expected)
        assert list(serial[3]) == ([] if command == "simulate" else ["ok.csv"])
        assert _run(tmp_path, monkeypatch, capsys, cores, command, text) == serial

    @pytest.mark.parametrize("cores", FORKED, ids=len)
    def test_split_divergence_names_the_plant_wide_block(self, monkeypatch, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        for case, step, block in [("divergence", 544, 3), ("law_raises", 0, 4)]:
            scn = cli.parse_config(SPLIT_FAILS[case]).scenarios[0]
            with pytest.raises(DivergenceError) as whole:
                cli.simulate(scn)
            assert (whole.value.step, whole.value.block) == (step, block), case
            for _, sub in cli._joint_groups(scn, len(cores)):  # every group fails: the run's failure is chosen
                with pytest.raises(DivergenceError):
                    cli.simulate(sub)
            [split] = cli._map_runs(lambda first, sub: cli.simulate(sub), [scn])
            assert isinstance(split, DivergenceError)
            assert (split.step, split.block, str(split)) == (step, block, str(whole.value))

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_six_joint_run_uses_every_core(self, tmp_path, monkeypatch, command):
        # a six-joint run is cut into one group per core, at most one per joint,
        # each in its own process; an extended-plant run is never split
        log = tmp_path / "runs"

        def logging_simulate(scn, real=cli.simulate):
            with log.open("a") as f:
                f.write(f"{os.getpid()} {scn.name} {len(scn.joints)}\n")
            return real(scn)

        monkeypatch.setattr(cli, "simulate", logging_simulate)
        cfg = cli.parse_config(
            GOOD + "[scenario six]\nplant = joints\nT = 1.0\nh = 0.01\n\n"
            "[compare ok]\npid = good\nhpid = fine\n\n[compare self]\npid = six\nhpid = six\n"
        )
        for cores, groups in (({0, 1}, ["3", "3"]), (set(range(8)), ["1"] * 6)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            log.write_text("")
            assert getattr(cli, f"cmd_{command}")(cfg, tmp_path / f"out{len(cores)}") == cli.EXIT_OK
            runs = [line.split() for line in log.read_text().splitlines()]
            assert sorted(joints for _, name, joints in runs if name == "six") == groups
            assert len({pid for pid, name, _ in runs if name == "six"}) == len(groups)
            assert sorted((name, joints) for _, name, joints in runs if name != "six") == [("fine", "0"), ("good", "0")]

    @pytest.mark.parametrize("cores", FORKED, ids=len)
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("joints", [1, 2, 3, 7])
    def test_joint_groups_match_one_core(self, tmp_path, monkeypatch, capsys, joints, command, cores):
        # fewer joints than cores, one per core, and uneven groups
        text = (
            f"[scenario p]\nplant = joints\nn_joints = {joints}\nT = 1.0\nh = 0.01\n\n"
            f"[scenario q]\nplant = joints\nn_joints = {joints}\ncontroller = hpid\nmu = 0.2\nT = 1.0\nh = 0.01\n\n"
            "[compare pq]\npid = p\nhpid = q\n"
        )
        serial = _run(tmp_path, monkeypatch, capsys, {0}, command, text)
        assert serial[0] == cli.EXIT_OK and len(serial[3]) == (2 if command == "simulate" else 1)
        assert _run(tmp_path, monkeypatch, capsys, cores, command, text) == serial

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_child_exception_reraised(self, tmp_path, monkeypatch, command):
        def failing_simulate(scn, real=cli.simulate):
            if scn.name == "fine":
                raise ZeroDivisionError("no run for fine")
            return real(scn)

        monkeypatch.setattr(cli, "simulate", failing_simulate)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = cli.parse_config(GOOD + "[compare ok]\npid = good\nhpid = fine\n")
        with pytest.raises(ZeroDivisionError, match="^no run for fine$"):
            getattr(cli, f"cmd_{command}")(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_map_spreads_items_over_workers(self, monkeypatch):
        # worker k takes items k::n, worker 0 being this process; with another
        # thread running, which fork would not copy, this process takes all
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pids = fork_map(lambda x: os.getpid(), list(range(7)))
        assert pids[0::3] == [os.getpid()] * 3
        assert len(set(pids)) == 3 and all(len(set(pids[k::3])) == 1 for k in range(3))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert fork_map(lambda x: os.getpid(), list(range(7))) == [os.getpid()] * 7
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_map_keeps_order_and_raises_the_first_failure(self, monkeypatch):
        items = list(range(7))
        for cores in [{0}, *FORKED]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            assert fork_map(lambda x: x * x, items) == [x * x for x in items]
            assert fork_map(lambda x: x, []) == []

            def fail_at_2_and_3(x):
                # forked over three workers, item 2 fails in a child and item 3 here
                if x in (2, 3):
                    raise ValueError(f"item {x}")
                return x

            with pytest.raises(ValueError, match="^item 2$"):
                fork_map(fail_at_2_and_3, items)

    @pytest.mark.parametrize("loads", [False, True], ids=["dumps_fails", "loads_fails"])
    def test_map_reports_an_exception_that_does_not_pickle(self, monkeypatch, loads):
        class Local(Exception):  # pickling it fails: nothing can import a local class
            pass

        def fail_in_child(x):
            if x == 1:
                raise _TwoArgError("item", 1) if loads else Local("item 1")
            return x

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        name = "_TwoArgError" if loads else "Local"
        with pytest.raises(RuntimeError, match=f"^worker process returned {name}: item 1$"):
            fork_map(fail_in_child, [0, 1])


def _magnitude(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)


@st.composite
def parsing_configs(draw) -> str:
    """A scenario `s` over the edges of the design range, with a self-pair [compare c]."""
    lines = ["[scenario s]"]
    if draw(st.booleans()):
        lines += ["plant = joints", "n_joints = 2"]
        for key in ("ref_frequency", "dist_frequency"):
            lines.append(f"{key} = {draw(_magnitude(-3, 308))!r}, {draw(_magnitude(-3, 308))!r}")
    for key in ("kp", "kd", "ki"):
        lines.append(f"{key} = {draw(st.sampled_from([-1.0, 1.0])) * draw(_magnitude(-3, 6))!r}")
    if draw(st.booleans()):
        lines += ["controller = hpid", f"mu = {draw(st.floats(-0.49, 0.49))!r}"]
    kind = draw(st.sampled_from(["weighted_sum", "canonical", "experimental"]))
    lines.append(f"norm = {kind}")
    if kind == "weighted_sum":
        lines.append(f"norm_coefficients = {draw(_magnitude(-3, 250))!r}, {draw(_magnitude(-3, 250))!r}")
    elif kind == "canonical":
        scale = draw(_magnitude(-3, 3))
        lines.append(f"norm_p = {2 * scale!r}, {0.3 * scale!r}, {0.3 * scale!r}, {scale!r}")
    else:
        lines += [f"zeta1_max = {draw(_magnitude(-3, 3))!r}", f"norm_gamma = {draw(_magnitude(-3, 3))!r}"]
    T = draw(st.sampled_from([0.1, 1.0]))
    lines += [f"norm_floor = {draw(_magnitude(-300, -3))!r}", f"T = {T!r}", f"h = {T / 10!r}"]
    return "\n".join(lines) + "\n\n[compare c]\npid = s\nhpid = s\n"


class TestRunsFailOneWay:
    """A config that parses ends simulate and a self-pair compare in 0 or 3: every failed run is a divergence."""

    @settings(max_examples=200, deadline=None)
    @given(parsing_configs())
    def test_parsed_config_exits_0_or_3(self, text):
        try:
            cfg = cli.parse_config(text)
        except cli.ConfigError:
            return  # the config check's own domain
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = cli.cmd_simulate(cfg, out), cli.cmd_compare(cfg, out)
        assert codes in {(0, 0), (3, 3)}, text


class _TwoArgError(Exception):
    """Pickled by its message, so loading calls it with one argument and fails."""

    def __init__(self, what, index):
        super().__init__(f"{what} {index}")


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

    def test_uncertifiable_gains_reported_and_later_jobs_run(self, tmp_path, capsys):
        # stabilizing gains whose P is too ill-conditioned to certify, then gains whose P overflows
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            f"[certify stiff]\n{UNCERTIFIABLE}\n[certify huge]\nkp = -1e300\nkd = -1e300\nki = -1e300\n\n"
            "[certify default]\nkp = -3\nkd = -3\nki = -1\n"
        )
        code = cli.main(["certify", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  uncertifiable: Lyapunov matrix is ill-conditioned (condition number 5.033e+16)"
        assert lines[3] == "  uncertifiable: Lyapunov solve failed (residual nan)"
        assert lines[4].startswith("[certify default]") and "  certified degree interval: (-0.5, 0.5)" in lines
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["default.cert.csv"]


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

    def test_broken_norm_negative_control(self, monkeypatch):
        # a weighted-sum norm with a wrong weight, where verify's checks evaluate norms
        evaluator = homogeneity.norm_evaluator

        def broken(spec, dil):
            norm = evaluator(spec, dil)
            if not isinstance(spec, homogeneity.WeightedSumNorm):
                return norm
            return lambda a, b: norm(a, b) + 0.01 * abs(a)

        monkeypatch.setattr(homogeneity, "norm_evaluator", broken)
        code, out = _verify("--seed", "0")
        assert code == cli.EXIT_FAILURE
        *lines, summary = out.splitlines()
        failed = [line for line in lines if not line.startswith("PASS  ")]
        assert len(failed) == 1 and failed[0].startswith("FAIL  homogeneous norm scaling: ")
        assert summary == "7/8 checks passed"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "--inject-broken-norm"])
        assert exit_.value.code == cli.EXIT_CONFIG

    def test_repeat_run_identical_report(self, verify_seed_0):
        assert _verify("--seed", "0") == verify_seed_0

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "--seed", "-1"])
        assert exit_.value.code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines()[-1] == (
            "hpid verify: error: argument --seed: seed must be a nonnegative integer, got -1"
        )


def _help(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit):
        cli.main([*argv, "--help"])
    return capsys.readouterr().out


def test_scenario_keys_match_readme():
    # the README's scenario-key table names exactly the keys parse_config accepts
    table = README.read_text(encoding="utf-8").split("Scenario keys", 1)[1].split("\n### ", 1)[0]
    documented = set()
    for cell in re.findall(r"^\| (`[^|]*?) \|", table, flags=re.M):
        for name in re.findall(r"`([^`]+)`", cell):
            first, *rest = name.split("/")  # ref_amplitude/frequency: ref_amplitude, ref_frequency
            documented |= {first, *(first[: first.index("_") + 1] + part for part in rest)}
    norm_keys = {key for keys, _ in cli._NORMS.values() for key in keys}
    accepted = {*cli._CHOICES, *cli._GAIN_KEYS, *cli._NUMBER_KEYS, *norm_keys, *cli._REFERENCE_KEYS,
                *cli._DISTURBANCE_KEYS, "x0", "n_joints", "seed"}
    assert documented == accepted


def test_library_example_runs(capsys):
    # the README's library example runs against the package as it is
    [block] = re.findall(r"## Library example\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


def test_help_flags_match_readme(capsys):
    # each subcommand's --help shows exactly the flags the README's Command line block shows for it
    [block] = re.findall(r"## Command line\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in block.splitlines()}
    commands = re.search(r"\{([a-z,]+)\}", _help(capsys)).group(1).split(",")
    shown = {cmd: set(re.findall(r"--[a-z][a-z-]*", _help(capsys, cmd))) - {"--help"} for cmd in commands}
    assert shown == documented
