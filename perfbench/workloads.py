"""The benchmark's workloads: inputs made from a seed, one round of
operations, and the independent checks of a round's outputs.

A round is the fixed list of operations a workload repeats; every run
attempts whole rounds.  Operations are `hpid` CLI commands run in-process
through `hpid.cli.main`, or library calls through hpid's public API.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

GAINS = (-3.0, -3.0, -1.0)  # closed-loop poles all at -1
FLOOR = 1e-9  # the program's default norm floor

# the six-joint desk plant of the PID-vs-hPID comparison: per-joint reference
# sinusoids, and the default bounded disturbance with random phases
AMPLITUDES = (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
FREQUENCIES = (1.0, 1.2, 0.8, 1.5, 0.6, 1.0)
OFFSETS = (0.5, 0.4, 0.3, 0.35, 0.25, 0.45)
DISTURBANCE = {"dist_constant": 0.3, "dist_amplitude": 0.15, "dist_frequency": 2.0}


def hpid_tolerance(h: float) -> float:
    """Allowed gap between an hPID run at step h and the reference at h/2.

    The error-pair norms have a cusp where the error crosses zero, so RK4
    keeps only about second order there; gaps seen are up to 1.4e-6 at
    h = 1e-3 (six-joint control, mu = -0.3).
    """
    return 10.0 * h * h


@dataclass
class Op:
    """One operation of a round; run(out_dir) returns (exit code, payload)."""

    name: str
    run: Callable[[Path], tuple[int, object]]
    outputs: tuple[str, ...] = ()
    command: bool = True  # an `hpid` CLI command, timed into command_p50_s


def fingerprint(op: Op, out: Path, result) -> str:
    """Digest of an operation's exit code, payload and output files."""
    code, payload = result
    h = hashlib.sha256(repr(code).encode())
    if isinstance(payload, tuple):  # a library result: trajectory, certificate, decrease report
        traj, cert, report = payload
        for arr in (traj.times, traj.states, traj.controls, cert.P.entries):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((cert.beta, cert.gamma, cert.mu_lo, cert.mu_hi, report)).encode())
    else:
        h.update(str(payload).encode())
    for name in op.outputs:
        path = out / name
        h.update(path.read_bytes() if path.is_file() else b"missing")
    return h.hexdigest()


def cli_op(name: str, argv: list[str], outputs=()) -> Op:
    def run(out: Path):
        from hpid import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([a.replace("{out}", str(out)) for a in argv])
        return code, buf.getvalue().replace(str(out), "{out}")

    return Op(name, run, tuple(outputs))


def fmt(x: float) -> str:
    """A float as the config text that parses back to the same value."""
    return repr(float(x))


def n_steps(s: dict) -> int:
    return int(round(s["T"] / s["h"]))


def norm_lines(norm: dict) -> list[str]:
    if norm["kind"] == "weighted_sum":
        return ["norm = weighted_sum", f"norm_coefficients = {fmt(norm['coefficients'][0])}, {fmt(norm['coefficients'][1])}"]
    if norm["kind"] == "experimental":
        return ["norm = experimental", f"zeta1_max = {fmt(norm['zeta1_max'])}", f"norm_gamma = {fmt(norm['norm_gamma'])}"]
    flat = ", ".join(fmt(v) for row in norm["norm_p"] for v in row)
    return ["norm = canonical", f"norm_p = {flat}"]


def scenario_text(s: dict) -> str:
    lines = [f"[scenario {s['name']}]", f"plant = {s['plant']}", f"controller = {s['controller']}"]
    lines += [f"kp = {fmt(s['gains'][0])}", f"kd = {fmt(s['gains'][1])}", f"ki = {fmt(s['gains'][2])}"]
    if s["controller"] == "hpid":
        lines.append(f"mu = {fmt(s['mu'])}")
        lines += norm_lines(s["norm"])
    lines += [f"T = {fmt(s['T'])}", f"h = {fmt(s['h'])}"]
    if s["plant"] == "extended":
        lines.append(f"x0 = {', '.join(fmt(v) for v in s['x0'])}")
    else:
        lines.append(f"ref_amplitude = {', '.join(fmt(v) for v in AMPLITUDES)}")
        lines.append(f"ref_frequency = {', '.join(fmt(v) for v in FREQUENCIES)}")
        lines.append(f"ref_offset = {', '.join(fmt(v) for v in OFFSETS)}")
        lines += ["dist_phase = random", f"seed = {s['seed']}"]
    return "\n".join(lines) + "\n"


def joint_dicts(s: dict) -> list[dict]:
    """Per-joint parameters of a joints scenario, with the phases 'random' resolves to."""
    # the documented seeded draw: uniform phases in [0, 2 pi), one per joint
    phases = np.random.default_rng(s["seed"]).uniform(0.0, 2.0 * math.pi, size=len(AMPLITUDES))
    return [
        dict(gains=s["gains"], mu=s["mu"], norm_floor=FLOOR, ref_amplitude=a, ref_frequency=w,
             ref_phase=0.0, ref_offset=o, dist_phase=float(p), **DISTURBANCE)
        for a, w, o, p in zip(AMPLITUDES, FREQUENCIES, OFFSETS, phases)
    ]


def trajectory_header(s: dict) -> list[str]:
    if s["plant"] == "extended":
        return ["t", "x1", "x2", "x3", "u"]
    return ["t"] + [f"j{k}_{c}" for k in range(1, len(AMPLITUDES) + 1) for c in ("q", "u", "eps")]


def read_trajectory(out: Path, s: dict) -> np.ndarray:
    data = oracle.read_table(out / f"{s['name']}.csv", trajectory_header(s))
    n, h = n_steps(s), s["h"]
    if len(data) != n + 1:
        raise AssertionError(f"{s['name']}.csv: {len(data)} rows, expected {n + 1}")
    oracle.close(f"{s['name']} time grid", data[:, 0], np.arange(n + 1) * h, 1e-12)
    return data


def pair_norm(s: dict) -> oracle.PairNorm:
    return oracle.PairNorm([s["norm"]], np.array([s["mu"]]))


def check_extended_controls(s: dict, X: np.ndarray, u: np.ndarray) -> None:
    """u recomputed from the states by the (h)PID law, to rounding."""
    want = oracle.extended_control(np.array(s["gains"]), s["mu"], FLOOR, pair_norm(s), X, s["x0"][2])
    oracle.close(f"{s['name']} control recomputed from x1, x2, x3", u, want, 1e-10)


def check_extended_runs(scenarios: list[dict], trajectories: list[np.ndarray]) -> list[str]:
    """Check extended runs (rows t, x1, x2, x3, u); all share one (T, h) grid.

    PID runs against the matrix exponential, hPID runs against this
    module's RK4 at h/2, and every control column recomputed.
    """
    problems = []
    hpid = [(s, d) for s, d in zip(scenarios, trajectories) if s["controller"] == "hpid"]
    for s, d in zip(scenarios, trajectories):
        try:
            check_extended_controls(s, d[:, 1:4], d[:, 4])
            if s["controller"] == "pid":
                X = oracle.extended_pid(s["gains"], s["x0"], n_steps(s), s["h"])
                oracle.close(f"{s['name']} against the matrix exponential", d[:, 1:4], X, 1e-9)
        except AssertionError as exc:
            problems.append(str(exc))
    for group in (
        [p for p in hpid if p[0]["norm"]["kind"] == "canonical"],
        [p for p in hpid if p[0]["norm"]["kind"] != "canonical"],
    ):
        if not group:
            continue
        s0 = group[0][0]
        mus = np.array([s["mu"] for s, _ in group])
        norm = oracle.PairNorm([s["norm"] for s, _ in group], mus)
        ref = oracle.extended_hpid(
            [s["gains"] for s, _ in group], mus, np.full(len(group), FLOOR), norm,
            [s["x0"] for s, _ in group], n_steps(s0), s0["h"],
        )
        for k, (s, d) in enumerate(group):
            try:
                oracle.close(f"{s['name']} against RK4 at h/2", d[:, 1:4], ref[:, k], hpid_tolerance(s["h"]))
            except AssertionError as exc:
                problems.append(str(exc))
    return problems


def dilated(x0, mu: float, s: float) -> tuple[float, float, float]:
    """d(s) x0 for the extended dilation diag(e^{(1-mu)s}, e^s, e^{(1+mu)s})."""
    return tuple(float(v) * math.exp(w * s) for v, w in zip(x0, (1.0 - mu, 1.0, 1.0 + mu)))


def scaling_discrepancy(nominal: dict, X_nom: np.ndarray, X_dil: np.ndarray, s: float) -> float:
    """sup |x(t, d(s)x0) - d(s) x(e^{mu s} t, x0)| over the comparable samples.

    The nominal run is interpolated at e^{mu s} t by cubic Hermite
    polynomials, with derivatives from this module's own field.
    """
    mu, h, n = nominal["mu"], nominal["h"], n_steps(nominal)
    dX = oracle.extended_field(np.array(nominal["gains"]), mu, FLOOR, pair_norm(nominal), X_nom)
    t = np.arange(n + 1) * h
    tq = math.exp(mu * s) * t
    keep = tq <= t[-1]
    scales = np.exp(np.array([1.0 - mu, 1.0, 1.0 + mu]) * s)
    want = scales * oracle.hermite(h, X_nom, dX, tq[keep])
    return float(np.abs(X_dil[keep] - want).max())


class Workload:
    """Inputs for one seed; subclasses define the round and its checks."""

    name = ""
    channel_steps = 0  # sum of n_steps x channels over every simulate in one round

    def __init__(self, seed: int, cfg_dir: Path):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.cfg_dir = cfg_dir
        self.configs: list[Path] = []

    def write_config(self, filename: str, text: str) -> str:
        path = self.cfg_dir / filename
        path.write_text(text, encoding="utf-8")
        self.configs.append(path)
        return str(path)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, out: Path, results: list[tuple[int, object]]) -> list[list[str]]:
        """Problems in a round's outputs, one list per operation; results are the ops' returns."""
        raise NotImplementedError


class JointsCompare(Workload):
    """`hpid simulate` then `hpid compare` on PID/hPID pairs of the six-joint plant."""

    name = "joints_compare"

    def __init__(self, seed, cfg_dir):
        super().__init__(seed, cfg_dir)
        rng = self.rng
        common = dict(plant="joints", gains=GAINS, T=9.0, h=1e-3, seed=int(rng.integers(0, 2**31)))
        norm = {"kind": "experimental", "zeta1_max": round(float(rng.uniform(0.8, 1.25)), 3),
                "norm_gamma": round(float(rng.uniform(0.8, 1.25)), 3)}
        self.scenarios = [
            dict(common, name="pid", controller="pid", mu=0.0, norm=norm),
            dict(common, name="hpid_pos", controller="hpid", mu=round(float(rng.uniform(0.1, 0.3)), 3), norm=norm),
            dict(common, name="hpid_neg", controller="hpid", mu=-round(float(rng.uniform(0.1, 0.3)), 3), norm=norm),
        ]
        self.pairs = [("pos", "pid", "hpid_pos"), ("neg", "pid", "hpid_neg")]
        text = "\n".join(scenario_text(s) for s in self.scenarios)
        text += "".join(f"\n[compare {c}]\npid = {p}\nhpid = {q}\n" for c, p, q in self.pairs)
        self.config = self.write_config("joints.cfg", text)
        per_run = n_steps(self.scenarios[0]) * len(AMPLITUDES)
        self.channel_steps = per_run * (len(self.scenarios) + 2 * len(self.pairs))

    def ops(self):
        return [
            cli_op("simulate", ["simulate", "--config", self.config, "--out", "{out}"],
                   [f"{s['name']}.csv" for s in self.scenarios]),
            cli_op("compare", ["compare", "--config", self.config, "--out", "{out}"],
                   [f"{c}.csv" for c, _, _ in self.pairs]),
        ]

    def check(self, out, results):
        sim_problems, cmp_problems = [], []
        data = {}
        for s in self.scenarios:
            try:
                d = read_trajectory(out, s)
            except AssertionError as exc:
                sim_problems.append(str(exc))
                continue
            data[s["name"]] = d
            t = d[:, 0:1]
            ref_pos = np.array(OFFSETS) + np.array(AMPLITUDES) * np.sin(np.array(FREQUENCIES) * t)
            try:
                oracle.close(f"{s['name']} q + eps against the reference", d[:, 1::3] + d[:, 3::3], ref_pos, 1e-12)
                if s["controller"] == "pid":
                    want = oracle.joints_pid(joint_dicts(s), n_steps(s), s["h"])
                    for col, key in ((1, "q"), (2, "u"), (3, "eps")):
                        oracle.close(f"{s['name']} {key} against the matrix exponential", d[:, col::3], want[key], 1e-9)
            except AssertionError as exc:
                sim_problems.append(str(exc))
        hpid = [s for s in self.scenarios if s["controller"] == "hpid" and s["name"] in data]
        if hpid:
            joints = [jc for s in hpid for jc in joint_dicts(s)]
            norm = oracle.PairNorm([s["norm"] for s in hpid for _ in AMPLITUDES], np.array([jc["mu"] for jc in joints]))
            want = oracle.joints_hpid(joints, norm, n_steps(hpid[0]), hpid[0]["h"])
            m = len(AMPLITUDES)
            for k, s in enumerate(hpid):
                d = data[s["name"]]
                for col, key in ((1, "q"), (2, "u"), (3, "eps")):
                    try:
                        oracle.close(f"{s['name']} {key} against RK4 at h/2", d[:, col::3], want[key][:, k * m:(k + 1) * m],
                                     hpid_tolerance(s["h"]))
                    except AssertionError as exc:
                        sim_problems.append(str(exc))
        for c, p, q in self.pairs:
            if p not in data or q not in data:
                cmp_problems.append(f"{c}: trajectories unavailable for recomputing the indices")
                continue
            try:
                check_comparison(out / f"{c}.csv", data[p], data[q])
            except AssertionError as exc:
                cmp_problems.append(str(exc))
        return [sim_problems, cmp_problems]


def check_comparison(path: Path, pid: np.ndarray, hpid: np.ndarray) -> None:
    """Every index of a comparison table against this module's recomputation."""
    lines = path.read_text(encoding="utf-8").splitlines()
    m = len(AMPLITUDES)
    cols = ["IVC_PID", "IVC_HPID", "IAVC_PID", "IAVC_HPID", "ITAE_PID", "ITAE_HPID"]
    if lines[0] != "joint," + ",".join(cols) or len(lines) != m + 4:
        raise AssertionError(f"{path.name}: unexpected layout")
    want = oracle.comparison_indices(pid[:, 0], pid[:, 2::3], pid[:, 3::3], hpid[:, 2::3], hpid[:, 3::3])
    table = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:m + 1]])
    for k, col in enumerate(cols):
        oracle.close(f"{path.name} {col}", table[:, k], want[col], 1e-9)
    for line, key in zip(lines[m + 1:m + 3], ("l2_control", "l2_error")):
        fields = line.split(",")
        if fields[:2] != ["aggregate", key]:
            raise AssertionError(f"{path.name}: expected the {key} row, got {line!r}")
        oracle.close(f"{path.name} {key}", [float(fields[2]), float(fields[3])],
                     [want[f"{key}_PID"], want[f"{key}_HPID"]], 1e-9)
    ivc = int((want["IVC_HPID"] < want["IVC_PID"]).sum())
    iavc = int((want["IAVC_HPID"] < want["IAVC_PID"]).sum())
    summary = f"summary,hpid_lower_ivc,{ivc},hpid_lower_iavc,{iavc},joints,{m}"
    if lines[-1] != summary:
        raise AssertionError(f"{path.name}: summary {lines[-1]!r}, expected {summary!r}")


class ExtendedSweep(Workload):
    """`hpid simulate` over a grid of short extended-plant scenarios on one (T, h) grid."""

    name = "extended_sweep"
    MUS = (-0.3, -0.15, 0.15, 0.3)

    def __init__(self, seed, cfg_dir):
        super().__init__(seed, cfg_dir)
        rng = self.rng
        grid = dict(plant="extended", gains=GAINS, T=1.0, h=1e-3)
        x0s = []
        for _ in range(3):
            angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 2.0)
            x0s.append((radius * math.cos(angle), radius * math.sin(angle), float(rng.uniform(-0.5, 0.5))))
        norms = [
            {"kind": "weighted_sum", "coefficients": tuple(round(float(c), 3) for c in rng.uniform(0.5, 2.0, 2))},
            {"kind": "experimental", "zeta1_max": round(float(rng.uniform(0.5, 2.0)), 3),
             "norm_gamma": round(float(rng.uniform(0.5, 2.0)), 3)},
        ]
        self.scenarios = []
        self.pairs = []  # (nominal, dilated, s)
        families = [("pid", 0.0, norms[0])] + [("hpid", mu, nv) for nv in norms for mu in self.MUS]
        for k, (ctrl, mu, norm) in enumerate(families):
            for i, x0 in enumerate(x0s):
                self.scenarios.append(dict(grid, name=f"f{k}_x{i}", controller=ctrl, mu=mu, norm=norm, x0=x0))
            s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.7))
            nominal = self.scenarios[-len(x0s)]
            dil = dict(nominal, name=f"f{k}_dilated", x0=dilated(nominal["x0"], mu, s))
            self.scenarios.append(dil)
            self.pairs.append((nominal, dil, s))
        self.config = self.write_config("sweep.cfg", "\n".join(scenario_text(s) for s in self.scenarios))
        self.channel_steps = sum(n_steps(s) for s in self.scenarios)

    def ops(self):
        return [cli_op("simulate", ["simulate", "--config", self.config, "--out", "{out}"],
                       [f"{s['name']}.csv" for s in self.scenarios])]

    def check(self, out, results):
        problems, data = [], {}
        for s in self.scenarios:
            try:
                data[s["name"]] = read_trajectory(out, s)
            except AssertionError as exc:
                problems.append(str(exc))
        present = [s for s in self.scenarios if s["name"] in data]
        problems += check_extended_runs(present, [data[s["name"]] for s in present])
        for nominal, dil, s in self.pairs:
            if nominal["name"] in data and dil["name"] in data:
                gap = scaling_discrepancy(nominal, data[nominal["name"]][:, 1:4], data[dil["name"]][:, 1:4], s)
                if not gap <= 1e-4:
                    problems.append(f"{dil['name']}: scaling symmetry gap {gap:.3e} exceeds 1e-4")
        return [problems]


class Certificate(Workload):
    """Certificates, `hpid verify`, canonical-norm runs and Lyapunov decrease checks."""

    name = "certificate"
    # degrees, one drawn from each, at which the default run's decrease check
    # passes; beyond them the certificate claims a decrease the loop lacks
    DECREASE_MUS = {"neg": [round(-0.025 * k, 3) for k in range(1, 7)], "pos": [round(0.025 * k, 3) for k in range(1, 13)]}

    def __init__(self, seed, cfg_dir):
        super().__init__(seed, cfg_dir)
        rng = self.rng
        self.gain_sets = []
        for k in range(6):
            p = rng.uniform(0.5, 3.0, 3)  # stable closed-loop poles -p_i
            self.gain_sets.append((f"g{k}", (-(p[0] * p[1] + p[0] * p[2] + p[1] * p[2]), -p.sum(), -p.prod())))
        text = "".join(f"[certify {n}]\nkp = {fmt(g[0])}\nkd = {fmt(g[1])}\nki = {fmt(g[2])}\n\n" for n, g in self.gain_sets)
        self.certify_config = self.write_config("certify.cfg", text)

        self.canonical = []
        for name, sign in (("canon_pos", 1.0), ("canon_neg", -1.0)):
            p12 = float(rng.uniform(-0.3, 0.3))
            P = [[float(rng.uniform(1.0, 2.0)), p12], [p12, float(rng.uniform(1.0, 2.0))]]
            angle = rng.uniform(0.0, 2.0 * math.pi)
            x0 = (math.cos(angle), math.sin(angle), float(rng.uniform(-0.4, 0.4)))
            self.canonical.append(dict(name=name, plant="extended", controller="hpid", gains=GAINS,
                                       mu=sign * round(float(rng.uniform(0.1, 0.3)), 3),
                                       norm={"kind": "canonical", "norm_p": P}, x0=x0, T=0.5, h=1e-3))
        self.canonical_config = self.write_config("canonical.cfg", "\n".join(scenario_text(s) for s in self.canonical))
        self.verify_seed = int(rng.integers(0, 2**31))

        # the default extended run (x0 = 1, 0, 0.3) at seeded degrees of both signs
        weighted = {"kind": "weighted_sum", "coefficients": (1.0, 1.0)}
        self.decrease = [
            dict(name=f"decrease_{tag}", plant="extended", controller="hpid", gains=GAINS, mu=float(rng.choice(mus)),
                 norm=weighted, x0=(1.0, 0.0, 0.3), T=2.0, h=1e-3)
            for tag, mus in self.DECREASE_MUS.items()
        ]
        self.channel_steps = sum(n_steps(s) for s in self.canonical + self.decrease)

    def ops(self):
        ops = [
            cli_op("certify", ["certify", "--config", self.certify_config, "--out", "{out}"],
                   [f"{n}.cert.csv" for n, _ in self.gain_sets]),
            cli_op("simulate", ["simulate", "--config", self.canonical_config, "--out", "{out}"],
                   [f"{s['name']}.csv" for s in self.canonical]),
            cli_op("verify", ["verify", "--seed", str(self.verify_seed)]),
        ]
        return ops + [Op(s["name"], decrease_op(s), command=False) for s in self.decrease]

    def check(self, out, results):
        certify_problems = []
        for name, gains in self.gain_sets:
            try:
                certify_problems += check_certificate_csv(out / f"{name}.cert.csv", gains)
            except (AssertionError, ValueError, KeyError) as exc:
                certify_problems.append(f"{name}.cert.csv: {exc}")

        sim_problems, data = [], {}
        for s in self.canonical:
            try:
                data[s["name"]] = read_trajectory(out, s)
            except AssertionError as exc:
                sim_problems.append(str(exc))
        present = [s for s in self.canonical if s["name"] in data]
        sim_problems += check_extended_runs(present, [data[s["name"]] for s in present])

        verify_problems = []
        code, text = results[2]
        lines = text.strip().splitlines()
        m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
        passes = sum(line.startswith("PASS ") for line in lines)
        if code != 0 or not m or m.group(1) != m.group(2) or int(m.group(1)) != passes or passes == 0:
            verify_problems.append(f"verify exited {code}: {lines[-1] if lines else 'no output'}")

        problems = [certify_problems, sim_problems, verify_problems]
        for s, (_, payload) in zip(self.decrease, results[3:]):
            problems.append(check_decrease(s, payload))
        return problems


def check_certificate_csv(path: Path, gains) -> list[str]:
    rows = path.read_text(encoding="utf-8").splitlines()
    if rows[0] != "field,value":
        raise AssertionError("missing field,value header")
    fields = dict(row.split(",") for row in rows[1:])
    order = ["kp", "kd", "ki"] + [f"p{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)] + ["beta", "gamma", "mu_lo", "mu_hi"]
    if list(fields) != order:
        raise AssertionError(f"fields {list(fields)} differ from {order}")
    v = {k: float(x) for k, x in fields.items()}
    if (v["kp"], v["kd"], v["ki"]) != tuple(gains):
        return [f"{path.name}: gains differ from the config"]
    P = np.array([[v[f"p{i}{j}"] for j in (1, 2, 3)] for i in (1, 2, 3)])
    return [f"{path.name}: {d}" for d in oracle.certificate_defects(gains, P, v["beta"], v["gamma"], v["mu_lo"], v["mu_hi"])]


def decrease_op(s: dict):
    def run(out: Path):
        import hpid

        traj = hpid.simulate(hpid.Scenario(controller="hpid", gains=hpid.GainSet(*s["gains"]), mu=s["mu"],
                                           x0=s["x0"], horizon=s["T"], step=s["h"], name=s["name"]))
        cert = hpid.certify(hpid.GainSet(*s["gains"]))
        report = hpid.lyapunov_decrease_check(traj, cert, s["mu"])
        return (0 if report.passed else 1), (traj, cert, report)

    return run


def check_decrease(s: dict, payload) -> list[str]:
    """The run, its certificate and the decrease report, each recomputed."""
    if not isinstance(payload, tuple):
        return [f"{s['name']}: no result ({payload})"]
    traj, cert, report = payload
    problems = []
    X = np.asarray(traj.states)
    data = np.column_stack([traj.times, X, traj.controls[:, 0]])
    problems += check_extended_runs([s], [data])
    P = np.asarray(cert.P.entries)
    problems += [f"{s['name']} certificate: {d}" for d in oracle.certificate_defects(
        s["gains"], P, cert.beta, cert.gamma, cert.mu_lo, cert.mu_hi)]
    if not report.passed:
        problems.append(f"{s['name']}: decrease check failed (fraction {report.fraction})")
    rate = cert.gamma / (2.0 * cert.beta)
    fraction, n = oracle.decrease_fraction(P, s["mu"], rate, np.asarray(traj.times), X, 100.0 * FLOOR)
    if n != report.n_intervals or abs(fraction - report.fraction) > 2.0 / max(n, 1):
        problems.append(f"{s['name']}: decrease fraction {report.fraction} over {report.n_intervals} intervals, "
                        f"recomputed {fraction} over {n}")
    return problems


WORKLOADS = {w.name: w for w in (JointsCompare, ExtendedSweep, Certificate)}
