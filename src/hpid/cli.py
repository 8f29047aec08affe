"""Command-line front end: configs, batch runs, reports, certification.

Subcommands
-----------
simulate   integrate every scenario in the config, one CSV per scenario
compare    run a PID/hPID pair (or inject hardware fixtures) and write a
           joint-by-joint index table with aggregate L2 norms
certify    print the Lyapunov matrix, proof constants and certified degree
           interval for a gain set
verify     run the built-in property suite

Exit codes: 0 success, 1 property or stability failure, 2 configuration
error, 3 numerical divergence.

Config format: flat `key = value` lines under bracketed section headers,
`#` starts a comment.  Section kinds:

    [scenario NAME]
        plant = extended | joints          controller = pid | hpid
        kp/kd/ki = floats                  mu = float in (-0.5, 0.5)
        norm = weighted_sum | canonical | experimental
        norm_coefficients = c1, c2         (weighted_sum)
        norm_p = p11, p12, p21, p22        norm_tolerance = float (canonical)
        zeta1_max / norm_gamma = floats    (experimental)
        x0 = e, de, p                      (extended plant)
        T = float    h = float             norm_floor = float
        n_joints = int                     (joints plant; per-joint values
        ref_amplitude / ref_frequency / ref_phase / ref_offset = list|scalar
        dist_constant / dist_amplitude / dist_frequency = list|scalar
        dist_phase = list | scalar | random   seed = int (for random)
        dist_bound = list|scalar)

    [compare NAME]
        pid = scenario-name    hpid = scenario-name
        fixture = hardware     (instead of the pair: render stored numbers)

    [certify NAME]
        kp/kd/ki = floats

Trajectory CSV schema: header row, `t` first, then `x1,x2,x3,u` for the
extended plant or `j<k>_q,j<k>_u,j<k>_eps` per joint; 17 significant
digits, LF line endings, UTF-8.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, fixtures, metrics
from .control import GainSet
from .homogeneity import CanonicalNorm, ExperimentalNorm, HomNormSpec, SymMatrix, WeightedSumNorm, _check_degree
from .plant import DisturbanceSpec, JointConfig, JointPlantConfig, ReferenceSpec, reference_eval
from .sim import DivergenceError, Scenario, Trajectory, simulate
from .stability import InfeasibleGainsError, StabilityCertificate, certify

__all__ = [
    "ConfigError",
    "RunConfig",
    "CompareJob",
    "CertifyJob",
    "parse_config",
    "format_config",
    "read_trajectory_csv",
    "cmd_simulate",
    "cmd_compare",
    "cmd_certify",
    "cmd_verify",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3

_FMT = "%.17g"  # round-trips float64 exactly


class ConfigError(ValueError):
    """Configuration rejected; carries one message per problem."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class CompareJob:
    name: str
    pid: str = ""
    hpid: str = ""
    fixture: str = ""


@dataclass(frozen=True)
class CertifyJob:
    name: str
    gains: GainSet


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[Scenario, ...] = ()
    compares: tuple[CompareJob, ...] = ()
    certifies: tuple[CertifyJob, ...] = ()

    def scenario(self, name: str) -> Scenario:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise KeyError(name)


# ---------------------------------------------------------------------------
# parsing

_SECTION_RE = re.compile(r"^\[(scenario|compare|certify)\s+([A-Za-z0-9_.-]+)\]$")

_SCENARIO_KEYS = {
    "plant", "controller", "kp", "kd", "ki", "mu", "norm", "norm_coefficients",
    "norm_p", "norm_tolerance", "zeta1_max", "norm_gamma", "x0", "T", "h",
    "norm_floor", "n_joints", "ref_amplitude", "ref_frequency", "ref_phase",
    "ref_offset", "dist_constant", "dist_amplitude", "dist_frequency",
    "dist_phase", "dist_bound", "seed",
}
_COMPARE_KEYS = {"pid", "hpid", "fixture"}
_CERTIFY_KEYS = {"kp", "kd", "ki"}


def _split_sections(text: str, problems: list[str]):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                problems.append(f"line {lineno}: malformed section header {line!r}")
                current = None
                continue
            current = {"kind": m.group(1), "name": m.group(2), "line": lineno, "items": {}}
            sections.append(current)
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            problems.append(f"line {lineno}: 'key = value' before any section header")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current["items"]:
            problems.append(f"line {lineno}: duplicate key {key!r} in section [{current['kind']} {current['name']}]")
        current["items"][key] = (value, lineno)
    return sections


class _SectionReader:
    """Typed accessors over one section's key/value pairs with line numbers."""

    def __init__(self, section: dict, problems: list[str]):
        self.name = section["name"]
        self.kind = section["kind"]
        self.line = section["line"]
        self.items = dict(section["items"])
        self.key_lines = {key: lineno for key, (_, lineno) in self.items.items()}
        self.problems = problems

    def error(self, key: str, lineno: int | None, msg: str) -> None:
        # a key's own line, even once an accessor has consumed it; else the header's
        if lineno is None:
            lineno = self.key_lines.get(key, self.line)
        self.problems.append(f"line {lineno}: [{self.kind} {self.name}] {msg}" + (f" (key {key!r})" if key else ""))

    def raw(self, key: str, default: str | None = None):
        if key in self.items:
            value, lineno = self.items.pop(key)
            return value, lineno
        return default, None

    def text(self, key: str, default: str | None = None, choices: tuple[str, ...] | None = None):
        value, lineno = self.raw(key, default)
        if value is not None and choices is not None and value not in choices:
            self.error(key, lineno, f"must be one of {', '.join(choices)}, got {value!r}")
            return default
        return value

    def number(self, key: str, default: float | None = None) -> float | None:
        value, lineno = self.raw(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            self.error(key, lineno, f"expected a number, got {value!r}")
            return default

    def integer(self, key: str, default: int | None = None) -> int | None:
        value, lineno = self.raw(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            self.error(key, lineno, f"expected an integer, got {value!r}")
            return default

    def numbers(self, key: str, default: tuple[float, ...] | None = None):
        value, lineno = self.raw(key)
        if value is None:
            return default
        try:
            return tuple(float(part) for part in value.split(","))
        except ValueError:
            self.error(key, lineno, f"expected comma-separated numbers, got {value!r}")
            return default

    def finish(self, allowed: set[str]) -> None:
        for key, (_, lineno) in self.items.items():
            if key in allowed:
                self.error("", lineno, f"key {key!r} does not apply to this section as configured")
            else:
                self.error("", lineno, f"unknown key {key!r}")


def _per_joint(reader: _SectionReader, key: str, n: int, default: float):
    """Scalar broadcast or an exact-length comma list."""
    values = reader.numbers(key, (default,))
    if values is None:
        values = (default,)
    if len(values) == 1:
        return (values[0],) * n
    if len(values) != n:
        reader.error(key, None, f"expected 1 or {n} values, got {len(values)}")
        return (default,) * n
    return values


def _build_norm(reader: _SectionReader, mu: float) -> HomNormSpec | None:
    kind = reader.text("norm", "weighted_sum", choices=("weighted_sum", "canonical", "experimental"))
    coeffs = reader.numbers("norm_coefficients", (1.0, 1.0))
    p_entries = reader.numbers("norm_p", (1.0, 0.0, 0.0, 1.0))
    tol = reader.number("norm_tolerance", 1e-12)
    z1max = reader.number("zeta1_max", 1.0)
    ngamma = reader.number("norm_gamma", 1.0)
    try:
        if kind == "weighted_sum":
            return WeightedSumNorm(tuple(coeffs))
        if kind == "canonical":
            if len(p_entries) != 4:
                reader.error("norm_p", None, f"expected 4 entries for a 2x2 matrix, got {len(p_entries)}")
                return None
            return CanonicalNorm(SymMatrix(np.array(p_entries).reshape(2, 2)), tol)
        return ExperimentalNorm(z1max, ngamma, mu)
    except ValueError as exc:
        reader.error("norm", None, str(exc))
        return None


def _build_scenario(section: dict, problems: list[str], default_seed: int | None) -> Scenario | None:
    r = _SectionReader(section, problems)
    plant = r.text("plant", "extended", choices=("extended", "joints"))
    controller = r.text("controller", "pid", choices=("pid", "hpid"))
    kp = r.number("kp", -3.0)
    kd = r.number("kd", -3.0)
    ki = r.number("ki", -1.0)
    mu = r.number("mu", 0.0)
    T = r.number("T", 9.0)
    h = r.number("h", 1e-3)
    floor = r.number("norm_floor", 1e-9)
    # x0 configures the extended plant only; joints start from rest at zero
    x0 = r.numbers("x0", (1.0, 0.0, 0.3)) if plant == "extended" else None
    # seed only resolves dist_phase = random, which the joints plant alone has
    seed = r.integer("seed", default_seed if default_seed is not None else 0) if plant == "joints" else None
    if mu is not None:
        try:
            _check_degree(mu)
        except ValueError as exc:
            r.error("mu", None, str(exc))
            r.finish(_SCENARIO_KEYS)
            return None
    if controller == "pid" and mu:
        r.error("mu", None, "a pid scenario must keep mu = 0")
        r.finish(_SCENARIO_KEYS)
        return None
    norm = _build_norm(r, mu)

    joint_plant = None
    if plant == "joints":
        n_joints = r.integer("n_joints", 6)
        if n_joints is None or n_joints < 1:
            r.error("n_joints", None, "need at least one joint")
            r.finish(_SCENARIO_KEYS)
            return None
        amp = _per_joint(r, "ref_amplitude", n_joints, 1.0)
        freq = _per_joint(r, "ref_frequency", n_joints, 1.0)
        phase = _per_joint(r, "ref_phase", n_joints, 0.0)
        offset = _per_joint(r, "ref_offset", n_joints, 0.0)
        d_const = _per_joint(r, "dist_constant", n_joints, 0.3)
        d_amp = _per_joint(r, "dist_amplitude", n_joints, 0.15)
        d_freq = _per_joint(r, "dist_frequency", n_joints, 2.0)
        d_bound = _per_joint(r, "dist_bound", n_joints, 0.5)
        raw_phase, phase_line = r.raw("dist_phase", None)
        if raw_phase is None:
            d_phase = tuple(0.7 * j for j in range(n_joints))
        elif raw_phase.strip() == "random":
            rng = np.random.default_rng(seed)
            d_phase = tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, size=n_joints))
        else:
            try:
                vals = tuple(float(part) for part in raw_phase.split(","))
                d_phase = vals * n_joints if len(vals) == 1 else vals
                if len(d_phase) != n_joints:
                    r.error("dist_phase", phase_line, f"expected 1 or {n_joints} values")
                    d_phase = (0.0,) * n_joints
            except ValueError:
                r.error("dist_phase", phase_line, f"expected numbers or 'random', got {raw_phase!r}")
                d_phase = (0.0,) * n_joints
        try:
            joints = tuple(
                JointConfig(
                    ReferenceSpec(amp[j], freq[j], phase[j], offset[j]),
                    DisturbanceSpec(d_const[j], d_amp[j], d_freq[j], d_phase[j], d_bound[j]),
                )
                for j in range(n_joints)
            )
            joint_plant = JointPlantConfig(joints)
        except ValueError as exc:
            r.error("", None, str(exc))
            r.finish(_SCENARIO_KEYS)
            return None

    r.finish(_SCENARIO_KEYS)
    bad_x0 = x0 is not None and len(x0) != 3
    if bad_x0:
        r.error("x0", None, f"expected three values, got {len(x0)}")
    if bad_x0 or norm is None or None in (kp, kd, ki, mu, T, h, floor):
        return None
    try:
        return Scenario(
            controller=controller,
            gains=GainSet(kp, kd, ki),
            mu=mu,
            norm=norm,
            x0=x0,
            horizon=T,
            step=h,
            norm_floor=floor,
            joint_plant=joint_plant,
            name=r.name,
        )
    except ValueError as exc:
        r.error("", None, str(exc))
        return None


def parse_config(text: str, default_seed: int | None = None) -> RunConfig:
    """Parse and validate a config document; raises ConfigError on problems."""
    problems: list[str] = []
    sections = _split_sections(text, problems)
    scenarios: list[Scenario] = []
    compares: list[CompareJob] = []
    certifies: list[CertifyJob] = []
    seen: set[tuple[str, str]] = set()
    for section in sections:
        key = (section["kind"], section["name"])
        if key in seen:
            problems.append(f"line {section['line']}: duplicate section [{key[0]} {key[1]}]")
            continue
        seen.add(key)
        if section["kind"] == "scenario":
            scn = _build_scenario(section, problems, default_seed)
            if scn is not None:
                scenarios.append(scn)
        elif section["kind"] == "compare":
            r = _SectionReader(section, problems)
            pid = r.text("pid", "")
            hpid = r.text("hpid", "")
            fixture = r.text("fixture", "", choices=("", fixtures.HARDWARE_FIXTURE_NAME))
            r.finish(_COMPARE_KEYS)
            if not fixture and (not pid or not hpid):
                r.error("", None, "needs either fixture = hardware or both pid = and hpid =")
                continue
            compares.append(CompareJob(name=r.name, pid=pid or "", hpid=hpid or "", fixture=fixture or ""))
        else:
            r = _SectionReader(section, problems)
            kp = r.number("kp", -3.0)
            kd = r.number("kd", -3.0)
            ki = r.number("ki", -1.0)
            r.finish(_CERTIFY_KEYS)
            if None not in (kp, kd, ki):
                certifies.append(CertifyJob(name=r.name, gains=GainSet(kp, kd, ki)))

    names = {s.name for s in scenarios}
    for job in compares:
        if job.fixture:
            continue
        for role, ref in (("pid", job.pid), ("hpid", job.hpid)):
            if ref not in names:
                problems.append(f"[compare {job.name}] references unknown scenario {ref!r} (key {role!r})")
    if problems:
        raise ConfigError(problems)
    return RunConfig(tuple(scenarios), tuple(compares), tuple(certifies))


# ---------------------------------------------------------------------------
# emission (round-trips through parse_config)


def _fmt(x: float) -> str:
    return repr(float(x))


def _norm_lines(norm: HomNormSpec) -> list[str]:
    if isinstance(norm, WeightedSumNorm):
        return ["norm = weighted_sum", f"norm_coefficients = {', '.join(_fmt(c) for c in norm.coefficients)}"]
    if isinstance(norm, CanonicalNorm):
        flat = ", ".join(_fmt(v) for v in norm.P.entries.reshape(-1))
        return ["norm = canonical", f"norm_p = {flat}", f"norm_tolerance = {_fmt(norm.tolerance)}"]
    return [
        "norm = experimental",
        f"zeta1_max = {_fmt(norm.zeta1_max)}",
        f"norm_gamma = {_fmt(norm.gamma)}",
    ]


def format_config(cfg: RunConfig) -> str:
    """Emit a config document that reparses to an equal RunConfig."""
    lines: list[str] = []
    for s in cfg.scenarios:
        lines.append(f"[scenario {s.name}]")
        lines.append(f"plant = {s.plant}")
        lines.append(f"controller = {s.controller}")
        lines.append(f"kp = {_fmt(s.gains.kp)}")
        lines.append(f"kd = {_fmt(s.gains.kd)}")
        lines.append(f"ki = {_fmt(s.gains.ki)}")
        lines.append(f"mu = {_fmt(s.mu)}")
        lines.extend(_norm_lines(s.norm))
        lines.append(f"T = {_fmt(s.horizon)}")
        lines.append(f"h = {_fmt(s.step)}")
        lines.append(f"norm_floor = {_fmt(s.norm_floor)}")
        if s.plant == "extended":
            lines.append(f"x0 = {', '.join(_fmt(v) for v in s.x0)}")
        else:
            jp = s.joint_plant
            lines.append(f"n_joints = {jp.n_joints}")
            refs = [jc.reference for jc in jp.joints]
            dists = [jc.disturbance for jc in jp.joints]
            lines.append(f"ref_amplitude = {', '.join(_fmt(r.amplitude) for r in refs)}")
            lines.append(f"ref_frequency = {', '.join(_fmt(r.angular_frequency) for r in refs)}")
            lines.append(f"ref_phase = {', '.join(_fmt(r.phase) for r in refs)}")
            lines.append(f"ref_offset = {', '.join(_fmt(r.offset) for r in refs)}")
            lines.append(f"dist_constant = {', '.join(_fmt(d.constant) for d in dists)}")
            lines.append(f"dist_amplitude = {', '.join(_fmt(d.amplitude) for d in dists)}")
            lines.append(f"dist_frequency = {', '.join(_fmt(d.angular_frequency) for d in dists)}")
            lines.append(f"dist_phase = {', '.join(_fmt(d.phase) for d in dists)}")
            lines.append(f"dist_bound = {', '.join(_fmt(d.bound) for d in dists)}")
        lines.append("")
    for job in cfg.compares:
        lines.append(f"[compare {job.name}]")
        if job.fixture:
            lines.append(f"fixture = {job.fixture}")
        else:
            lines.append(f"pid = {job.pid}")
            lines.append(f"hpid = {job.hpid}")
        lines.append("")
    for job in cfg.certifies:
        lines.append(f"[certify {job.name}]")
        lines.append(f"kp = {_fmt(job.gains.kp)}")
        lines.append(f"kd = {_fmt(job.gains.kd)}")
        lines.append(f"ki = {_fmt(job.gains.ki)}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV

def trajectory_header(traj: Trajectory) -> list[str]:
    if traj.scenario.plant == "extended":
        return ["t", "x1", "x2", "x3", "u"]
    cols = ["t"]
    for k in range(traj.n_channels):
        cols.extend([f"j{k + 1}_q", f"j{k + 1}_u", f"j{k + 1}_eps"])
    return cols


def trajectory_csv_text(traj: Trajectory) -> str:
    """Render a trajectory as CSV at full float64 precision."""
    header = trajectory_header(traj)
    fmt = ",".join([_FMT] * len(header))  # one row, one format
    out = [",".join(header)]
    if traj.scenario.plant == "extended":
        for t, x, u in zip(traj.times, traj.states, traj.controls):
            out.append(fmt % (t, *x.tolist(), *u.tolist()))
    else:
        refs = [jc.reference for jc in traj.scenario.joint_plant.joints]
        for t, err, ctl in zip(traj.times, traj.errors, traj.controls):
            t = float(t)
            row = [t]
            for ref, e, u in zip(refs, err.tolist(), ctl.tolist()):
                pos, _, _ = reference_eval(ref, t)
                row += (pos - e, u, e)
            out.append(fmt % tuple(row))
    return "\n".join(out) + "\n"


def read_trajectory_csv(path):
    """Read a trajectory CSV back as (header list, 2-D float array)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def comparison_csv_text(
    report: metrics.MetricsReport | None,
    fixture_rows=None,
    fixture_l2=None,
) -> str:
    """CSV for a comparison: joint rows, aggregate L2 rows, a summary line.

    Exactly one of report / fixture_rows must be given; fixture values are
    rendered verbatim so stored strings survive byte-exactly.
    """
    lines = ["joint,IVC_PID,IVC_HPID,IAVC_PID,IAVC_HPID,ITAE_PID,ITAE_HPID"]
    if fixture_rows is not None:
        # injected, externally measured numbers: say so in the artifact
        lines.append("source,hardware_fixture,,,,,")
        for j, row in enumerate(fixture_rows, start=1):
            lines.append(f"{j}," + ",".join(row))
        l2_control, l2_error, l2_error_alt = fixture_l2
        lines.append(f"aggregate,l2_control,{l2_control[0]},{l2_control[1]},,,")
        lines.append(f"aggregate,l2_error,{l2_error[0]},{l2_error[1]},,,")
        if l2_error_alt is not None:
            lines.append(f"aggregate,l2_error_alt,{l2_error_alt[0]},{l2_error_alt[1]},conflicting_report,,")
        ivc_wins = sum(float(r[1]) < float(r[0]) for r in fixture_rows)
        iavc_wins = sum(float(r[3]) < float(r[2]) for r in fixture_rows)
        n = len(fixture_rows)
    else:
        for j in range(report.n_joints):
            row = (
                report.ivc_pid[j], report.ivc_hpid[j],
                report.iavc_pid[j], report.iavc_hpid[j],
                report.itae_pid[j], report.itae_hpid[j],
            )
            lines.append(f"{j + 1}," + ",".join(_FMT % v for v in row))
        lines.append(f"aggregate,l2_control,{_FMT % report.l2_control_pid},{_FMT % report.l2_control_hpid},,,")
        lines.append(f"aggregate,l2_error,{_FMT % report.l2_error_pid},{_FMT % report.l2_error_hpid},,,")
        ivc_wins, iavc_wins, _ = report.hpid_win_counts()
        n = report.n_joints
    lines.append(f"summary,hpid_lower_ivc,{ivc_wins},hpid_lower_iavc,{iavc_wins},joints,{n}")
    return "\n".join(lines) + "\n"


def certificate_csv_text(cert: StabilityCertificate) -> str:
    lines = ["field,value"]
    for name in ("kp", "kd", "ki"):
        lines.append(f"{name},{_FMT % getattr(cert.gains, name)}")
    for i in range(3):
        for j in range(3):
            lines.append(f"p{i + 1}{j + 1},{_FMT % cert.P.entries[i, j]}")
    lines.append(f"beta,{_FMT % cert.beta}")
    lines.append(f"gamma,{_FMT % cert.gamma}")
    lines.append(f"mu_lo,{_FMT % cert.mu_lo}")
    lines.append(f"mu_hi,{_FMT % cert.mu_hi}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _warn_uncertified(scn: Scenario) -> None:
    if scn.controller != "hpid" or scn.mu == 0.0:
        return
    if not scn.gains.is_stabilizing():
        print(f"warning: scenario {scn.name!r} uses non-stabilizing gains", file=sys.stderr)
        return
    cert = certify(scn.gains)
    if not cert.admits(scn.mu):
        print(
            f"warning: scenario {scn.name!r} requests mu={scn.mu} outside the certified "
            f"interval ({cert.mu_lo:.6g}, {cert.mu_hi:.6g})",
            file=sys.stderr,
        )


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    """Run every scenario; one CSV per scenario in out_dir, none if any diverges."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not cfg.scenarios:
        print("nothing to simulate (no [scenario] sections)", file=sys.stderr)
        return EXIT_CONFIG
    for scn in cfg.scenarios:
        _warn_uncertified(scn)
    try:
        texts = [trajectory_csv_text(simulate(scn)) for scn in cfg.scenarios]
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    for scn, text in zip(cfg.scenarios, texts):
        path = out / f"{scn.name}.csv"
        path.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out_dir) -> int:
    """Run each comparison pair (or fixture) and write the index table.

    A scenario named by several jobs is simulated once; its trajectory is
    dropped after the last job that names it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not cfg.compares:
        print("nothing to compare (no [compare] sections)", file=sys.stderr)
        return EXIT_CONFIG
    last_use = {}  # scenario name -> index of the last job that names it
    for k, job in enumerate(cfg.compares):
        if not job.fixture:
            last_use[job.pid] = last_use[job.hpid] = k
    runs: dict[str, Trajectory] = {}
    for k, job in enumerate(cfg.compares):
        if job.fixture:
            text = comparison_csv_text(
                None,
                fixture_rows=fixtures.HARDWARE_COMPARISON_ROWS,
                fixture_l2=(fixtures.HARDWARE_L2_CONTROL, fixtures.HARDWARE_L2_ERROR, fixtures.HARDWARE_L2_ERROR_ALT),
            )
        else:
            try:
                for name in (job.pid, job.hpid):
                    if name not in runs:
                        runs[name] = simulate(cfg.scenario(name))
                report = metrics.compare(runs[job.pid], runs[job.hpid])
            except DivergenceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_DIVERGENCE
            except ValueError as exc:
                print(f"error: [compare {job.name}] {exc}", file=sys.stderr)
                return EXIT_CONFIG
            for name in (job.pid, job.hpid):
                if last_use[name] == k:
                    runs.pop(name, None)
            text = comparison_csv_text(report)
        path = out / f"{job.name}.csv"
        path.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {path}")
        print(text.splitlines()[-1])
    return EXIT_OK


def cmd_certify(cfg: RunConfig, out_dir=None) -> int:
    """Certify each gain set; print constants and the admissible interval."""
    if not cfg.certifies:
        print("nothing to certify (no [certify] sections)", file=sys.stderr)
        return EXIT_CONFIG
    status = EXIT_OK
    for job in cfg.certifies:
        print(f"[certify {job.name}] gains kp={job.gains.kp} kd={job.gains.kd} ki={job.gains.ki}")
        try:
            cert = certify(job.gains)
        except InfeasibleGainsError as exc:
            for failure in exc.failures:
                print(f"  infeasible: {failure}")
            status = EXIT_FAILURE
            continue
        for i in range(3):
            print("  P row %d: %s" % (i + 1, "  ".join(_FMT % v for v in cert.P.entries[i])))
        print(f"  beta  = {_FMT % cert.beta}")
        print(f"  gamma = {_FMT % cert.gamma}")
        print(f"  certified degree interval: ({_FMT % cert.mu_lo}, {_FMT % cert.mu_hi})")
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{job.name}.cert.csv"
            path.write_text(certificate_csv_text(cert), encoding="utf-8", newline="\n")
            print(f"  wrote {path}")
    return status


def cmd_verify(seed: int = 0, break_norm: bool = False) -> int:
    """Run the property suite; exit 0 iff every check passes."""
    results = checks.run_all(seed=seed, break_norm=break_norm)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


def _load_config(path: str, seed: int | None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    return parse_config(text, default_seed=seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hpid", description="Homogeneous PID control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate scenarios to CSV trajectories")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="PID vs hPID index table")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)

    p_cert = sub.add_parser("certify", help="stability certificate for gain sets")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the built-in property suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--inject-broken-norm", action="store_true", help="negative control: force a failure")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _load_config(args.config, args.seed)
            return cmd_simulate(cfg, args.out)
        if args.command == "compare":
            cfg = _load_config(args.config, args.seed)
            return cmd_compare(cfg, args.out)
        if args.command == "certify":
            cfg = _load_config(args.config, None)
            return cmd_certify(cfg, args.out)
        return cmd_verify(seed=args.seed, break_norm=args.inject_broken_norm)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
