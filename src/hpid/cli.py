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

simulate and compare spread their runs over the usable cores, with no
setting (_map): forked workers take every n-th scenario, and every file,
printed line and exit code is the one a single core gives.  simulate
renames its CSVs into place only after every run has finished; compare
simulates each scenario named by any job once.

Config format: flat `key = value` lines under bracketed section headers,
`#` starts a comment.  Section kinds:

    [scenario NAME]
        plant = extended | joints          controller = pid | hpid
        kp/kd/ki = floats                  mu = float in (-0.5, 0.5)
        norm = weighted_sum | canonical | experimental
        norm_coefficients = c1, c2         (norm = weighted_sum only)
        norm_p = p11, p12, p21, p22        (norm = canonical only)
        zeta1_max / norm_gamma = floats    (norm = experimental only: the
                                           weighted sum with coefficients
                                           1/zeta1_max, norm_gamma)
        x0 = e, de, p                      (extended plant)
        T = float    h = float             norm_floor = float
        n_joints = int                     (joints plant; per-joint values
        ref_amplitude / ref_frequency / ref_phase / ref_offset = list|scalar
        dist_constant / dist_amplitude / dist_frequency = list|scalar
        dist_phase = list | scalar | random   seed = int >= 0 (for random, 0)
        dist_bound = list|scalar)

    [compare NAME]
        pid = scenario-name    hpid = scenario-name
        fixture = hardware     (instead of the pair: render stored numbers;
                               pid and hpid then do not apply)

    [certify NAME]
        kp/kd/ki = floats

A key that does not apply as the section is configured (a norm key of
another norm kind, x0 on the joints plant, a joints key on the extended
plant, pid or hpid next to a fixture) is rejected at its line, as is an
unknown key.  A value a library check rejects is cited at its key's line.

Trajectory CSV schema: header row, `t` first, then `x1,x2,x3,u` for the
extended plant or `j<k>_q,j<k>_u,j<k>_eps` per joint; 17 significant
digits, LF line endings, UTF-8.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import re
import sys
import threading
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import checks, fixtures, metrics
from .control import GainSet, _check_floor, hpid_law
from .homogeneity import CanonicalNorm, WeightedSumNorm, _check_degree
from .plant import DisturbanceSpec, JointConfig, JointPlantConfig, ReferenceSpec
from .sim import DivergenceError, Scenario, Trajectory, _check_grid, _initial_state, simulate
from .stability import InfeasibleGainsError, StabilityCertificate, certify

__all__ = [
    "ConfigError",
    "RunConfig",
    "CompareJob",
    "CertifyJob",
    "parse_config",
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
CSV_BLOCK_ROWS = 1024  # trajectory rows rendered and written at a time


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
# the config schema
#
# Every scenario key is named once, in these tables, with what it applies to
# and its default.  Reading and the applicability check both work from them;
# a default the library defines is taken from the library.

_GAIN_KEYS = ("kp", "kd", "ki")  # GainSet fields; defaults Scenario.gains
_NUMBER_KEYS = {"mu": "mu", "T": "horizon", "h": "step", "norm_floor": "norm_floor"}  # -> Scenario field


def _experimental_norm(zeta1_max: float, gamma: float) -> WeightedSumNorm:
    """The paper's |e|^{1/(1-mu)} / zeta1_max + gamma |de|: the weighted sum (1/zeta1_max, gamma)."""
    for name, value in (("zeta1_max", zeta1_max), ("gamma", gamma)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be a positive real")
    if math.isinf(1.0 / zeta1_max):
        raise ValueError(f"zeta1_max = {zeta1_max!r} is too small: 1/zeta1_max overflows")
    return WeightedSumNorm((1.0 / zeta1_max, gamma))


# norm kind -> ({key: (count, default)}, spec from the keys' values).  A
# kind's keys apply only with that kind.
_NORMS = {
    "weighted_sum": ({"norm_coefficients": (2, Scenario.norm.coefficients)}, WeightedSumNorm),
    "canonical": ({"norm_p": (4, (1.0, 0.0, 0.0, 1.0))}, lambda p: CanonicalNorm(np.reshape(p, (2, 2)))),  # row-major
    "experimental": ({"zeta1_max": (1, 1.0), "norm_gamma": (1, 1.0)}, _experimental_norm),
}
_CHOICES = {  # key -> its values, the default first
    "plant": ("extended", "joints"),
    "controller": ("pid", "hpid"),
    "norm": tuple(_NORMS),
}
# Per-joint keys of the joints plant, in ReferenceSpec and DisturbanceSpec
# field order, with their defaults; a scalar applies to every joint.
# dist_phase (None) defaults to phases 0.7 rad apart, and `random` draws
# them uniformly from [0, 2 pi) with the scenario's seed.
_REFERENCE_KEYS = {"ref_amplitude": 1.0, "ref_frequency": 1.0, "ref_phase": 0.0, "ref_offset": 0.0}
_DISTURBANCE_KEYS = {
    "dist_constant": 0.3, "dist_amplitude": 0.15, "dist_frequency": 2.0, "dist_phase": None, "dist_bound": 0.5,
}
# key -> choices, in CompareJob field order; pid and hpid apply only without a fixture
_COMPARE_KEYS = {"pid": None, "hpid": None, "fixture": ("", fixtures.HARDWARE_FIXTURE_NAME)}


# ---------------------------------------------------------------------------
# parsing

_SECTION_RE = re.compile(r"^\[(scenario|compare|certify)\s+([A-Za-z0-9_.-]+)\]$")


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
            if any((s["kind"], s["name"]) == m.groups() for s in sections):
                problems.append(f"line {lineno}: duplicate section [{m.group(1)} {m.group(2)}]")  # its keys are dropped
            else:
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
    """One section's keys, each taken once by an accessor; problems cite its line.

    An accessor returns a key's default when the key is absent, and None
    when its value is bad or the key does not apply (both reported).
    """

    def __init__(self, section: dict, problems: list[str]):
        self.name = section["name"]
        self.kind = section["kind"]
        self.line = section["line"]
        self.items = {key: value for key, (value, _) in section["items"].items()}
        self.key_lines = {key: lineno for key, (_, lineno) in section["items"].items()}
        self.problems = problems
        self.first_problem = len(problems)

    @property
    def ok(self) -> bool:
        return len(self.problems) == self.first_problem

    def error(self, key: str, msg: str, named: bool = True) -> None:
        # a key's own line, even once an accessor has taken it; else the header's
        suffix = f" (key {key!r})" if key and named else ""
        self.problems.append(f"line {self.key_lines.get(key, self.line)}: [{self.kind} {self.name}] {msg}{suffix}")

    def text(self, key: str, choices: tuple[str, ...] | None = None, applies: bool = True) -> str | None:
        """Free text ('' when absent), or one of choices (the first when absent)."""
        value = self.values(key, choices[0] if choices else "", parse=str, applies=applies)
        if value is not None and choices is not None and value not in choices:
            self.error(key, f"must be one of {', '.join(choices)}, got {value!r}")
            return None
        return value

    def values(self, key, default=None, count=1, broadcast=False, parse=float, applies=True, words=()):
        """The key's comma-separated values, each read by parse.

        count=1 gives the one value itself; count=n a tuple of exactly n
        values, or with broadcast of one value repeated n times; count=None a
        tuple of any length.  A value in words is returned as it is.
        """
        value = self.items.pop(key, None)
        if value is None:
            return default
        if not applies:
            self.error(key, f"key {key!r} does not apply to this section as configured", named=False)
            return None
        if value in words:
            return value
        scalar = count == 1 and not broadcast
        try:
            parsed = (parse(value),) if scalar else tuple(parse(part) for part in value.split(","))
        except ValueError:
            what = "an integer" if parse is int else "a number" if scalar else "comma-separated numbers"
            self.error(key, f"expected {' or '.join([what, *map(repr, words)])}, got {value!r}")
            return None
        if broadcast and count and len(parsed) == 1:
            parsed *= count
        if count is not None and len(parsed) != count:
            self.error(key, f"expected {'1 or ' if broadcast else ''}{count} values, got {len(parsed)}")
            return None
        return parsed[0] if scalar else parsed

    def first(self, *keys: str) -> str:
        """The first of keys the section sets ('' for none): where a problem of several keys is cited."""
        return next((key for key in keys if key in self.key_lines), "")

    def check(self, key: str, build, *args, **kwargs):
        """build(*args, **kwargs), or None with its ValueError cited at key's line.

        None among args stands for an input already reported: nothing is
        built from it.
        """
        if any(arg is None for arg in args):
            return None
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            self.error(key, str(exc))
            return None

    def checked(self, key: str, check, value):
        """value, or None once check(value) raises a ValueError (cited at key's line)."""
        failed = len(self.problems)
        self.check(key, check, value)
        return value if len(self.problems) == failed else None

    def finish(self) -> None:
        for key in self.items:
            self.error(key, f"unknown key {key!r}", named=False)


def _read_gains(r: _SectionReader) -> GainSet | None:
    # each gain is checked alone, at its own key
    gains = [r.check(key, GainSet.check_field, key, r.values(key, getattr(Scenario.gains, key))) for key in _GAIN_KEYS]
    return r.check("", GainSet, *gains)


def _joint_plant(r: _SectionReader, n: int, seed: int | None, columns: dict) -> JointPlantConfig | None:
    """The joints plant from the per-joint keys' values; absent keys take their defaults.

    Each key's values are checked alone, at that key.  The one rule across
    keys, the disturbance bound, is cited at the first of its keys set.
    """

    def column(key, default):
        # the key's n values; None for values already reported, or random phases without a valid seed
        values = columns[key]
        if key not in r.key_lines:
            return [0.7 * j for j in range(n)] if default is None else [default] * n
        if values == "random":
            return None if seed is None else np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=n).tolist()
        return values

    def specs(spec, keys, cited):
        columns = [
            r.check(key, lambda values: [spec.check_field(f.name, v) for v in values], column(key, default))
            for (key, default), f in zip(keys.items(), fields(spec))
        ]
        return r.check(r.first(*cited), lambda *cols: [spec(*v) for v in zip(*cols)], *columns)

    refs = specs(ReferenceSpec, _REFERENCE_KEYS, ())
    dists = specs(DisturbanceSpec, _DISTURBANCE_KEYS, ("dist_constant", "dist_amplitude", "dist_bound"))
    return None if refs is None or dists is None else JointPlantConfig(tuple(map(JointConfig, refs, dists)))


def _read_scenario(r: _SectionReader) -> Scenario | None:
    plant, controller, kind = (r.text(key, choices) for key, choices in _CHOICES.items())
    # an invalid plant or norm kind applies every key that depends on it, so
    # the one bad choice is the one problem reported
    extended, joints = plant != "joints", plant != "extended"
    gains = _read_gains(r)
    numbers = {field: r.values(key, getattr(Scenario, field)) for key, field in _NUMBER_KEYS.items()}
    mu = numbers["mu"]
    if controller == "pid" and mu:
        r.error("mu", "a pid scenario must keep mu = 0")
        mu = None
    else:
        mu = r.checked("mu", _check_degree, mu)
    floor = r.checked("norm_floor", _check_floor, numbers["norm_floor"])
    r.check(r.first("h", "T"), _check_grid, numbers["horizon"], numbers["step"])
    norm_values = {
        name: [r.values(key, default, count, applies=kind in (name, None)) for key, (count, default) in keys.items()]
        for name, (keys, _) in _NORMS.items()
    }
    x0 = r.values("x0", None, 3, applies=extended)  # Scenario resolves the default
    r.check("x0", _initial_state, x0)
    seed = r.values("seed", 0, parse=int, applies=joints)
    if seed is not None and seed < 0:
        r.error("seed", f"seed must be a nonnegative integer, got {seed}")
        seed = None  # random phases are then not drawn
    n = r.values("n_joints", 6, parse=int, applies=joints)
    if n is not None and n < 1:
        r.error("n_joints", "need at least one joint")
        n = None  # the per-joint lists are still read, at any length
    columns = {
        key: r.values(key, None, n, broadcast=True, applies=joints, words=("random",) if default is None else ())
        for key, default in {**_REFERENCE_KEYS, **_DISTURBANCE_KEYS}.items()
    }
    r.finish()
    # what is built from several keys is built once its inputs are valid, so
    # each of its problems is reported alongside the other keys' problems
    norm = None
    if kind is not None:
        # each norm key alone, the kind's other keys at their defaults, cited
        # at that key; then the norm's pairing with the error-pair dilation,
        # cited at its first key set
        (norm_keys, build_norm), values = _NORMS[kind], norm_values[kind]
        defaults = [default for _, default in norm_keys.values()]
        alone = [
            r.check(key, build_norm, *defaults[:i], values[i], *defaults[i + 1 :]) for i, key in enumerate(norm_keys)
        ]
        norm = None if None in alone else build_norm(*values)
        r.check(r.first(*norm_keys, "norm"), hpid_law, gains, mu, norm, floor)
    joint_plant = _joint_plant(r, n, seed, columns) if joints and n is not None else None
    if not r.ok:  # the scenario is built only from a section without a problem
        return None
    return r.check("", Scenario, controller, gains, norm=norm, x0=x0, joint_plant=joint_plant, name=r.name, **numbers)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; raises ConfigError on problems."""
    problems: list[str] = []
    sections = _split_sections(text, problems)
    # a compare job may name a scenario whose own section has a problem
    scenario_names = {s["name"] for s in sections if s["kind"] == "scenario"}
    built: dict[str, list] = {"scenario": [], "compare": [], "certify": []}
    for section in sections:
        r = _SectionReader(section, problems)
        if r.kind == "scenario":
            item = _read_scenario(r)
        elif r.kind == "compare":
            fixture = r.text("fixture", _COMPARE_KEYS["fixture"])
            pair = (r.text(key, applies=not fixture) for key in ("pid", "hpid"))  # an invalid fixture applies them
            item = CompareJob(r.name, *pair, fixture)
            r.finish()
            if item.fixture == "":
                if not (item.pid and item.hpid):
                    r.error("", "needs either fixture = hardware or both pid = and hpid =")
                for key, ref in zip(_COMPARE_KEYS, (item.pid, item.hpid)):
                    if ref and ref not in scenario_names:
                        r.error(key, f"references unknown scenario {ref!r}")
        else:
            item = CertifyJob(r.name, _read_gains(r))
            r.finish()
        if r.ok:
            built[r.kind].append(item)
    if problems:
        raise ConfigError(problems)
    return RunConfig(*(tuple(items) for items in built.values()))


# ---------------------------------------------------------------------------
# CSV

def trajectory_header(traj: Trajectory) -> list[str]:
    if traj.scenario.plant == "extended":
        return ["t", "x1", "x2", "x3", "u"]
    cols = ["t"]
    for k in range(traj.n_channels):
        cols.extend([f"j{k + 1}_q", f"j{k + 1}_u", f"j{k + 1}_eps"])
    return cols


def trajectory_csv_text(traj: Trajectory, start: int, stop: int | None) -> str:
    """Render rows [start, stop) of a trajectory as CSV at full float64 precision.

    The header row comes first when start == 0.  Each array of the range is
    converted to Python floats once, so a range costs no per-row numpy call.
    """
    header = trajectory_header(traj)
    fmt = ",".join([_FMT] * len(header))  # one row, one format
    lines = [",".join(header)] if start == 0 else []
    times = traj.times[start:stop].tolist()
    controls = traj.controls[start:stop].tolist()
    if traj.scenario.plant == "extended":
        lines += [fmt % (t, *x, *u) for t, x, u in zip(times, traj.states[start:stop].tolist(), controls)]
    else:
        positions = [jc.reference.position for jc in traj.scenario.joint_plant.joints]
        for t, err, ctl in zip(times, traj.errors[start:stop].tolist(), controls):
            row = [t]
            for position, e, u in zip(positions, err, ctl):
                row += (position(t) - e, u, e)
            lines.append(fmt % tuple(row))
    return "\n".join([*lines, ""])


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
        pairs = (report.ivc_pid, report.ivc_hpid, report.iavc_pid, report.iavc_hpid, report.itae_pid, report.itae_hpid)
        for j, row in enumerate(zip(*pairs), start=1):
            lines.append(f"{j}," + ",".join(_FMT % v for v in row))
        lines.append(f"aggregate,l2_control,{_FMT % report.l2_control_pid},{_FMT % report.l2_control_hpid},,,")
        lines.append(f"aggregate,l2_error,{_FMT % report.l2_error_pid},{_FMT % report.l2_error_hpid},,,")
        ivc_wins, iavc_wins, _ = report.hpid_win_counts()
        n = report.n_joints
    lines.append(f"summary,hpid_lower_ivc,{ivc_wins},hpid_lower_iavc,{iavc_wins},joints,{n}")
    return "\n".join(lines) + "\n"


def certificate_csv_text(cert: StabilityCertificate) -> str:
    rows = [(name, getattr(cert.gains, name)) for name in ("kp", "kd", "ki")]
    rows += [(f"p{i + 1}{j + 1}", cert.P.entries[i, j]) for i in range(3) for j in range(3)]
    rows += [(name, getattr(cert, name)) for name in ("beta", "gamma", "mu_lo", "mu_hi")]
    return "\n".join(["field,value", *(f"{name},{_FMT % value}" for name, value in rows)]) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _warn_uncertified(scenarios) -> None:
    """Warn, in order, of each hpid scenario whose degree its gains do not certify."""
    certs: dict[GainSet, StabilityCertificate] = {}  # one certify per distinct gain set
    for scn in scenarios:
        if scn.controller != "hpid" or scn.mu == 0.0:
            continue
        if not scn.gains.is_stabilizing():
            print(f"warning: scenario {scn.name!r} uses non-stabilizing gains", file=sys.stderr)
            continue
        if scn.gains not in certs:
            certs[scn.gains] = certify(scn.gains)
        cert = certs[scn.gains]
        if not cert.admits(scn.mu):
            print(
                f"warning: scenario {scn.name!r} requests mu={scn.mu} outside the certified "
                f"interval ({cert.mu_lo:.6g}, {cert.mu_hi:.6g})",
                file=sys.stderr,
            )


def _share(fn, items) -> tuple[list, Exception | None]:
    """fn over items in order until one raises: (the values, that exception or None)."""
    values = []
    try:
        for x in items:
            values.append(fn(x))
    except Exception as exc:
        return values, exc
    return values, None


def _pickled(share) -> bytes:
    """A worker's share as the bytes it sends; what would not load again becomes a RuntimeError naming it."""
    values, exc = share
    try:
        data = pickle.dumps(share)
        pickle.loads(data)
        return data
    except Exception as err:
        what = f"{type(exc).__name__}: {exc}" if exc is not None else f"a result that does not pickle ({err})"
        return pickle.dumps(([], RuntimeError(f"worker process returned {what}")))


def _map(fn, items: list) -> list:
    """[fn(x) for x in items], spread over the usable cores.

    n = min(len(items), usable cores) workers: this process takes items
    0::n, and for k in 1..n-1 a child made by os.fork() takes items k::n and
    sends back its values, or its exception, pickled through a pipe.  Every
    pipe is read and every child reaped before this returns or raises.  The
    exception raised is the one a serial loop would raise, the first in
    items' order.  fn's output must go to files or its return value: a
    child prints nothing.  A process with other threads, which fork would
    not copy, runs every item itself.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(len(items), cores if threading.active_count() == 1 else 1))
    shares, children = [], []  # shares[k] is worker k's (values, exception)
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(_pickled(_share(fn, items[k::n])))
                finally:
                    os._exit(0)  # no cleanup or buffer flush of the parent's
            os.close(write)
            children.append((pid, read))
        shares.append(_share(fn, items[0::n]))
    finally:
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            lost = RuntimeError(f"worker process ended without a result (exit code {code})")
            shares.append(pickle.loads(data) if data else ([], lost))
    # worker k's values stop at its first exception, item k + n * len(values)
    failures = [(k + n * len(values), exc) for k, (values, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for k, (values, _) in enumerate(shares):
        results[k::n] = values
    return results


def _part_path(out: Path, scn: Scenario) -> Path:
    return out / f".{scn.name}.csv.part"


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    """Run every scenario; one CSV per scenario in out_dir, none if any run fails.

    The runs are spread over the usable cores.  Each run is written to a
    hidden part file CSV_BLOCK_ROWS rows at a time, so no whole file's text
    is held, and the part files are renamed into place in config order
    only once every run has finished.  On a divergence or any other error
    every part file is removed and out_dir is left as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not cfg.scenarios:
        print("nothing to simulate (no [scenario] sections)", file=sys.stderr)
        return EXIT_CONFIG
    _warn_uncertified(cfg.scenarios)

    def write_part(scn: Scenario) -> None:
        traj = simulate(scn)
        with _part_path(out, scn).open("w", encoding="utf-8", newline="\n") as f:
            for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
                f.write(trajectory_csv_text(traj, start, start + CSV_BLOCK_ROWS))

    try:
        _map(write_part, list(cfg.scenarios))
        for scn in cfg.scenarios:
            path = _part_path(out, scn).replace(out / f"{scn.name}.csv")
            print(f"wrote {path}")
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    finally:
        for scn in cfg.scenarios:  # what a failed run or rename left
            _part_path(out, scn).unlink(missing_ok=True)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out_dir) -> int:
    """Run each comparison pair (or fixture) and write the index table.

    Each scenario named by any job is simulated once, the runs spread over
    the usable cores; a run is reduced to its indices (metrics.run_indices)
    where it was made.  The jobs' tables are then written in config order,
    and the first job whose run failed stops the command, as if the runs
    had been made job by job.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not cfg.compares:
        print("nothing to compare (no [compare] sections)", file=sys.stderr)
        return EXIT_CONFIG

    def indices(name: str) -> metrics.RunIndices | Exception:
        # a failed run is reported by the first job that names it
        try:
            return metrics.run_indices(simulate(cfg.scenario(name)))
        except Exception as exc:
            return exc

    names = list(dict.fromkeys(name for job in cfg.compares if not job.fixture for name in (job.pid, job.hpid)))
    runs = dict(zip(names, _map(indices, names)))
    for job in cfg.compares:
        if job.fixture:
            text = comparison_csv_text(
                None,
                fixture_rows=fixtures.HARDWARE_COMPARISON_ROWS,
                fixture_l2=(fixtures.HARDWARE_L2_CONTROL, fixtures.HARDWARE_L2_ERROR, fixtures.HARDWARE_L2_ERROR_ALT),
            )
        else:
            try:
                for name in (job.pid, job.hpid):
                    if isinstance(runs[name], Exception):
                        raise runs[name]
                report = metrics.compare_indices(runs[job.pid], runs[job.hpid])
            except DivergenceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_DIVERGENCE
            except ValueError as exc:
                print(f"error: [compare {job.name}] {exc}", file=sys.stderr)
                return EXIT_CONFIG
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


def cmd_verify(seed: int = 0) -> int:
    """Run the property suite; exit 0 iff every check passes."""
    results = checks.run_all(seed=seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    return parse_config(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hpid", description="Homogeneous PID control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate scenarios to CSV trajectories")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="PID vs hPID index table")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)

    p_cert = sub.add_parser("certify", help="stability certificate for gain sets")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run the built-in property suite")
    p_ver.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_load_config(args.config), args.out)
        if args.command == "compare":
            return cmd_compare(_load_config(args.config), args.out)
        if args.command == "certify":
            return cmd_certify(_load_config(args.config), args.out)
        return cmd_verify(seed=args.seed)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
