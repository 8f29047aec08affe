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
error, 3 numerical divergence: a config that parses ends simulate in 0 or
3, and compare too unless a job pairs runs on different plants or grids.

simulate and compare spread their work over the usable cores, with no
setting (workers.fork_map).  The unit of work is a joint group: a
joints-plant run is cut into min(joints, usable cores) contiguous groups of
joints, an extended-plant run is one group, and forked workers take the
groups in turn.  For a command that ends in 0, 2 or 3, every file, printed
line and exit code is the one a single core gives: _map_runs joins each
run's groups once, and a split run that diverged fails as on one core.  A
fault, any exception other than an ArithmeticError, propagates as raised,
so whether it or an earlier divergence ends a run can depend on the core
count.  simulate writes its CSVs in a temporary directory of the output
directory and renames them into place only after every run has finished;
compare simulates each scenario named by any job once.  verify's Lyapunov
decrease line spreads its canonical-norm samples over the same forked
workers (stability.lyapunov_decrease_check), with the same output.

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
import contextlib
import math
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from operator import methodcaller
from pathlib import Path

import numpy as np

from . import checks, fixtures, metrics
from .control import GainSet, _check_floor, hpid_law
from .homogeneity import CanonicalNorm, WeightedSumNorm, _check_degree
from .plant import DisturbanceSpec, JointConfig, ReferenceSpec, _check_phase
from .sim import (
    DivergenceError, Scenario, Trajectory, _check_grid, _check_memory, _check_pid_degree, _check_positive,
    _first_failure, _initial_state, simulate,
)
from .stability import CertificateError, InfeasibleGainsError, StabilityCertificate, certify
from .workers import fork_map, usable_cores

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


def _joints(r: _SectionReader, n: int, seed: int | None, columns: dict, horizon) -> tuple[JointConfig, ...] | None:
    """The joints of the joints plant from the per-joint keys' values; absent keys take their defaults.

    Each key's values are checked alone, at that key.  The rules across
    keys are cited at the first of their keys set: the disturbance bound,
    and a phase w t + phase that overflows on the horizon (None for a grid
    already reported), at the frequency, the phase or T.
    """

    def column(key, default):
        # the key's n values; None for values already reported, or random phases without a valid seed
        values = columns[key]
        if key not in r.key_lines:
            return [0.7 * j for j in range(n)] if default is None else [default] * n
        if values == "random":
            return None if seed is None else np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=n).tolist()
        return values

    def in_phase(specs, T):
        for spec in specs:
            _check_phase(spec, T)
        return specs

    def specs(spec, keys, cited, prefix):
        columns = [
            r.check(key, lambda values: [spec.check_field(f.name, v) for v in values], column(key, default))
            for (key, default), f in zip(keys.items(), fields(spec))
        ]
        built = r.check(r.first(*cited), lambda *cols: [spec(*v) for v in zip(*cols)], *columns)
        return r.check(r.first(f"{prefix}_frequency", f"{prefix}_phase", "T"), in_phase, built, horizon)

    refs = specs(ReferenceSpec, _REFERENCE_KEYS, (), "ref")
    dists = specs(DisturbanceSpec, _DISTURBANCE_KEYS, ("dist_constant", "dist_amplitude", "dist_bound"), "dist")
    return None if refs is None or dists is None else tuple(map(JointConfig, refs, dists))


def _check_joint_count(n: int) -> None:
    """Reject a joint count no run holds even on the coarsest grid, T/h = 10."""
    try:
        _check_memory(10.0, n)
    except ValueError as exc:
        raise ValueError(f"{n} joints need more memory than any grid allows: {exc}") from None


def _read_scenario(r: _SectionReader) -> Scenario | None:
    plant, controller, kind = (r.text(key, choices) for key, choices in _CHOICES.items())
    # an invalid plant or norm kind applies every key that depends on it, so
    # the one bad choice is the one problem reported
    extended, joints = plant != "joints", plant != "extended"
    gains = _read_gains(r)
    numbers = {field: r.values(key, getattr(Scenario, field)) for key, field in _NUMBER_KEYS.items()}

    def check_mu(mu):
        _check_pid_degree(controller, mu)
        _check_degree(mu)

    mu = r.checked("mu", check_mu, numbers["mu"])
    # a floor at which the law overflows is cited at norm_floor, at a degree already valid
    floor = r.checked("norm_floor", lambda value: _check_floor(value, mu or 0.0), numbers["norm_floor"])
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
    T, h = numbers["horizon"], numbers["step"]
    if T is None or h is None:  # the rules across both keys need both: the one parsed is checked alone
        r.check("T", _check_positive, "horizon", T)
        r.check("h", _check_positive, "step", h)
    horizon = r.check(r.first("h", "T"), lambda T, h: _check_grid(T, h) or T, T, h)
    if joints and n and horizon is not None:
        # a run's memory grows with its blocks, one per joint: for a count the
        # grid cannot hold, the per-joint lists are read at any length, never n long
        n = r.checked(r.first("h", "T"), lambda n: _check_grid(T, h, n), n)
    elif joints and n:  # with no valid grid, the coarsest one any horizon allows judges the count
        n = r.checked("n_joints", _check_joint_count, n)
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
    plant_joints = _joints(r, n, seed, columns, horizon) if joints and n is not None else ()
    if not r.ok:  # the scenario is built only from a section without a problem
        return None
    return r.check("", Scenario, controller, gains, norm=norm, x0=x0, joints=plant_joints, name=r.name, **numbers)


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

def trajectory_csv_text(traj: Trajectory, start: int, stop: int | None, first: int = 0) -> str:
    """Render rows [start, stop) of a run, or of a joint group, as CSV at full float64 precision.

    The header row comes first when start == 0.  A group's first joint is
    the plant's joint first + 1: joints keep their plant-wide numbers, and
    `t` leads only the columns that start at joint 1, so the groups' columns
    side by side are the run's.  The range's columns become lists of Python
    floats, interleaved into one list of cells and rendered by one format
    call, every cell _FMT.
    """
    times = traj.times[start:stop].tolist()
    controls = traj.controls[start:stop].T.tolist()
    if traj.scenario.plant == "extended":
        header, columns = ["t", "x1", "x2", "x3", "u"], [times, *traj.states[start:stop].T.tolist(), *controls]
    else:
        header, columns, errors = [] if first else ["t"], [] if first else [times], traj.errors[start:stop].T.tolist()
        for k, (jc, e, u) in enumerate(zip(traj.scenario.joints, errors, controls), start=first + 1):
            header += [f"j{k}_q", f"j{k}_u", f"j{k}_eps"]
            columns += ([q - x for q, x in zip(map(jc.reference.position, times), e)], u, e)
    cells = [0.0] * (len(times) * len(columns))
    for c, column in enumerate(columns):
        cells[c :: len(columns)] = column
    row = ",".join([_FMT] * len(columns)) + "\n"
    return (",".join(header) + "\n" if start == 0 else "") + (row * len(times)) % tuple(cells)


def comparison_csv_text(rows, aggregates, source: str = "") -> str:
    """CSV for a comparison from text cells: joint rows, aggregate rows, a summary line.

    rows: six cells per joint (IVC, IAVC, ITAE, each PID then hPID); aggregates:
    (name, pid, hpid, note) rows; source: where injected numbers came from.  The summary
    counts the joints whose hPID IVC/IAVC cell reads lower, exact on _FMT cells.
    """
    lines = ["joint,IVC_PID,IVC_HPID,IAVC_PID,IAVC_HPID,ITAE_PID,ITAE_HPID"]
    if source:
        lines.append(f"source,{source},,,,,")
    lines += [f"{j}," + ",".join(row) for j, row in enumerate(rows, start=1)]
    lines += [f"aggregate,{name},{pid},{hpid},{note},," for name, pid, hpid, note in aggregates]
    ivc_wins = sum(float(row[1]) < float(row[0]) for row in rows)
    iavc_wins = sum(float(row[3]) < float(row[2]) for row in rows)
    lines.append(f"summary,hpid_lower_ivc,{ivc_wins},hpid_lower_iavc,{iavc_wins},joints,{len(rows)}")
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
    certs: dict[GainSet, StabilityCertificate | CertificateError] = {}  # one certify per distinct gain set
    for scn in scenarios:
        if scn.mu == 0.0:
            continue
        if not scn.gains.is_stabilizing():
            print(f"warning: scenario {scn.name!r} uses non-stabilizing gains", file=sys.stderr)
            continue
        if scn.gains not in certs:
            try:
                certs[scn.gains] = certify(scn.gains)
            except CertificateError as exc:
                certs[scn.gains] = exc
        cert = certs[scn.gains]
        if isinstance(cert, CertificateError):
            print(f"warning: scenario {scn.name!r} cannot be certified: {cert}", file=sys.stderr)
        elif not cert.admits(scn.mu):
            print(
                f"warning: scenario {scn.name!r} requests mu={scn.mu} outside the certified "
                f"interval ({cert.mu_lo:.6g}, {cert.mu_hi:.6g})",
                file=sys.stderr,
            )


def _out_dir(out_dir) -> Path:
    """out_dir, made with its parents; a ConfigError if it cannot be a directory (an existing file, say)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"--out: cannot make the output directory: {exc}"]) from exc
    return out


def _joint_groups(scn: Scenario, cores: int) -> list[tuple[int, Scenario]]:
    """scn cut into min(joints, cores) contiguous joint groups, (first joint, sub-scenario) each.

    A group is the sub-scenario of its joints: rk4_block integrates every
    block on its own, so a group's blocks are bitwise the whole run's.  A
    run on the extended plant, or in one group, is the one group (0, scn).
    """
    n = min(len(scn.joints), cores)
    if n < 2:
        return [(0, scn)]
    cuts = [len(scn.joints) * g // n for g in range(n + 1)]
    return [(lo, replace(scn, joints=scn.joints[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


def _map_runs(fn, scenarios) -> list:
    """fn(first, sub) over every joint group of every scenario, spread over the usable cores (workers.fork_map).

    Per scenario, its groups' values in joint order, or, if a group
    diverged, the first of the groups' failures (sim._first_failure), block
    numbered plant-wide: the failure the whole run meets.  Any other
    exception propagates.
    """
    cores = usable_cores()
    runs = [_joint_groups(scn, cores) for scn in scenarios]

    def caught(group):
        try:
            return fn(*group)
        except DivergenceError as exc:
            exc.block += group[0]
            return exc

    values = iter(fork_map(caught, [group for groups in runs for group in groups]))
    joined = []
    for groups in runs:
        run = [next(values) for _ in groups]
        failed = [value for value in run if isinstance(value, DivergenceError)]
        joined.append(_first_failure(failed) if failed else run)
    return joined


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    """Run every scenario; one CSV per scenario in out_dir, none if any run fails.

    The runs are cut into joint groups (one group per usable core, at most
    one per joint; an extended-plant run is one group), and the groups are
    spread over the usable cores.  Every file is written in a temporary
    directory made in out_dir, CSV_BLOCK_ROWS rows at a time, so no whole
    file's text is held: each group to its own fragment NAME.csv.j<k>, k
    its first joint.  A run's part file is its one fragment renamed, or its
    fragments pasted side by side, line by line, in this process.  A block
    is one format call over its interleaved columns (trajectory_csv_text);
    the bytes are those of one format per cell.  The part files are renamed
    into out_dir in config order only once every run has finished, and the
    first run in config order that diverged is reported as a single core
    reports it.  The temporary directory is removed whatever happens, so on
    a divergence or any other error out_dir is left as it was.
    """
    out = _out_dir(out_dir)
    if not cfg.scenarios:
        print("nothing to simulate (no [scenario] sections)", file=sys.stderr)
        return EXIT_CONFIG
    _warn_uncertified(cfg.scenarios)
    tmp = Path(tempfile.mkdtemp(dir=out))

    def write(first: int, sub: Scenario) -> Path:
        traj = simulate(sub)
        path = tmp / f"{sub.name}.csv.j{first + 1}"
        with path.open("w", encoding="utf-8", newline="\n") as f:
            for start in range(0, len(traj.times), CSV_BLOCK_ROWS):
                f.write(trajectory_csv_text(traj, start, start + CSV_BLOCK_ROWS, first))
        return path

    def part(name: str, fragments: list[Path]) -> Path:
        path = tmp / f"{name}.csv"
        if len(fragments) == 1:
            return fragments[0].replace(path)
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(frag.open(encoding="utf-8", newline="\n")) for frag in fragments]
            # a row is the fragments' lines joined by commas: all but the last lose their newline
            columns = [map(methodcaller("removesuffix", "\n"), f) for f in files[:-1]] + files[-1:]
            with path.open("w", encoding="utf-8", newline="\n") as f:
                f.writelines(map(",".join, zip(*columns)))
        return path

    try:
        runs = _map_runs(write, cfg.scenarios)
        failed = [run for run in runs if isinstance(run, DivergenceError)]
        if failed:
            print(f"error: {failed[0]}", file=sys.stderr)
            return EXIT_DIVERGENCE
        parts = [part(scn.name, fragments) for scn, fragments in zip(cfg.scenarios, runs)]
        for scn, path in zip(cfg.scenarios, parts):
            print(f"wrote {path.replace(out / f'{scn.name}.csv')}")
    finally:
        shutil.rmtree(tmp)  # what a failed run, paste or rename left
    return EXIT_OK


def cmd_compare(cfg: RunConfig, out_dir) -> int:
    """Run each comparison pair (or fixture) and write the index table.

    Each scenario named by any job is simulated once, cut into joint groups
    as simulate cuts it, and the groups are spread over the usable cores.
    A group is reduced where it ran to its grid and five floats per channel
    (metrics.channel_indices), and a run's indices are its groups' joined
    in channel order (metrics.run_indices).  The jobs' tables are then
    written in config order, and the first job whose run diverged stops the
    command, as if the runs had been made job by job; a pair of runs that
    cannot be paired (metrics.MetricsReport) is that job's config error.
    """
    out = _out_dir(out_dir)
    if not cfg.compares:
        print("nothing to compare (no [compare] sections)", file=sys.stderr)
        return EXIT_CONFIG

    def indices(first: int, sub: Scenario) -> metrics.RunIndices:
        return metrics.channel_indices(simulate(sub))

    names = list(dict.fromkeys(name for job in cfg.compares if not job.fixture for name in (job.pid, job.hpid)))
    runs = dict(zip(names, _map_runs(indices, [cfg.scenario(name) for name in names])))
    for job in cfg.compares:
        if job.fixture:
            # injected, externally measured numbers: say so in the artifact
            text = comparison_csv_text(
                fixtures.HARDWARE_COMPARISON_ROWS, fixtures.HARDWARE_AGGREGATES, source="hardware_fixture"
            )
        else:
            pair = [runs[name] for name in (job.pid, job.hpid)]
            failed = [run for run in pair if isinstance(run, DivergenceError)]
            if failed:  # a failed run is reported by the first job that names it
                print(f"error: {failed[0]}", file=sys.stderr)
                return EXIT_DIVERGENCE
            try:
                report = metrics.MetricsReport(*map(metrics.run_indices, pair))
            except ValueError as exc:  # runs that cannot be paired
                print(f"error: [compare {job.name}] {exc}", file=sys.stderr)
                return EXIT_CONFIG
            pid, hpid = report.pid, report.hpid
            text = comparison_csv_text(
                [[_FMT % v for v in row] for row in zip(pid.ivc, hpid.ivc, pid.iavc, hpid.iavc, pid.itae, hpid.itae)],
                [(k, _FMT % getattr(pid, k), _FMT % getattr(hpid, k), "") for k in ("l2_control", "l2_error")],
            )
        path = out / f"{job.name}.csv"
        path.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {path}")
        print(text.splitlines()[-1])
    return EXIT_OK


def cmd_certify(cfg: RunConfig, out_dir=None) -> int:
    """Certify each gain set; print constants and the admissible interval.

    A gain set without a certificate, infeasible or out of floating-point
    reach, gets its failure lines instead, the next job still runs, and the
    command exits 1.
    """
    if not cfg.certifies:
        print("nothing to certify (no [certify] sections)", file=sys.stderr)
        return EXIT_CONFIG
    out = None if out_dir is None else _out_dir(out_dir)
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
        except CertificateError as exc:
            print(f"  uncertifiable: {exc}")
            status = EXIT_FAILURE
            continue
        for i in range(3):
            print("  P row %d: %s" % (i + 1, "  ".join(_FMT % v for v in cert.P.entries[i])))
        print(f"  beta  = {_FMT % cert.beta}")
        print(f"  gamma = {_FMT % cert.gamma}")
        print(f"  certified degree interval: ({_FMT % cert.mu_lo}, {_FMT % cert.mu_hi})")
        if out is not None:
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
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError([f"line {line}: not UTF-8 text ({exc.reason} {data[exc.start]:#04x})"]) from exc
    return parse_config(text)


def _seed(text: str) -> int:
    """verify's --seed, a nonnegative integer: anything else is a usage error."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {seed}")
    return seed


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
    p_ver.add_argument("--seed", type=_seed, default=0)

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
