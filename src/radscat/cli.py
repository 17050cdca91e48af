"""Command-line front end.

``radscat COMMAND --config PATH [--out PATH] [--tolerance NAME=VALUE ...]``,
with COMMAND one of smatrix, resonances, eigenfunction, criterion, verify and
transform.  One JSON config file describes the potential and the command
parameters; see docs/SCHEMA.md for the frozen key names.  Each command's body
(a CSV table or a key=value record) follows a single comment header line
recording the config hash, tool version and tolerance overrides; the named
tolerances and their defaults are ``_TOLERANCES``.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .criterion import SYMMETRY_RTOL, GridSpec, classify_eigensolution
from .potential import PhysicalScale, Potential
from .resonance import (
    ContourError,
    IllConditionedResidueError,
    MissedRootsError,
    Region,
    find_resonances,
    gamow_eigenfunction,
)
from .spectral import Family, eigenfunction, energy_transform, jost, measure, s_matrix
from .verification import smeared_delta_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: the named tolerances that ``--tolerance NAME=VALUE`` overrides, with defaults
_TOLERANCES = {
    "unitarity": 1e-10,
    "proportionality": 1e-12,
    "measure_identity": 1e-12,
    "smeared_delta": 1e-3,
    "symmetry": SYMMETRY_RTOL,
}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()[:16]


def _potential(cfg: dict) -> tuple[Potential, PhysicalScale]:
    try:
        scale = PhysicalScale(kappa=float(cfg.get("kappa", 1.0)))
        pot = Potential(
            breakpoints=tuple(cfg["breakpoints"]),
            heights=tuple(cfg["heights"]),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid potential spec: {exc}") from exc
    return pot, scale


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return sec


def _need(sec: dict, key: str, section: str):
    if key not in sec:
        raise ConfigError(f"missing key '{key}' in config section '{section}'")
    return sec[key]


def _number(sec: dict, key: str, section: str, default=None, cast=float):
    """sec[key] converted by ``cast``; the key is required when no default is
    given.  An integer key takes 3.0 as 3 but rejects 2.9 and inf."""
    value = _need(sec, key, section) if default is None else sec.get(key, default)
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(
            f"key '{key}' in config section '{section}' must be an integer, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"key '{key}' in config section '{section}' must be a number, got {value!r}"
        ) from exc


def _count(sec: dict, key: str, section: str, default: int, least: int = 1) -> int:
    """A sample count: sec[key] as an integer of at least ``least``."""
    n = _number(sec, key, section, default, int)
    if n < least:
        raise ConfigError(
            f"key '{key}' in config section '{section}' must be at least {least}, got {n}")
    return n


def _family(name) -> Family:
    try:
        return Family(name)
    except ValueError as exc:
        raise ConfigError(f"unknown family '{name}'") from exc


def _region(sec: dict, section: str) -> Region:
    """The section's fourth-quadrant search rectangle in the k plane."""
    reg = _need(sec, "region", section)
    try:
        region = Region(float(reg["re_min"]), float(reg["re_max"]),
                        float(reg["im_min"]), float(reg["im_max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid region in config section '{section}': {exc}") from exc
    if region.re_min < 0 or region.im_max > 0:
        raise ConfigError(f"region in config section '{section}' must lie in "
                          "Re k >= 0, Im k <= 0")
    return region


def _tolerances(pairs: list[str] | None) -> dict[str, float]:
    """The ``--tolerance`` overrides: known names, positive finite values."""
    tols = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got '{item}'")
        name, value = item.split("=", 1)
        name = name.strip()
        if name not in _TOLERANCES:
            raise ConfigError(f"unknown tolerance '{name}'; known: {', '.join(_TOLERANCES)}")
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in '{item}'") from exc
        if not 0 < tols[name] < np.inf:
            raise ConfigError(f"tolerance {name} must be positive and finite, got {value}")
    return tols


def _header(cfg_hash: str, tols: dict) -> str:
    tol_str = ",".join(f"{k}={v:g}" for k, v in sorted(tols.items())) or "default"
    return f"# radscat v{__version__} config_sha256={cfg_hash} tolerances={tol_str}"


def _table(columns: list[str], rows: list[tuple]) -> list[str]:
    return [",".join(columns)] + [
        ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) for row in rows]


def cmd_smatrix(cfg, scale, pot, tols):
    sec = _section(cfg, "smatrix")
    k = np.linspace(_number(sec, "k_min", "smatrix"),
                    _number(sec, "k_max", "smatrix"),
                    _count(sec, "n_k", "smatrix", 200))
    if (k <= 0).any():
        raise ConfigError("smatrix k grid must be positive")
    rows = []
    for kv, s in zip(k, s_matrix(pot, scale, k).s):
        rows.append((float(kv), float(kv ** 2 / scale.kappa),
                     float(s.real), float(s.imag), float(abs(s)),
                     float(np.angle(s))))
    return _table(["k", "E", "re_s", "im_s", "abs_s", "arg_s"], rows), None


def cmd_resonances(cfg, scale, pot, tols):
    sec = _section(cfg, "resonances")
    states = find_resonances(pot, scale, _region(sec, "resonances"),
                             max_states=_count(sec, "max_states", "resonances", 50))
    rows = []
    for n, st in enumerate(states, start=1):
        rows.append((n, float(st.k_pole.real), float(st.k_pole.imag),
                     float(st.e_res), float(st.gamma),
                     float(st.norm_sq.real), float(st.norm_sq.imag)))
    return _table(["n", "re_k", "im_k", "e_n", "gamma_n", "re_n2", "im_n2"], rows), None


def cmd_eigenfunction(cfg, scale, pot, tols):
    sec = _section(cfg, "eigenfunction")
    fam = _need(sec, "family", "eigenfunction")
    r_min = _number(sec, "r_min", "eigenfunction", 0.0)
    if r_min < 0:
        raise ConfigError(f"eigenfunction r_min must be nonnegative, got {r_min}")
    r = np.linspace(r_min, _number(sec, "r_max", "eigenfunction"),
                    _count(sec, "n_r", "eigenfunction", 200))
    if fam == "gamow":
        idx = _number(sec, "pole_index", "eigenfunction", cast=int)
        states = find_resonances(pot, scale, _region(sec, "eigenfunction"))
        if not 1 <= idx <= len(states):
            raise ConfigError(f"pole_index {idx} out of range 1..{len(states)}")
        psi = gamow_eigenfunction(states[idx - 1], r)
    else:
        kind = _family(fam)
        energy = _number(sec, "energy", "eigenfunction")
        if energy <= 0:
            raise ConfigError("eigenfunction energy must be positive")
        psi = eigenfunction(kind, pot, scale, energy, r)
    rows = [(float(rv), float(p.real), float(p.imag)) for rv, p in zip(r, psi)]
    return _table(["r", "re_psi", "im_psi"], rows), None


def cmd_criterion(cfg, scale, pot, tols):
    sec = _section(cfg, "criterion")
    kind = _family(_need(sec, "label", "criterion"))
    gs = _section(sec, "grid")
    # each key is cast like its GridSpec default: the counts to int, the rest to float
    grid = GridSpec(**{key: _number(gs, key, "criterion.grid", default, type(default))
                       for key, default in vars(GridSpec()).items()})
    try:
        n_points = grid.points().size
    except ValueError as exc:
        raise ConfigError(f"invalid criterion grid: {exc}") from exc
    if n_points == 0:
        raise ConfigError("criterion grid has no points")
    rep = classify_eigensolution(kind, pot, scale, grid, rtol=tols["symmetry"])
    record = {
        "label": rep.function_label,
        "max_deviation": f"{rep.max_deviation:.12g}",
        "classification": rep.classification,
        "grid": (f"re=[{grid.re_min},{grid.re_max}] im=[{grid.im_min},{grid.im_max}] "
                 f"n={grid.n_re}x{grid.n_im}"),
        "n_nonfinite": rep.n_nonfinite,
    }
    return [f"{key}={value}" for key, value in record.items()], None


def cmd_verify(cfg, scale, pot, tols):
    sec = _section(cfg, "verify")
    checks = []

    # |S| = 1 on the physical line
    ks = np.linspace(0.05, 10.0, 1000)
    dev = float(np.max(np.abs(np.abs(s_matrix(pot, scale, ks).s) - 1.0)))
    checks.append(("unitarity", dev, tols["unitarity"]))

    # in = S * out pointwise
    es = np.linspace(1.0, 20.0, 20)
    rs = np.linspace(0.0, 3 * pot.outer_radius, 20)
    worst = 0.0
    for e in es:
        s = s_matrix(pot, scale, scale.wavenumber(e).real).s
        d = np.abs(eigenfunction(Family.IN, pot, scale, e, rs)
                   - s * eigenfunction(Family.OUT, pot, scale, e, rs))
        worst = max(worst, float(d.max()))
    checks.append(("proportionality", worst, tols["proportionality"]))

    # rho |Jplus|^2 == rho+, i.e. 4 rho |J4|^2 == rho+
    worst = 0.0
    for k in np.linspace(0.1, 10.0, 200):
        rho = measure(Family.STANDING_WAVE, pot, scale, k)
        rho_p = measure(Family.IN, pot, scale, k)
        j_plus = jost(pot, scale, k).j_plus
        worst = max(worst, abs(rho * abs(j_plus) ** 2 - rho_p) / rho_p)
    checks.append(("measure_identity", worst, tols["measure_identity"]))

    # smeared delta-normalization per family
    center = _number(sec, "g_center", "verify", 16.0)
    width = _number(sec, "g_width", "verify", 2.0)
    r_max = _number(sec, "r_max", "verify") if "r_max" in sec else None
    failed_convergence = False
    for fam in Family:
        try:
            rep = smeared_delta_check(fam, pot, scale, center, width, r_max=r_max)
        except ValueError as exc:
            # the check's own range tests of g_center, g_width and r_max
            raise ConfigError(f"invalid config section 'verify': {exc}") from exc
        checks.append((f"smeared_delta_{fam.value}", rep.relative_error, tols["smeared_delta"]))
        failed_convergence |= not rep.converged

    rows = [(name, float(err), float(tol), "pass" if err <= tol else "FAIL")
            for name, err, tol in checks]
    ok = all(r[3] == "pass" for r in rows) and not failed_convergence
    return _table(["check", "error", "tolerance", "status"], rows), None if ok else "verify failed"


def cmd_transform(cfg, scale, pot, tols):
    sec = _section(cfg, "transform")
    kind = _family(_need(sec, "family", "transform"))
    psi_spec = _need(sec, "psi", "transform")
    r_max = _number(sec, "r_max", "transform", 10 * pot.outer_radius)
    # Simpson's rule needs at least three samples
    r = np.linspace(0.0, r_max, _count(sec, "n_r", "transform", 2001, least=3))
    try:
        center = float(psi_spec["center"])
        width = float(psi_spec["width"])
        k0 = float(psi_spec["k0"]) if "k0" in psi_spec else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"psi spec needs numeric 'center' and 'width': {exc}") from exc
    if not width > 0:
        raise ConfigError(f"transform psi width must be positive, got {width}")
    psi = np.exp(-((r - center) ** 2) / (2 * width ** 2))
    if k0 is not None:
        psi = psi * np.exp(1j * k0 * r)
    e_min = _number(sec, "e_min", "transform")
    if e_min <= 0:
        raise ConfigError(f"transform e_min must be positive, got {e_min}")
    e_max = _number(sec, "e_max", "transform")
    n_e = _count(sec, "n_e", "transform", 400)
    if n_e > 1 and e_max <= e_min:
        raise ConfigError(f"transform e_max must exceed e_min, got {e_max} <= {e_min}")
    e_grid = np.linspace(e_min, e_max, n_e)
    coeffs = energy_transform(kind, pot, scale, psi, r_max, e_grid)
    rows = [(float(e), float(c.real), float(c.imag)) for e, c in zip(e_grid, coeffs)]
    return _table(["E", "re_coeff", "im_coeff"], rows), None


#: each command returns its body lines and a failure message or None
_COMMANDS = {
    "smatrix": cmd_smatrix,
    "resonances": cmd_resonances,
    "eigenfunction": cmd_eigenfunction,
    "criterion": cmd_criterion,
    "verify": cmd_verify,
    "transform": cmd_transform,
}

_PARSER = argparse.ArgumentParser(
    prog="radscat",
    description="Scattering observables for piecewise-constant radial potentials",
)
_PARSER.add_argument("command", choices=_COMMANDS,
                     help="what to compute; it reads the config section of the same name")
_PARSER.add_argument("--config", required=True, help="JSON config file (docs/SCHEMA.md)")
_PARSER.add_argument("--out", help="output path (default stdout)")
_PARSER.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                     help=f"override a named tolerance ({', '.join(_TOLERANCES)})")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg, cfg_hash = _load_config(args.config)
        overrides = _tolerances(args.tolerance)
        pot, scale = _potential(cfg)
        body, failure = _COMMANDS[args.command](cfg, scale, pot, {**_TOLERANCES, **overrides})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MissedRootsError, IllConditionedResidueError, ContourError, ArithmeticError) as exc:
        # ArithmeticError: PoleError, OverflowError, NonFiniteGridError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = "".join(line + "\n" for line in [_header(cfg_hash, overrides), *body])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
