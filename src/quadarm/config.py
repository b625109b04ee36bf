"""YAML configuration: defaults, validation, and round-trip helpers.

An empty (or missing) config runs the stock tracking scenario: 5 degree
attitude set-points, 5 m altitude, all disturbance channels enabled,
optimized gain set.  Angle references are written in degrees in the file
and converted to radians on load.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import adrc
from .disturbances import (DisturbanceFlags, DisturbanceParams, DragParams,
                           GroundEffectParams, WindParams)
from .errors import ConfigurationError, QuadArmError, admits
from .model import (GeometryParams, InertiaParams, MassProperties, MixerParams,
                    QuadParams, QuadState, compose_inertia)
from .sim import DEG, ControllerGains, PiecewiseConstant, Scenario
from .tuner import (CostWeights, SignalBound, TuneOptions, TuneProblem, gains_from_vector,
                    gains_vector, layout_names, layout_vector)


class ConfigError(ConfigurationError):
    """Invalid configuration file; carries the offending key paths."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


def _gains_mapping(gains: ControllerGains) -> dict:
    """The ``controller`` entries that hold the observer and PD gains."""
    return {
        "eso": asdict(gains.eso),
        "eso_overrides": {name: asdict(e) for name, e in gains.eso_overrides.items()},
        "pd": {name: asdict(gains.pd_for(name)) for name in adrc.SUBSYSTEMS},
    }


def _defaults() -> dict:
    """The raw mapping of the stock configuration, read off the dataclass defaults."""
    params, gains, dist, sc = QuadParams(), ControllerGains(), DisturbanceParams(), Scenario()

    def segments(profile, scale=1.0):
        return [[t, v / scale] for t, v in profile.segments]

    return {
        "physical": {
            **asdict(params.masses), "g": params.g, "inertia": asdict(params.inertia),
            "geometry": None,  # set to the six dimensions to derive inertia instead
            "mixer": asdict(params.mixer),
        },
        "controller": {
            **_gains_mapping(gains),
            "u_limits": {name: list(limits) for name, limits in gains.u_limits.items()},
        },
        "disturbances": {
            "enable": asdict(sc.flags), "drag": {"k": list(dist.drag.k)},
            "ground_effect": asdict(dist.ground_effect), "wind": asdict(dist.wind),
            "strict_signs": dist.strict_signs,
        },
        "scenario": {
            "duration": sc.duration, "dt": sc.dt,
            "initial_state": sc.initial_state.vector.tolist(),
            "references": {"roll_deg": segments(sc.ref_roll, DEG),
                           "pitch_deg": segments(sc.ref_pitch, DEG),
                           "yaw_deg": segments(sc.ref_yaw, DEG), "z": segments(sc.ref_z)},
            "d1_profile": None, "open_loop": sc.open_loop,
            "open_loop_u1": segments(sc.open_loop_u1),
        },
        "tuner": {
            "layout": TuneProblem.layout, "weights": asdict(CostWeights()), "bounds": [],
            "box": None,  # {"lower": [...], "upper": [...]}
            "initial": None,  # defaults to the controller section's gains
            "options": asdict(TuneOptions()),
        },
    }


DEFAULTS = _defaults()


class _Loader(yaml.SafeLoader):
    """Safe YAML 1.1 loading that also reads exponents without a dot or an
    exponent sign (``1e-3``, ``1e+3``, ``1.0e180``) as floats, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _kind(value) -> str | None:
    """The kind of leaf a default asks for, or None for a free-form one."""
    if admits("switch", value):
        return "true or false"
    if admits("finite", value):
        return "a finite number"
    return "a list" if isinstance(value, list) else None


#: the leaves of the sections whose default names none, each with a value of
#: the kind it asks for (None: free-form); a list section's items are each such a mapping
_SECTION_KEYS = {"physical.geometry": dict.fromkeys([f.name for f in fields(GeometryParams)], 1.0),
                 "controller.eso_overrides": dict.fromkeys(adrc.SUBSYSTEMS,
                                                           DEFAULTS["controller"]["eso"]),
                 "tuner.box": {"lower": [], "upper": []},
                 "tuner.bounds": {"signal": None, "segments": []}}


def _merge(defaults, override, path, problems):
    """Deep-merge the mapping override onto defaults, recording unknown keys
    and leaves of another kind than their default (a switch, a number or a
    list).  The entries of a ``_SECTION_KEYS`` section are checked, not merged."""
    if not isinstance(override, dict):
        problems.append(f"{path}: expected a mapping")
        return defaults
    merged = dict(defaults)
    for key, value in override.items():
        child = f"{path}.{key}" if path else str(key)
        if key not in defaults:
            problems.append(f"{child}: unknown key")
        elif _kind(defaults[key]) not in (None, _kind(value)):
            problems.append(f"{child}: expected {_kind(defaults[key])}")
        elif value is None:  # a mapping or a free-form leaf: its default stays
            pass
        elif child in _SECTION_KEYS:
            entries = ({f"{child}[{i}]": e for i, e in enumerate(value)}
                       if isinstance(defaults[key], list) else {child: value})
            for where, entry in entries.items():
                _merge(_SECTION_KEYS[child], entry, where, problems)
            merged[key] = value
        elif isinstance(defaults[key], dict):
            merged[key] = _merge(defaults[key], value, child, problems)
        else:
            merged[key] = value
    return merged


def _build(problems, path, make):
    """``make()``, or None with the failure recorded under ``path``."""
    try:
        return make()
    except KeyError as exc:  # a geometry dimension or a box side left out
        problems.append(f"{path}: missing {exc}")
    except QuadArmError as exc:
        problems.append(f"{path}: {exc}")


def _profile(segments, path, problems, scale=1.0):
    return _build(problems, path, lambda: PiecewiseConstant(
        tuple((t, v * scale) for t, v in PiecewiseConstant(segments).segments)))


@dataclass
class Config:
    """Fully resolved configuration."""

    params: QuadParams
    gains: ControllerGains
    dist_params: DisturbanceParams
    scenario: Scenario
    tuner_problem: TuneProblem
    tuner_initial: np.ndarray | None
    tuner_options: TuneOptions
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def tuner_weights(self) -> CostWeights:
        """``tuner_problem.weights``, a read-only view."""
        return self.tuner_problem.weights

    def tune_problem(self) -> TuneProblem:
        """The tuner section's problem, built once by ``resolve``; a ``ConfigError``
        names the observer overrides that a shared-layout tune would drop."""
        if self.tuner_problem.layout == "shared" and any(
                eso != self.gains.eso for eso in self.gains.eso_overrides.values()):
            raise ConfigError(["controller.eso_overrides: the shared layout tunes one observer"])
        return self.tuner_problem

    def tune_initial(self) -> np.ndarray:
        """``tuner.initial``, or the controller section's gains in the tuner layout;
        a ``ConfigError`` names the start's parameters outside the tuner box."""
        problem, given = self.tuner_problem, self.tuner_initial
        x0 = gains_vector(self.gains, problem.layout) if given is None else given
        outside = [name for name, x, lo, hi in zip(layout_names(problem.layout), x0,
                                                   problem.box_lower, problem.box_upper)
                   if not lo <= x <= hi]
        if outside:
            path = "controller" if given is None else "tuner.initial"
            raise ConfigError([f"{path}: {', '.join(outside)} outside the tuner box"])
        return x0


def resolve(data: dict | None) -> Config:
    """Validate a raw mapping against the schema and build the objects."""
    problems: list[str] = []
    data = _merge(DEFAULTS, data or {}, "", problems)
    if problems:
        raise ConfigError(problems)

    phys, geometry = data["physical"], None
    if phys["geometry"] is not None:
        geometry = _build(problems, "physical.geometry", lambda: GeometryParams(
            *(phys["geometry"][name] for name in _SECTION_KEYS["physical.geometry"])))

    def physical():
        masses = MassProperties(phys["m_q"], phys["m_r"], phys["d0"], phys["d1"])
        inertia = (InertiaParams(**phys["inertia"]) if geometry is None
                   else compose_inertia(geometry, masses,
                                        J_r=phys["inertia"]["J_r"], l=phys["inertia"]["l"]))
        return QuadParams(masses=masses, inertia=inertia, mixer=MixerParams(**phys["mixer"]),
                          g=float(phys["g"]))
    params = (_build(problems, "physical", physical)
              if geometry or phys["geometry"] is None else None)
    if params is not None:
        _build(problems, "physical.mixer", lambda: params.mixer.inverse)

    ctrl = data["controller"]
    eso = _build(problems, "controller.eso", lambda: adrc.EsoGains(**ctrl["eso"]))
    # an override's unset gains take the configured ``eso`` values
    overrides = {name: _build(problems, f"controller.eso_overrides.{name}",
                              lambda: adrc.EsoGains(**{**ctrl["eso"], **(values or {})}))
                 for name, values in ctrl["eso_overrides"].items()}
    pd = {name: _build(problems, f"controller.pd.{name}",
                       lambda: adrc.PdGains(**ctrl["pd"][name])) for name in adrc.SUBSYSTEMS}
    limits = {name: _build(problems, f"controller.u_limits.{name}",
                           lambda: adrc.limits(ctrl["u_limits"][name]))
              for name in adrc.SUBSYSTEMS}

    dist = data["disturbances"]
    channels = {key: _build(problems, f"disturbances.{key}", lambda: make(**dist[key]))
                for key, make in (("drag", DragParams), ("ground_effect", GroundEffectParams),
                                  ("wind", WindParams))}
    flags = DisturbanceFlags(**dist["enable"])

    sc, before = data["scenario"], len(problems)
    initial = _build(problems, "scenario.initial_state", lambda: QuadState(sc["initial_state"]))
    refs = {key: _profile(value, f"scenario.references.{key}", problems,
                          DEG if key.endswith("_deg") else 1.0)
            for key, value in sc["references"].items()}
    d1_profile = (None if sc["d1_profile"] is None
                  else _profile(sc["d1_profile"], "scenario.d1_profile", problems))
    open_loop_u1 = _profile(sc["open_loop_u1"], "scenario.open_loop_u1", problems)
    # a part's problem is reported once: the Scenario is built only from parts that resolved
    scenario = None if len(problems) > before else _build(problems, "scenario", lambda: Scenario(
        duration=float(sc["duration"]), dt=float(sc["dt"]), initial_state=initial,
        ref_roll=refs["roll_deg"], ref_pitch=refs["pitch_deg"], ref_yaw=refs["yaw_deg"],
        ref_z=refs["z"], flags=flags, d1_profile=d1_profile,
        open_loop=sc["open_loop"], open_loop_u1=open_loop_u1))
    if scenario:
        _build(problems, "scenario.duration", lambda: scenario.n_steps)

    tn = data["tuner"]
    weights = _build(problems, "tuner.weights", lambda: CostWeights(**tn["weights"]))
    bounds = [_build(problems, f"tuner.bounds[{i}]",
                     lambda: SignalBound(b["signal"], b["segments"]))
              for i, b in enumerate(tn["bounds"])]
    layout = tn["layout"]
    box = init = None
    if _build(problems, "tuner.layout", lambda: layout_names(layout)):
        if tn["box"] is not None:
            box = tuple(_build(problems, f"tuner.box.{side}",
                               lambda: layout_vector(tn["box"][side], layout))
                        for side in ("lower", "upper"))
        if tn["initial"] is not None:
            init = _build(problems, "tuner.initial",
                          lambda: layout_vector(tn["initial"], layout))
    options = _build(problems, "tuner.options", lambda: TuneOptions(**tn["options"]))

    if problems:
        raise ConfigError(problems)
    gains = ControllerGains(eso=eso, eso_overrides=overrides,
                            pd_roll=pd["roll"], pd_pitch=pd["pitch"],
                            pd_yaw=pd["yaw"], pd_altitude=pd["altitude"],
                            u_limits=limits)
    dist_params = DisturbanceParams(**channels, strict_signs=dist["strict_signs"])
    # the rules that span sections, once every section resolves on its own
    if not scenario.open_loop:
        _build(problems, "physical.inertia", lambda: gains.loops(params))
    lower, upper = box or (None, None)
    tune_problem = _build(problems, "tuner.box", lambda: TuneProblem(
        scenario=scenario, params=params, dist_params=dist_params, weights=weights,
        bounds=tuple(bounds), layout=layout, box_lower=lower, box_upper=upper))
    if problems:
        raise ConfigError(problems)
    config = Config(params=params, gains=gains, dist_params=dist_params, scenario=scenario,
                    tuner_problem=tune_problem, tuner_initial=init, tuner_options=options, raw=data)
    if init is not None:
        config.tune_initial()
    return config


def load(path=None) -> Config:
    """Load and resolve a config file; None or empty file means defaults. A file
    that cannot be read or parsed is a ``ConfigError`` naming it."""
    data = None
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = yaml.load(fh, Loader=_Loader)
        except OSError as exc:
            raise ConfigError([f"{path}: {exc.strerror}"]) from exc
        except (UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ConfigError([f"{path}: {exc}"]) from exc
        if data is not None and not isinstance(data, dict):
            raise ConfigError([f"{path}: top level must be a mapping"])
    return resolve(data)


def dump(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def config_with_gains(config: Config, vector, layout: str = "shared") -> dict:
    """Raw config mapping with the controller section set from a tuned
    gain vector, suitable for feeding straight back into simulate."""
    data = yaml.safe_load(yaml.safe_dump(config.raw))  # deep copy, keys sorted
    mapping = _gains_mapping(gains_from_vector(vector, layout))
    # update in place, so the copy's key order (and the dumped bytes) stays
    data["controller"]["pd"].update(mapping.pop("pd"))
    data["controller"].update(mapping)
    data["tuner"]["initial"] = layout_vector(vector, layout).tolist()
    data["tuner"]["layout"] = layout
    return data
