"""Dataclass configuration for the pipeline, loadable from INI files.

One file carries every knob: ``[pipeline]`` holds the scalar fields of
``PipelineConfig`` and each nested section dataclass has its own section.
The INI casts come from the field annotations, so a field is declared
once. Command-line flags win over file values. The resolved configuration
is stored verbatim in the run manifest so reruns are reproducible.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .diversity import DIRECTIONS, DISTANCES, PAIR_COUNTINGS
from .embeddings import DEFAULT_ROLX_RANK, DEFAULT_SAMPLE_POINTS, DEFAULT_SCALES
from .embeddings import DEFAULT_T_MAX, NATIVE_METHODS, sampling_problems
from .graphlets import ORBIT_COUNT
from .surrogate import EFFECT_KINDS


@dataclass
class EmbedConfig:
    methods: tuple[str, ...] = NATIVE_METHODS
    graphwave_scales: tuple[float, ...] = DEFAULT_SCALES
    sample_points: int = DEFAULT_SAMPLE_POINTS
    t_max: float = DEFAULT_T_MAX
    rolx_rank: int = DEFAULT_ROLX_RANK
    refex_depth: int = 2
    import_paths: tuple[str, ...] = ()


@dataclass
class ClusterConfig:
    k_min: int = 2
    k_max: int = 19
    chosen_k: int = 3
    sample_cap: int = 20000


@dataclass
class ExplainConfig:
    method: str = "graphwave"
    trees: int = 200
    importance_repeats: int = 5
    ale_bins: int = 32
    effect_orbits: tuple[int, ...] = (0, 17, 27)
    effect_kind: str = "ALE"
    keep_roles: tuple[int, ...] = ()


@dataclass
class IdrConfig:
    direction: str = "citing"
    distance: str = "uniform"
    bins: int = 10
    min_per_role: int = 50
    pair_counting: str = "ordered"


@dataclass
class PipelineConfig:
    """Every knob of a run. ``threads`` is the number of forked worker
    processes; None means ORBITROLES_THREADS, else the CPUs the process may
    run on. Lanes that run at once each hold their own memory: GraphWave's
    dense matrices (1.6 GB at BA n = 5000) sit beside the census's."""

    seed: int = 0
    threads: int | None = None
    drop_orbit0: bool = False
    memory_budget_mb: float = 4096.0
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    idr: IdrConfig = field(default_factory=IdrConfig)

    def to_dict(self) -> dict:
        return asdict(self)


def _field_types(cls) -> dict:
    """Field name -> resolved annotation, in declaration order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# section name -> dataclass: the nested fields of PipelineConfig
SECTIONS = {
    name: cls for name, cls in _field_types(PipelineConfig).items() if is_dataclass(cls)
}


def _not_among(name, value, allowed) -> list:
    """The problem of a setting that is not one of ``allowed``, if it is not."""
    return [] if value in allowed else [f"{name} {value!r} not among {list(allowed)}"]


def explain_problems(ex: ExplainConfig, k: int) -> list:
    """The problems of an [explain] section for roles 0..k-1: effect orbits
    outside 0..72, an unknown effect kind, fewer than two ALE bins, fewer
    than one tree or importance repeat, and ``keep_roles`` with fewer than
    two distinct roles or a role outside [0, k)."""
    bad = [o for o in ex.effect_orbits if not 0 <= o < ORBIT_COUNT]
    problems = [f"explain.effect_orbits {bad} outside 0..{ORBIT_COUNT - 1}"] if bad else []
    if ex.keep_roles:
        if len(set(ex.keep_roles)) < 2:
            problems.append(f"explain.keep_roles {list(ex.keep_roles)} has < 2 distinct roles")
        bad = [r for r in ex.keep_roles if not 0 <= r < k]
        if bad:
            problems.append(f"explain.keep_roles {bad} outside [0, {k})")
    problems += _not_among("explain.effect_kind", ex.effect_kind, EFFECT_KINDS)
    if ex.ale_bins < 2:
        problems.append(f"explain.ale_bins {ex.ale_bins} < 2")
    for name in ("trees", "importance_repeats"):
        if getattr(ex, name) < 1:
            problems.append(f"explain.{name} {getattr(ex, name)} < 1")
    return problems


def embed_problems(e: EmbedConfig) -> list:
    """The problems of an [embed] section: a method that is not native or
    is repeated, GraphWave sampling settings that no kernel can read,
    scales that are not all positive, and a RolX rank below 2."""
    problems = []
    unknown = [m for m in e.methods if m not in NATIVE_METHODS]
    if unknown:
        problems.append(
            f"embed.methods {unknown} not among {list(NATIVE_METHODS)}; "
            "external methods enter via [embed] import_paths"
        )
    # a method names its CSVs and its roles
    repeated = sorted({m for m in e.methods if e.methods.count(m) > 1})
    if repeated:
        problems.append(f"embed.methods {repeated} repeated")
    problems += [f"embed.{p}" for p in sampling_problems(e.sample_points, e.t_max)]
    if not e.graphwave_scales or not all(s > 0 for s in e.graphwave_scales):
        problems.append(f"embed.graphwave_scales {list(e.graphwave_scales)} not all > 0")
    if e.rolx_rank < 2:
        problems.append(f"embed.rolx_rank {e.rolx_rank} < 2")
    return problems


def sweep_problems(c: ClusterConfig) -> list:
    """The problems of the [cluster] values that the sweep reads: ``k_min``
    and ``sample_cap`` below 2."""
    problems = [f"cluster.k_min {c.k_min} < 2"] if c.k_min < 2 else []
    if c.sample_cap < 2:
        problems.append(f"cluster.sample_cap {c.sample_cap} < 2")
    return problems


def raise_problems(problems) -> None:
    """Raise the settings' problems ``problems``, if any, as one error."""
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))


def validate_config(cfg: PipelineConfig) -> None:
    """Reject settings that would only fail in a later stage.

    Only checks that need no input data: an imported embedding's method
    tag, for one, is known once its file is read, so ``explain.method`` is
    checked here only when nothing is imported.
    """
    problems = []
    if not cfg.embed.import_paths and cfg.explain.method not in cfg.embed.methods:
        problems.append(
            f"explain.method {cfg.explain.method!r} not among embed.methods "
            f"{list(cfg.embed.methods)}"
        )
    problems += explain_problems(cfg.explain, cfg.cluster.chosen_k)
    problems += embed_problems(cfg.embed)
    c = cfg.cluster
    problems += sweep_problems(c)
    if not c.k_min <= c.chosen_k <= c.k_max:
        problems.append(f"cluster.chosen_k {c.chosen_k} outside [{c.k_min}, {c.k_max}]")
    i = cfg.idr
    problems += _not_among("idr.direction", i.direction, DIRECTIONS)
    problems += _not_among("idr.distance", i.distance, DISTANCES)
    problems += _not_among("idr.pair_counting", i.pair_counting, PAIR_COUNTINGS)
    if i.bins < 1:
        problems.append(f"idr.bins {i.bins} < 1")
    raise_problems(problems)


def _bool(raw: str) -> bool:
    """1/true/yes/on or 0/false/no/off, in any case; anything else is an
    error rather than False."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"{raw!r} is not 1/true/yes/on or 0/false/no/off") from None


def _cast(kind, raw: str):
    """An INI string as a value of the annotated type ``kind``."""
    members = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        items = (p.strip() for p in raw.replace(";", ",").split(","))
        return tuple(_cast(members[0], p) for p in items if p)
    if members:  # ``int | None``: the file can only give the int
        return _cast(members[0], raw)
    return _bool(raw) if kind is bool else kind(raw)


# what a manifest value of each scalar field type must be
_JSON_KINDS = {
    bool: "a bool (JSON true or false)",
    int: "an integer",
    float: "a number",
    str: "a string",
}


def _from_json(kind, value):
    """A manifest value as the field's value, checked against the field's
    type: a JSON bool for ``bool``, an integer that is no bool for ``int``,
    a number that is no bool for ``float`` (an integer becomes a float), a
    string for ``str``, null where the type allows None, and for a tuple a
    list of such items, which becomes a tuple."""
    members = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{value!r} is not a list")
        return tuple(_from_json(members[0], item) for item in value)
    if members:  # ``int | None``
        return None if value is None else _from_json(members[0], value)
    number = isinstance(value, int) and not isinstance(value, bool)
    if kind is float and number:
        return float(value)
    if not isinstance(value, kind) or (kind is int and not number):
        raise ValueError(f"{value!r} is not {_JSON_KINDS[kind]}")
    return value


def _build(cls, values: dict, convert, section: str):
    """``cls`` with each key of ``values`` converted to its field's type;
    a key that is no scalar field of ``cls``, or a value that does not
    convert, is an error that names the key."""
    kinds = _field_types(cls)
    given = {}
    for key, value in values.items():
        if key not in kinds or is_dataclass(kinds[key]):
            raise ValueError(f"unknown config key {key!r} in [{section}]")
        try:
            given[key] = convert(kinds[key], value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"[{section}] {key}: {exc}") from None
    return cls(**given)


def _assemble(sections: dict, convert) -> PipelineConfig:
    """A PipelineConfig from section name -> {key: value}; ``pipeline``
    holds the scalar fields, and missing sections and keys keep their
    defaults."""
    known = ["pipeline", *SECTIONS]
    for name in sections:
        if name not in known:
            raise ValueError(
                f"unknown config section [{name}]; known sections: "
                + ", ".join(f"[{k}]" for k in known)
            )
    top = _build(PipelineConfig, sections.get("pipeline", {}), convert, "pipeline")
    return replace(
        top,
        **{
            name: _build(cls, sections.get(name, {}), convert, name)
            for name, cls in SECTIONS.items()
        },
    )


def config_from_dict(data: dict) -> PipelineConfig:
    """Rebuild a PipelineConfig from a manifest's parameter dict."""
    sections = {name: data.get(name, {}) for name in SECTIONS}
    sections["pipeline"] = {k: v for k, v in data.items() if k not in SECTIONS}
    return _assemble(sections, _from_json)


def load_config(path=None) -> PipelineConfig:
    """Read an INI config; missing file sections keep their defaults."""
    if path is None:
        return PipelineConfig()
    parser = configparser.ConfigParser()
    if not parser.read(str(path)):
        raise FileNotFoundError(f"config file not found: {path}")
    return _assemble({name: dict(parser[name]) for name in parser.sections()}, _cast)
