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

from .embeddings import DEFAULT_ROLX_RANK, sampling_problems
from .graphlets import ORBIT_COUNT


@dataclass
class EmbedConfig:
    methods: tuple[str, ...] = ("graphwave", "rolx")
    graphwave_scales: tuple[float, ...] = (0.5, 1.5)
    sample_points: int = 32
    t_max: float = 100.0
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


def explain_problems(ex: ExplainConfig) -> list:
    """The problems of an [explain] section: effect orbits outside 0..72,
    and fewer than one tree or importance repeat."""
    bad = [o for o in ex.effect_orbits if not 0 <= o < ORBIT_COUNT]
    problems = [f"explain.effect_orbits {bad} outside 0..{ORBIT_COUNT - 1}"] if bad else []
    for name in ("trees", "importance_repeats"):
        if getattr(ex, name) < 1:
            problems.append(f"explain.{name} {getattr(ex, name)} < 1")
    return problems


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
    problems += explain_problems(cfg.explain)
    e = cfg.embed
    problems += [f"embed.{p}" for p in sampling_problems(e.sample_points, e.t_max)]
    c = cfg.cluster
    if c.k_min < 2:
        problems.append(f"cluster.k_min {c.k_min} < 2")
    if not c.k_min <= c.chosen_k <= c.k_max:
        problems.append(f"cluster.chosen_k {c.chosen_k} outside [{c.k_min}, {c.k_max}]")
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))




def _bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _cast(kind, raw: str):
    """An INI string as a value of the annotated type ``kind``."""
    members = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        items = (p.strip() for p in raw.replace(";", ",").split(","))
        return tuple(_cast(members[0], p) for p in items if p)
    if members:  # ``int | None``: the file can only give the int
        return _cast(members[0], raw)
    return _bool(raw) if kind is bool else kind(raw)


def _from_json(kind, value):
    """A manifest value as the field's value: JSON lists back to tuples."""
    return tuple(value) if typing.get_origin(kind) is tuple else value


def _build(cls, values: dict, convert, section: str):
    """``cls`` with each key of ``values`` converted to its field's type;
    a key that is no scalar field of ``cls`` is an error."""
    kinds = _field_types(cls)
    for key in values:
        if key not in kinds or is_dataclass(kinds[key]):
            raise ValueError(f"unknown config key {key!r} in [{section}]")
    return cls(**{key: convert(kinds[key], value) for key, value in values.items()})


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
