"""Dataclass configuration for the pipeline, loadable from INI files.

One file carries every knob: ``[pipeline]`` holds the scalar fields of
``PipelineConfig`` and each nested section dataclass has its own section.
The INI casts come from the field annotations, so a field is declared
once. Command-line flags win over file values. The resolved configuration
is stored verbatim in the run manifest so reruns are reproducible.

``validate_config`` is the one gate: every command but ``generate`` calls
it in stage ``config``. It makes two kinds of check. Field checks hold for
every command, since a config file is valid or not as a whole: each
field's bound (``min``) or choice set (``choices``), declared once in its
``metadata``, and the few checks that are neither, written out.
Cross-field checks hold only for the commands that read both fields.
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
    rolx_rank: int = field(default=DEFAULT_ROLX_RANK, metadata={"min": 2})
    refex_depth: int = 2
    import_paths: tuple[str, ...] = ()


@dataclass
class ClusterConfig:
    k_min: int = field(default=2, metadata={"min": 2})
    k_max: int = 19
    chosen_k: int = field(default=3, metadata={"min": 2})
    sample_cap: int = field(default=20000, metadata={"min": 2})


@dataclass
class ExplainConfig:
    method: str = "graphwave"
    trees: int = field(default=200, metadata={"min": 1})
    importance_repeats: int = field(default=5, metadata={"min": 1})
    ale_bins: int = field(default=32, metadata={"min": 2})
    effect_orbits: tuple[int, ...] = (0, 17, 27)
    effect_kind: str = field(default="ALE", metadata={"choices": EFFECT_KINDS})
    keep_roles: tuple[int, ...] = ()


@dataclass
class IdrConfig:
    direction: str = field(default="citing", metadata={"choices": DIRECTIONS})
    distance: str = field(default="uniform", metadata={"choices": DISTANCES})
    bins: int = field(default=10, metadata={"min": 1})
    min_per_role: int = 50
    pair_counting: str = field(default="ordered", metadata={"choices": PAIR_COUNTINGS})


@dataclass
class PipelineConfig:
    """Every knob of a run. ``threads`` is the number of forked worker
    processes; None means ORBITROLES_THREADS, else the CPUs the process may
    run on. Lanes that run at once each hold their own memory: GraphWave's
    dense matrices (1.6 GB at BA n = 5000) sit beside the census's."""

    seed: int = 0
    threads: int | None = field(default=None, metadata={"min": 1})
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


def _field_problems(cfg: PipelineConfig) -> dict:
    """The problems of the fields that declare a bound (``min``) or a
    choice set (``choices``) in their metadata, by ``section.field`` in
    section and field order (``pipeline``: PipelineConfig's own fields)."""
    problems = {}
    parts = {"pipeline": cfg, **{name: getattr(cfg, name) for name in SECTIONS}}
    for name, part in parts.items():
        for f in fields(part):
            key, value = f"{name}.{f.name}", getattr(part, f.name)
            low, allowed = f.metadata.get("min"), f.metadata.get("choices")
            if low is not None and value is not None and value < low:
                problems[key] = f"{key} {value} < {low}"
            if allowed is not None and value not in allowed:
                problems[key] = f"{key} {value!r} not among {list(allowed)}"
    return problems


def _written_problems(cfg: PipelineConfig) -> list:
    """The problems of the fields whose check is neither a bound nor a
    choice: a memory budget that is not positive, a method that is not
    native or is repeated, GraphWave sampling settings that no kernel can
    read, scales that are not all positive, effect orbits outside 0..72,
    and ``keep_roles`` with fewer than two distinct roles."""
    e, ex = cfg.embed, cfg.explain
    problems = []
    if not cfg.memory_budget_mb > 0:
        problems.append(f"pipeline.memory_budget_mb {cfg.memory_budget_mb} is not positive")
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
    bad = [o for o in ex.effect_orbits if not 0 <= o < ORBIT_COUNT]
    if bad:
        problems.append(f"explain.effect_orbits {bad} outside 0..{ORBIT_COUNT - 1}")
    if ex.keep_roles and len(set(ex.keep_roles)) < 2:
        problems.append(f"explain.keep_roles {list(ex.keep_roles)} has < 2 distinct roles")
    return problems


def validate_config(cfg: PipelineConfig, command: str, roles_k: int | None = None) -> None:
    """Reject the settings of ``command`` that would only fail in a later
    stage, as one error that joins every problem.

    The field checks come first, for every command. The cross-field checks
    follow for the commands that read both fields: ``pipeline`` keeps
    ``explain.method`` among ``embed.methods`` when nothing is imported (an
    imported embedding's tag is known once its file is read) and
    ``cluster.chosen_k`` in [``k_min``, ``k_max``], and ``validate`` keeps
    ``k_min <= k_max``. ``explain.keep_roles`` must lie below the role
    count: ``chosen_k`` in the pipeline, and for ``explain`` the ``roles_k``
    of its roles CSV, which only a second call, once the CSV is read, can
    pass.
    """
    failed = _field_problems(cfg)
    problems = _written_problems(cfg) + list(failed.values())
    c, ex = cfg.cluster, cfg.explain
    if command == "pipeline":
        if not cfg.embed.import_paths and ex.method not in cfg.embed.methods:
            problems.append(
                f"explain.method {ex.method!r} not among embed.methods {list(cfg.embed.methods)}"
            )
        # a chosen_k below its bound is reported once, as the bound
        if "cluster.chosen_k" not in failed and not c.k_min <= c.chosen_k <= c.k_max:
            problems.append(f"cluster.chosen_k {c.chosen_k} outside [{c.k_min}, {c.k_max}]")
        roles_k = c.chosen_k
    if command == "validate" and c.k_min > c.k_max:
        problems.append(f"cluster.k_max {c.k_max} < cluster.k_min {c.k_min}")
    bad = [] if roles_k is None else [r for r in ex.keep_roles if not 0 <= r < roles_k]
    if bad:
        problems.append(f"explain.keep_roles {bad} outside [0, {roles_k})")
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))


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
