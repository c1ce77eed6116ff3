from dataclasses import fields, replace

import pytest

from orbitroles.config import (
    SECTIONS,
    PipelineConfig,
    config_from_dict,
    load_config,
    validate_config,
)

# a value for every tuple field; their element types cannot be read off an
# empty default
TUPLE_VALUES = {
    "methods": ("rolx",),
    "graphwave_scales": (0.25, 2.0, 3.5),
    "import_paths": ("a.csv", "b.csv"),
    "effect_orbits": (3, 72),
    "keep_roles": (0, 2),
}


def _changed(name, default):
    """A value other than the default, of the default's type."""
    if isinstance(default, tuple):
        return TUPLE_VALUES[name]
    if isinstance(default, bool):
        return not default
    if default is None:  # threads
        return 3
    if isinstance(default, str):
        return default + "x"
    return default + 1


def _ini(value):
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_every_field_loads_typed(tmp_path):
    default = PipelineConfig()
    expected = replace(
        default,
        **{
            f.name: _changed(f.name, getattr(default, f.name))
            for f in fields(PipelineConfig)
            if f.name not in SECTIONS
        },
    )
    lines = ["[pipeline]"] + [
        f"{f.name} = {_ini(getattr(expected, f.name))}"
        for f in fields(PipelineConfig)
        if f.name not in SECTIONS
    ]
    for name in SECTIONS:
        section = getattr(default, name)
        changed = replace(
            section,
            **{f.name: _changed(f.name, getattr(section, f.name)) for f in fields(section)},
        )
        expected = replace(expected, **{name: changed})
        lines += [f"[{name}]"] + [
            f"{f.name} = {_ini(getattr(changed, f.name))}" for f in fields(changed)
        ]
    path = tmp_path / "all.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cfg = load_config(path)
    assert cfg == expected
    assert cfg.embed.graphwave_scales == (0.25, 2.0, 3.5)
    assert all(type(v) is float for v in cfg.embed.graphwave_scales)
    assert all(type(v) is int for v in cfg.explain.effect_orbits + cfg.explain.keep_roles)
    assert type(cfg.explain.effect_orbits) is tuple and type(cfg.explain.keep_roles) is tuple
    assert cfg.drop_orbit0 is True
    assert type(cfg.threads) is int
    assert config_from_dict(cfg.to_dict()) == cfg


def test_default_round_trips_through_dict():
    assert config_from_dict(PipelineConfig().to_dict()) == PipelineConfig()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[clustr]\nk_max = 5\n", r"unknown config section \[clustr\]; known sections: "
         r"\[pipeline\], \[embed\], \[cluster\], \[explain\], \[idr\]"),
        ("[embed]\nkernel = chebyshev\n", r"unknown config key 'kernel' in \[embed\]"),
        ("[pipeline]\nembed = rolx\n", r"unknown config key 'embed' in \[pipeline\]"),
        # a misspelt boolean is an error, not False
        ("[pipeline]\ndrop_orbit0 = treu\n",
         r"^\[pipeline\] drop_orbit0: 'treu' is not 1/true/yes/on or 0/false/no/off$"),
        ("[pipeline]\nthreads = two\n",
         r"^\[pipeline\] threads: invalid literal for int\(\) with base 10: 'two'$"),
        ("[cluster]\nk_min = 2.5\n",
         r"^\[cluster\] k_min: invalid literal for int\(\) with base 10: '2.5'$"),
        ("[embed]\ngraphwave_scales = 1.0, x\n",
         r"^\[embed\] graphwave_scales: could not convert string to float: 'x'$"),
    ],
)
def test_bad_section_key_or_value_rejected(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "raw, value",
    [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
     ("0", False), ("False", False), ("NO", False), ("Off", False)],
)
def test_booleans_in_any_case(tmp_path, raw, value):
    path = tmp_path / "bool.ini"
    path.write_text(f"[pipeline]\ndrop_orbit0 = {raw}\n", encoding="utf-8")
    assert load_config(path).drop_orbit0 is value


def test_manifest_value_that_does_not_convert_names_its_key():
    with pytest.raises(ValueError, match=r"^\[explain\] keep_roles: "):
        config_from_dict({"explain": {"keep_roles": 3}})


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("pipeline", "drop_orbit0", "false", "'false' is not a bool (JSON true or false)"),
        ("pipeline", "drop_orbit0", 0, "0 is not a bool (JSON true or false)"),
        ("pipeline", "seed", 2.0, "2.0 is not an integer"),
        ("pipeline", "threads", "2", "'2' is not an integer"),
        ("pipeline", "memory_budget_mb", "100", "'100' is not a number"),
        ("pipeline", "memory_budget_mb", False, "False is not a number"),
        ("cluster", "k_min", "2", "'2' is not an integer"),
        ("cluster", "k_min", True, "True is not an integer"),
        ("explain", "method", 3, "3 is not a string"),
        ("explain", "keep_roles", [0, 1.5], "1.5 is not an integer"),
        ("embed", "graphwave_scales", [0.5, "x"], "'x' is not a number"),
        ("embed", "methods", "rolx", "'rolx' is not a list"),
    ],
)
def test_manifest_value_of_another_type_rejected(section, key, value, message):
    data = PipelineConfig().to_dict()
    (data if section == "pipeline" else data[section])[key] = value
    with pytest.raises(ValueError) as info:
        config_from_dict(data)
    assert str(info.value) == f"[{section}] {key}: {message}"


def test_manifest_values_typed():
    # JSON has no tuples, and may write a float field as an integer
    data = PipelineConfig().to_dict()
    data.update(threads=None, memory_budget_mb=100, drop_orbit0=True)
    data["embed"]["graphwave_scales"] = [1, 2.5]
    data["explain"]["effect_orbits"] = [3]
    cfg = config_from_dict(data)
    assert cfg.threads is None and cfg.drop_orbit0 is True
    assert type(cfg.memory_budget_mb) is float and cfg.memory_budget_mb == 100.0
    assert cfg.embed.graphwave_scales == (1.0, 2.5)
    assert all(type(v) is float for v in cfg.embed.graphwave_scales)
    assert cfg.explain.effect_orbits == (3,)


COMMANDS = ("census", "embed", "cluster", "validate", "explain", "idr", "pipeline")


@pytest.mark.parametrize(
    "section, name",
    [(s, f.name) for s, cls in SECTIONS.items() for f in fields(cls) if f.metadata],
)
def test_declared_bound_or_choice_holds_for_every_command(section, name):
    default = PipelineConfig()
    part = getattr(default, section)
    (meta,) = [f.metadata for f in fields(part) if f.name == name]
    if "min" in meta:
        bad, message = meta["min"] - 1, f"{section}.{name} {meta['min'] - 1} < {meta['min']}"
    else:
        bad, message = "nosuch", f"{section}.{name} 'nosuch' not among {list(meta['choices'])}"
    cfg = replace(default, **{section: replace(part, **{name: bad})})
    for command in COMMANDS:
        validate_config(default, command)
        with pytest.raises(ValueError) as info:
            validate_config(cfg, command)
        text = str(info.value)
        assert text.startswith("invalid config: "), command
        assert message in text.removeprefix("invalid config: ").split("; "), command


def test_cross_field_checks_only_for_the_commands_that_read_both():
    default = PipelineConfig()
    swapped = replace(default, cluster=replace(default.cluster, k_min=5, k_max=3, chosen_k=4))
    reads_k_range = {
        "validate": "cluster.k_max 3 < cluster.k_min 5",
        "pipeline": "cluster.chosen_k 4 outside [5, 3]",
    }
    for command in COMMANDS:
        if command in reads_k_range:
            with pytest.raises(ValueError) as info:
                validate_config(swapped, command)
            assert str(info.value) == f"invalid config: {reads_k_range[command]}"
        else:
            validate_config(swapped, command)
    # keep_roles lies below the pipeline's chosen_k, and below the role
    # count that explain passes once its roles CSV is read
    kept = replace(default, explain=replace(default.explain, keep_roles=(0, 3)))
    with pytest.raises(ValueError, match=r"^invalid config: explain.keep_roles \[3\] outside"):
        validate_config(kept, "pipeline")
    validate_config(kept, "explain")
    validate_config(kept, "explain", roles_k=4)
    with pytest.raises(ValueError, match=r"^invalid config: explain.keep_roles \[3\] outside"):
        validate_config(kept, "explain", roles_k=3)
