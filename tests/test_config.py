from dataclasses import fields, replace

import pytest

from orbitroles.config import SECTIONS, PipelineConfig, config_from_dict, load_config

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
